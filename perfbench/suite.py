"""Workloads of the repository benchmark: inputs, set-up and timed passes.

Every workload is a fixed list of jobs.  A *pass* runs the whole list
once; the timed phase runs whole passes (so every pass has the same
job mix) until the next one would overrun the run length.  All work
is serial in this process and goes through the program's public
entry points: :func:`repro.workloads.run_workload` for the cold
workloads and :func:`repro.explore.sweep.run_sweep` for the warm one.

Inputs come from ``--seed``: seed 0 uses the registry's stand-in
datasets unchanged; any other seed registers copies of every graph,
matrix and tensor spec under new keys with generator seeds derived
from it, so the program only ever sees generated datasets by name.
"""

from __future__ import annotations

import hashlib
import random
import shutil
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

from perfbench.hostspeed import HostSpeed
from repro.explore import sweep as sweep_mod
from repro.graph import datasets as graph_datasets
from repro.perf.cache import RunCache
from repro.tensor import datasets as tensor_datasets
from repro.workloads import (
    effective_scale,
    figure_datasets,
    figure_suite_runs,
    figure_workloads,
    get_workload,
    run_workload,
)

ROOT = Path(__file__).resolve().parent.parent
#: Private run directory inside the checkout (caches, span files).
WORK_DIR = ROOT / ".perfbench"

#: Global GPM scale of the figure suite the cold-gpm workload records.
GPM_SCALE = 0.2
GPM_ORDER_SEED = 20220228

#: cold-tensor runs, in pass order (18-33 s).  Inner product takes about
#: 60% of the pass's host time (three quarters in the full figure
#: suite, whose 37 runs take ~100 s) and TTM about 30%.  Six of the ten
#: jobs run for 3-5 s, so the median job and the tail (the slowest job,
#: as no percentile has ten jobs beyond it) both fall on long jobs of
#: similar length, which a noisy host times most steadily.  Outer and
#: Gustavson run on a banded matrix, whose work barely changes with the
#: seed.  Long and short jobs alternate, so host-speed drift during a
#: pass moves all sizes alike.
COLD_TENSOR_RUNS = (
    ("spmspm-inner", "CA"), ("ttv", "Ch"), ("ttm", "U"),
    ("spmspm", "P"), ("spmspm-inner", "C204"), ("ttm", "Ch"),
    ("ttv", "U"), ("spmspm-inner", "L"), ("spmspm-outer", "P"),
    ("spmspm-inner", "H"),
)

#: The explore-fig12 grid: both axes are read only at pricing time.
SWEEP_AXES = (("num_sus", (1, 2, 4, 8, 16)),
              ("scache_bandwidth", (2, 4, 8, 16, 32, 64)))

WORKLOADS = ("cold-gpm", "cold-tensor", "explore-fig12")

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPS = 3

_SEEDED = "-seed"
_MEMOS = (graph_datasets.load_graph, tensor_datasets.load_matrix,
          tensor_datasets.load_tensor)


@dataclass(frozen=True)
class Job:
    """One run of a registered workload on one dataset."""

    workload: str
    code: str  # dataset code as the figures name it
    scale: float  # effective scale (1.0 for matrices and tensors)
    dataset: str  # registry key handed to the program

    @property
    def key(self) -> str:
        """Seed-independent identity (reference digests key off it)."""
        return f"{self.workload}:{self.code}:{self.scale}"


@dataclass
class JobRecord:
    """Outcome of one timed job (a cold run or one priced point)."""

    job: Job
    seconds: float
    ops: int  # stream ops this job priced
    metrics: dict | None = None
    summary: dict = field(default_factory=dict)
    error: str | None = None
    point: str = ""  # explore: the grid point's axis values
    pass_index: int = 0
    #: perf_counter interval the job's seconds were measured in (a
    #: cold job's own, an explore point's sweep)
    span: tuple[float, float] = (0.0, 0.0)


# -- seeded inputs ---------------------------------------------------------


def _registries():
    return (("graph", graph_datasets.GRAPH_REGISTRY),
            ("matrix", tensor_datasets.MATRIX_REGISTRY),
            ("tensor", tensor_datasets.TENSOR_REGISTRY))


def derived_seed(key: str, base_seed: int, seed: int) -> int:
    """Generator seed of ``key``'s copy at benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{key}/{base_seed}/{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def register_seeded(seed: int) -> dict[tuple[str, str], str]:
    """Map ``(kind, code)`` to the registry key runs use at ``seed``.

    Seed 0 registers nothing and maps every code to its stand-in's own
    key.  Other seeds register (once) a copy of each stand-in spec
    under ``<key>-seed<n>`` with a derived generator seed; everything
    else about the spec (size, degree, structure) is unchanged.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    names = {}
    for kind, registry in _registries():
        for spec in [s for s in registry.values() if _SEEDED not in s.key]:
            key = spec.key
            if seed:
                key = f"{spec.key}{_SEEDED}{seed}"
                registry.setdefault(key, replace(
                    spec, key=key,
                    seed=derived_seed(spec.key, spec.seed, seed)))
            names[(kind, spec.code)] = key
    return names


def unregister_seeded() -> None:
    """Drop every seeded copy (tests run several seeds in-process)."""
    for _kind, registry in _registries():
        for key in [k for k in registry if _SEEDED in k]:
            del registry[key]
    clear_dataset_memos()


def clear_dataset_memos() -> None:
    for memo in _MEMOS:
        memo.cache_clear()


# -- job lists -------------------------------------------------------------


def workload_jobs(workload: str, names: dict) -> list[Job]:
    """The fixed job list of one benchmark workload."""
    if workload == "cold-gpm":
        jobs = [Job(spec.name, code, scale, names[("graph", code)])
                for spec, code, scale in figure_suite_runs(GPM_SCALE)
                if spec.family == "gpm"]
        # A fixed shuffle (the same at every seed) spreads each kind of
        # job over the pass instead of running, e.g., all cliques in a row.
        random.Random(GPM_ORDER_SEED).shuffle(jobs)
        return jobs
    if workload == "cold-tensor":
        jobs = []
        for name, code in COLD_TENSOR_RUNS:
            spec = get_workload(name)
            jobs.append(Job(name, code, 1.0,
                            names[(spec.dataset_kind, code)]))
        return jobs
    if workload == "explore-fig12":
        return [Job(name, code,
                    effective_scale(get_workload(name), code, GPM_SCALE),
                    names[("graph", code)])
                for name in figure_workloads("fig12")
                for code in figure_datasets("fig12")]
    raise ValueError(f"unknown workload {workload!r}; known: {WORKLOADS}")


def trace_jobs(workload: str, jobs) -> list[Job]:
    """The fixed job list of a traced run: every third cold-gpm job,
    every job of the other workloads."""
    return list(jobs)[::3] if workload == "cold-gpm" else list(jobs)


def load_datasets(jobs) -> None:
    """Generate (and memoize) every dataset the jobs read."""
    for job in jobs:
        spec = get_workload(job.workload)
        if spec.dataset_kind == "graph":
            graph_datasets.load_graph(job.dataset, job.scale,
                                      num_labels=spec.num_labels)
        elif spec.dataset_kind == "matrix":
            tensor_datasets.load_matrix(job.dataset)
        else:
            tensor_datasets.load_tensor(job.dataset)


# -- running ---------------------------------------------------------------


class Bench:
    """One workload's inputs, private caches and passes.

    ``jobs`` defaults to the workload's full list; tests pass a short
    one.  ``tracer`` (a :class:`perfbench.tracing.Tracer`) tags each
    job's spans with a job id.  While ``speed`` (a
    :class:`perfbench.hostspeed.HostSpeed`) is set, passes give it a
    tick at every job boundary.
    """

    def __init__(self, workload: str, seed: int, jobs=None, tracer=None):
        self.workload = workload
        names = register_seeded(seed)
        self.jobs = list(jobs) if jobs is not None \
            else workload_jobs(workload, names)
        self.tracer = tracer
        self.speed: HostSpeed | None = None
        WORK_DIR.mkdir(exist_ok=True)
        self._dirs: list[Path] = []
        #: explore: cold-pipeline metrics of each recorded trace
        self.base_metrics: dict[str, dict] = {}
        self.cache_root: Path | None = None

    def close(self) -> None:
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()

    def _fresh_dir(self) -> Path:
        path = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR))
        self._dirs.append(path)
        return path

    # -- set-up ------------------------------------------------------------

    def set_up(self) -> float:
        """Generate the datasets (and record the explore traces).

        Memoized datasets are dropped first, so every call does the
        full set-up; returns its seconds.
        """
        start = time.perf_counter()
        clear_dataset_memos()
        load_datasets(self.jobs)
        if self.workload == "explore-fig12":
            root = self._fresh_dir()
            cache = RunCache(root)
            base = {}
            for job in self.jobs:
                self._begin(job.key)
                base[job.key] = run_workload(job.workload, job.dataset,
                                             job.scale, cache=cache).metrics
                self._end()
            if self.cache_root is not None:
                shutil.rmtree(self.cache_root, ignore_errors=True)
                self._dirs.remove(self.cache_root)
            self.cache_root, self.base_metrics = root, base
        return time.perf_counter() - start

    # -- passes ------------------------------------------------------------

    def _begin(self, label: str) -> None:
        if self.tracer is not None:
            self.tracer.begin_job(label)

    def _end(self) -> None:
        if self.tracer is not None:
            self.tracer.end_job()
        if self.speed is not None:
            self.speed.tick()

    def run_pass(self, pass_index: int = 0) -> list[JobRecord]:
        if self.workload == "explore-fig12":
            return self._explore_pass(pass_index)
        return self._cold_pass(pass_index)

    def _cold_pass(self, pass_index: int) -> list[JobRecord]:
        """Record every job cold into a fresh, empty cache."""
        root = self._fresh_dir()
        cache = RunCache(root)
        records = []
        try:
            for job in self.jobs:
                self._begin(job.key)
                start = time.perf_counter()
                try:
                    res = run_workload(job.workload, job.dataset, job.scale,
                                       cache=cache)
                except Exception as exc:  # a raising job counts as failed
                    end = time.perf_counter()
                    records.append(JobRecord(
                        job, end - start, 0,
                        error=f"{type(exc).__name__}: {exc}",
                        pass_index=pass_index, span=(start, end)))
                else:
                    end = time.perf_counter()
                    records.append(JobRecord(
                        job, end - start,
                        res.trace.num_ops, metrics=res.metrics,
                        summary=res.summary, pass_index=pass_index,
                        span=(start, end)))
                finally:
                    self._end()
        finally:
            shutil.rmtree(root, ignore_errors=True)
            self._dirs.remove(root)
        return records

    def _explore_pass(self, pass_index: int) -> list[JobRecord]:
        """Sweep every recorded trace over the Fig 12/13 grid.

        One record per grid point; points that were not priced, and all
        points of a sweep that had to re-record its trace, fail.
        """
        axes = [f"{name}={','.join(map(str, values))}"
                for name, values in SWEEP_AXES]
        n_points = 1
        for _name, values in SWEEP_AXES:
            n_points *= len(values)
        records = []
        for job in self.jobs:
            num_ops = self.base_metrics[job.key]["num_ops"]
            rows, reason = [], "grid point not priced"
            self._begin(job.key)
            start = time.perf_counter()
            try:
                report = sweep_mod.run_sweep(
                    [job.workload], axes, datasets={job.workload: job.dataset},
                    scale=job.scale, workers=1, cache_dir=self.cache_root)
                rows = report.workloads[0].rows
                if report.failures:
                    reason = "; ".join(f"{f['key']}: {f['error']}"
                                       for f in report.failures)
            except Exception as exc:
                reason = f"{type(exc).__name__}: {exc}"
            finally:
                end = time.perf_counter()
                self._end()
            recorded = bool(rows) and report.cache["misses"] > 0
            for row in rows:
                records.append(JobRecord(
                    job, row["wall_seconds"], num_ops,
                    metrics={k: row[k] for k in (
                        "values", "sc_cycles", "cpu_cycles",
                        "speedup_vs_cpu", "area_mm2")},
                    error="trace re-recorded during the sweep"
                    if recorded else None,
                    point=",".join(f"{f}={v}" for f, v in row["values"]),
                    pass_index=pass_index, span=(start, end)))
            records += [JobRecord(job, 0.0, 0, error=reason,
                                  pass_index=pass_index, span=(start, end))
                        for _ in range(n_points - len(rows))]
        return records

    def timed(self, seconds: float):
        """Run whole passes for at most ``seconds`` (at least one).

        A pass starts only when the previous pass's length says it
        ends within the run length, so every pass has the same mix.
        Returns the records (seconds as measured), the
        :class:`HostSpeed` that sampled the passes, the
        ``(start, end)`` of the passes and the pass count.
        """
        records: list[JobRecord] = []
        speed = HostSpeed()
        # Explore points are timed by the engine inside a sweep, where a
        # timer sample would land in a point's time; explore passes are
        # sampled only between sweeps, which end every ~0.1 s.
        timer = nullcontext() if self.workload == "explore-fig12" \
            else speed.timer()
        speed.sample()
        self.speed = speed
        start = time.perf_counter()
        passes = 0
        try:
            with timer:
                while True:
                    pass_start = time.perf_counter()
                    records += self.run_pass(passes)
                    passes += 1
                    now = time.perf_counter()
                    if (now - start) + (now - pass_start) > seconds:
                        break
        finally:
            self.speed = None
        end = time.perf_counter()
        speed.sample()
        return records, speed, (start, end), passes


def rescaled(records, measure) -> list[JobRecord]:
    """``records`` with seconds re-measured over their spans by
    ``measure`` (:meth:`HostSpeed.scaled` or :meth:`HostSpeed.program`);
    a record that is a share of its span keeps that share."""
    out = []
    for rec in records:
        start, end = rec.span
        share = rec.seconds / (end - start) if end > start else 0.0
        out.append(replace(rec, seconds=share * measure(start, end)))
    return out


# -- end-to-end metrics ----------------------------------------------------


def tail(latencies) -> tuple[float, float]:
    """``(percentile, value)``: the highest percentile with at least
    ten jobs beyond it (the slowest job if there are ten or fewer)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 100.0, ordered[-1]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def end_to_end(records, wall: float, setup_s: float,
               peak_rss_mb: float) -> dict:
    """End-to-end figures of one timed phase (``fail_rate`` aside).

    Latency figures are taken over each job's median across passes, so
    they describe the same jobs however many passes fit in the run.
    """
    by_job: dict[tuple[str, str], list[float]] = {}
    for rec in records:
        if rec.error is None:
            by_job.setdefault((rec.job.key, rec.point), []).append(
                rec.seconds)
    latencies = [statistics.median(s) for s in by_job.values()]
    pct, tail_s = tail(latencies)
    return {
        "sim_ops_per_s": sum(r.ops for r in records) / wall,
        "job_s_p50": statistics.median(latencies),
        "job_s_tail": tail_s,
        "tail_percentile": pct,
        "jobs": len(latencies),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


__all__ = ["Bench", "COLD_TENSOR_RUNS", "GPM_SCALE", "Job", "JobRecord",
           "SETUP_REPS", "SWEEP_AXES", "WORKLOADS", "WORK_DIR",
           "clear_dataset_memos", "derived_seed", "end_to_end",
           "load_datasets", "register_seeded", "rescaled", "tail",
           "trace_jobs",
           "unregister_seeded", "workload_jobs"]
