"""The design-space sweep runner.

One sweep prices a set of workloads at every point of a configuration
grid.  The run pipeline's split between *recording* (config-free,
cached) and *pricing* (config-dependent, cheap) is what makes this
tractable: the runner records each workload **once** — phase 1 warms
the content-addressed trace cache through the parallel engine — and
then fans one pricing job per (workload, grid point) out over the same
engine, every job re-pricing the cached trace under its own
:class:`~repro.arch.config.MachineConfigs` (phase 2).  An N-point
sweep therefore costs one recording plus N pricings per workload, and
the trace-cache hit rate during the sweep is at least
``(N - 1) / N`` per workload.

Outputs per workload: the priced grid (cycles, speedup, modelled area
from :func:`~repro.arch.area.sparsecore_area_mm2`), the Pareto front
(area vs. cycles, both minimized), and per-axis sensitivity (marginal
mean cycles per axis value, flagged ``inert`` when no value moves
them).  With the run ledger enabled the sweep leaves ``explore.point``
spans and one ``explore.sweep`` span carrying the cache totals,
surfaced by ``python -m repro obs report``.
"""

from __future__ import annotations

import tempfile
import time
from dataclasses import dataclass, field

from repro.arch.area import sparsecore_area_mm2
from repro.arch.config import get_preset
from repro.errors import ConfigError
from repro.explore.axes import GridPoint, grid_points, parse_axes
from repro.explore.pareto import pareto_flags
from repro.workloads import get_workload


@dataclass
class WorkloadSweep:
    """One workload's priced grid plus its derived summaries."""

    workload: str
    dataset: str
    scale: float
    #: one row per grid point: axis values, fingerprint, cycles, area
    rows: list[dict] = field(default_factory=list)
    #: non-dominated rows (area vs. cycles), area-ascending
    pareto: list[dict] = field(default_factory=list)
    #: per-axis marginal summaries
    sensitivity: dict = field(default_factory=dict)


@dataclass
class SweepReport:
    """Everything one ``repro explore`` invocation produced."""

    preset: str
    axes: list[dict] = field(default_factory=list)
    n_points: int = 0
    workloads: list[WorkloadSweep] = field(default_factory=list)
    #: trace-cache accounting over the whole sweep
    cache: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "preset": self.preset,
            "axes": self.axes,
            "n_points": self.n_points,
            "workloads": [{
                "workload": w.workload,
                "dataset": w.dataset,
                "scale": w.scale,
                "rows": w.rows,
                "pareto": w.pareto,
                "sensitivity": w.sensitivity,
            } for w in self.workloads],
            "cache": self.cache,
            "failures": self.failures,
            "wall_seconds": round(self.wall_seconds, 6),
        }

    def render(self) -> str:
        from repro.eval.reporting import render

        lines = [f"design-space sweep: preset {self.preset!r}, "
                 f"{self.n_points} point(s) x "
                 f"{len(self.workloads)} workload(s), "
                 f"wall {self.wall_seconds:.2f}s"]
        cache = self.cache
        if cache.get("lookups"):
            lines.append(
                f"trace cache: {cache['lookups']} lookup(s), "
                f"{cache['hits']} hit(s), {cache['misses']} recording(s) "
                f"(hit rate {cache['hit_rate']:.1%})")
        for sweep in self.workloads:
            axis_fields = [a["field"] for a in self.axes]
            lines.append("")
            lines.append(render(
                [{**{f: dict(r["values"]).get(f) for f in axis_fields},
                  "area_mm2": f"{r['area_mm2']:.4f}",
                  "sc_cycles": f"{r['sc_cycles']:.6g}",
                  "speedup": f"{r['speedup_vs_cpu']:.2f}x",
                  "pareto": "*" if r["pareto"] else ""}
                 for r in sweep.rows],
                f"{sweep.workload} @ {sweep.dataset} "
                f"(scale {sweep.scale})"))
            for axis_field, sens in sweep.sensitivity.items():
                lines.append(
                    f"  sensitivity {axis_field}: best {sens['best_value']} "
                    f"worst {sens['worst_value']} "
                    f"(max/min cycles {sens['max_over_min']:.3f})"
                    + (", inert on this workload" if sens["inert"] else ""))
        for failure in self.failures:
            lines.append(f"FAILED {failure['key']}: {failure['error']}: "
                         f"{failure['message']}")
        return "\n".join(lines)


def _sensitivity(rows: list[dict], axis_fields) -> dict:
    """Marginal mean cycles per axis value (others averaged out)."""
    out: dict = {}
    for axis_field in axis_fields:
        by_value: dict = {}
        for row in rows:
            value = dict(row["values"]).get(axis_field)
            by_value.setdefault(value, []).append(row["sc_cycles"])
        marginal = {value: sum(cycles) / len(cycles)
                    for value, cycles in by_value.items()}
        if not marginal:
            continue
        best = min(marginal, key=marginal.get)
        worst = max(marginal, key=marginal.get)
        max_over_min = (marginal[worst] / marginal[best]
                        if marginal[best] else float("inf"))
        out[axis_field] = {
            "cycles_by_value": {str(k): v for k, v in marginal.items()},
            "best_value": best,
            "worst_value": worst,
            "max_over_min": max_over_min,
            # The axis reaches the model but not this workload's cycles
            # (e.g. a FLOP cost on a key-only workload).
            "inert": max_over_min == 1.0,
        }
    return out


def run_sweep(workloads, axes, *, preset: str = "paper",
              datasets: dict | None = None, scale: float = 1.0,
              workers: int = 1, cache_dir=None) -> SweepReport:
    """Price ``workloads`` at every grid point of ``axes``.

    ``axes`` is a sequence of :class:`~repro.explore.axes.Axis` or
    ``field=values`` strings; ``datasets`` optionally maps workload
    name to dataset name (default: each spec's default dataset).
    Recording is deduplicated through the persistent trace cache — a
    private temporary cache is used when the default cache is disabled
    — and pricing fans out through :func:`repro.perf.engine`.
    """
    from repro.obs.spans import clock
    from repro.perf.cache import RunCache, default_run_cache
    from repro.perf.engine import RunJob, job_key, run_jobs_report

    axes = parse_axes([a for a in axes if isinstance(a, str)]) \
        if all(isinstance(a, str) for a in axes) else tuple(axes)
    if not axes:
        raise ConfigError("a sweep needs at least one --axis")
    base = get_preset(preset)
    points: list[GridPoint] = grid_points(axes, base)

    specs = []
    for name in workloads:
        spec = get_workload(name)
        dataset = (datasets or {}).get(spec.name)
        dspec = spec.resolve_dataset(dataset)
        eff_scale = scale if spec.dataset_kind == "graph" else 1.0
        specs.append((spec, dspec.key, eff_scale))

    led = clock()
    sweep_t0 = led.start()
    start = time.perf_counter()

    tmp = None
    cache = RunCache(cache_dir) if cache_dir is not None \
        else default_run_cache()
    if cache is None:
        # The default cache is disabled: dedup within this sweep still
        # pays (N points re-price one recording), so use a private
        # throwaway cache for the sweep's duration.
        tmp = tempfile.TemporaryDirectory(prefix="repro-explore-")
        cache = RunCache(tmp.name)
    try:
        entries_before = cache.stats()["entries"]

        # Phase 1 — record each workload once (default config; the
        # trace cache key is config-free, so every phase-2 point hits).
        record_jobs = [RunJob(spec.family, spec.app, dataset, eff_scale)
                       for spec, dataset, eff_scale in specs]
        record_report = run_jobs_report(record_jobs, workers=workers,
                                        cache_dir=cache.root)

        # Phase 2 — one pricing job per (workload, design point).
        point_jobs = []
        job_meta = {}
        for spec, dataset, eff_scale in specs:
            for point in points:
                job = RunJob(spec.family, spec.app, dataset, eff_scale,
                             config=point.config)
                point_jobs.append(job)
                job_meta[job_key(job)] = (spec, dataset, eff_scale, point)
        point_report = run_jobs_report(point_jobs, workers=workers,
                                       cache_dir=cache.root)

        entries_after = cache.stats()["entries"]
    finally:
        if tmp is not None:
            tmp.cleanup()

    lookups = len(record_jobs) + len(point_jobs)
    misses = max(0, entries_after - entries_before)
    cache_stats = {
        "lookups": lookups,
        "hits": lookups - misses,
        "misses": misses,
        "hit_rate": round((lookups - misses) / lookups, 4) if lookups
        else None,
        "root": str(cache.root) if tmp is None else "(temporary)",
    }

    report = SweepReport(
        preset=preset,
        axes=[{"field": a.field, "values": list(a.values)} for a in axes],
        n_points=len(points),
        cache=cache_stats,
    )

    for engine_report in (record_report, point_report):
        for failure in engine_report.failures:
            report.failures.append({
                "key": failure.key, "error": failure.error,
                "message": failure.message, "attempts": failure.attempts})

    for spec, dataset, eff_scale in specs:
        sweep = WorkloadSweep(workload=spec.name, dataset=dataset,
                              scale=eff_scale)
        for point in points:
            key = next(k for k, m in job_meta.items()
                       if m[0] is spec and m[3] is point)
            job_result = point_report.jobs.get(key)
            if job_result is None or not job_result.ok:
                continue
            metrics = job_result.metrics
            row = {
                "point": point.index,
                "values": [list(v) for v in point.values],
                "config_fingerprint": point.fingerprint(),
                "area_mm2": sparsecore_area_mm2(point.config.sparsecore),
                "sc_cycles": metrics["sc_cycles"],
                "cpu_cycles": metrics["cpu_cycles"],
                "speedup_vs_cpu": metrics["speedup_vs_cpu"],
                "wall_seconds": round(job_result.wall_seconds, 6),
            }
            sweep.rows.append(row)
            led.span_of("explore.point", job_result.wall_seconds,
                        workload=spec.name, dataset=dataset,
                        point=point.index, axis=point.label,
                        cfg=point.fingerprint())
        flags = pareto_flags(sweep.rows, "area_mm2", "sc_cycles")
        for row, flag in zip(sweep.rows, flags):
            row["pareto"] = flag
        sweep.pareto = sorted(
            (r for r in sweep.rows if r["pareto"]),
            key=lambda r: (r["area_mm2"], r["sc_cycles"]))
        sweep.sensitivity = _sensitivity(sweep.rows,
                                         [a.field for a in axes])
        report.workloads.append(sweep)

    report.wall_seconds = time.perf_counter() - start
    led.span("explore.sweep", sweep_t0, preset=preset,
             axes=",".join(a.field for a in axes),
             workloads=len(specs), points=len(points),
             priced=sum(len(w.rows) for w in report.workloads),
             lookups=cache_stats["lookups"], hits=cache_stats["hits"],
             misses=cache_stats["misses"],
             failures=len(report.failures))
    return report


__all__ = ["SweepReport", "WorkloadSweep", "run_sweep"]
