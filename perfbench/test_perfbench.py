"""Self-tests of the repository benchmark (small job lists, seconds each)."""

import hashlib
import inspect
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from perfbench.checks import check, digest, load_reference, output_digests
from perfbench.hostspeed import (
    EXPONENT,
    INTERVAL_S,
    REF_S,
    HostSpeed,
    calibrate,
)
from perfbench.suite import (
    WORKLOADS,
    Bench,
    Job,
    JobRecord,
    end_to_end,
    register_seeded,
    rescaled,
    tail,
    workload_jobs,
)
from perfbench.tracing import LAYERS, Tracer, _resolve

ROOT = Path(__file__).resolve().parent.parent

#: Small cold jobs with reference digests: a nested/flat triangle pair,
#: inner-product SpMSpM and TTV.
SMALL_COLD = ("triangle:C:0.2", "triangle-flat:C:0.2",
              "spmspm-inner:CA:1.0", "ttv:Ch:1.0")
#: All three SpMSpM dataflows on one small matrix.
DATAFLOWS = ("spmspm-inner:CA:1.0", "spmspm-outer:CA:1.0", "spmspm:CA:1.0")


def small_jobs(seed, keys=SMALL_COLD):
    from repro.workloads import get_workload

    names = register_seeded(seed)
    jobs = []
    for key in keys:
        workload, code, scale = key.split(":")
        kind = get_workload(workload).dataset_kind
        jobs.append(Job(workload, code, float(scale), names[(kind, code)]))
    return jobs


def run_pass(workload, seed, jobs, tracer=None):
    with Bench(workload, seed, jobs=jobs, tracer=tracer) as bench:
        if tracer is None:
            bench.set_up()
            return bench.run_pass(), bench.base_metrics
        with tracer:
            bench.set_up()
            return bench.run_pass(), bench.base_metrics


def content_hash(seed, kind, code):
    from repro.graph.datasets import load_graph
    from repro.tensor.datasets import load_matrix, load_tensor

    key = register_seeded(seed)[(kind, code)]
    if kind == "graph":
        data = load_graph(key, 0.2)
        arrays = (data.indptr, data.indices)
    elif kind == "matrix":
        data = load_matrix(key)
        arrays = (data.indptr, data.indices, data.data)
    else:
        data = load_tensor(key)
        arrays = (data.k_ptr, data.k_keys, data.vals)
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


class TestSeededInputs:
    def test_seed_zero_registers_nothing(self):
        from repro.graph.datasets import GRAPH_REGISTRY

        before = dict(GRAPH_REGISTRY)
        names = register_seeded(0)
        assert GRAPH_REGISTRY == before
        assert names[("graph", "E")] == "email_eu_core"

    @pytest.mark.parametrize("kind,code", [("graph", "E"), ("matrix", "CA"),
                                           ("tensor", "U")])
    def test_seeds_give_different_datasets(self, kind, code):
        hashes = {seed: content_hash(seed, kind, code) for seed in (0, 1, 2)}
        assert len(set(hashes.values())) == 3
        assert content_hash(1, kind, code) == hashes[1]  # reproducible

    def test_run_cache_keys_never_alias(self):
        from repro.workloads import get_workload, run_fingerprint

        keys = []
        for seed in (0, 1, 2):
            names = register_seeded(seed)
            for workload in WORKLOADS:
                for job in workload_jobs(workload, names):
                    spec = get_workload(job.workload)
                    keys.append(run_fingerprint(
                        spec, spec.resolve_dataset(job.dataset), job.scale))
        distinct_jobs = {(seed, job.key) for seed in (0, 1, 2)
                         for workload in WORKLOADS
                         for job in workload_jobs(workload,
                                                  register_seeded(seed))}
        assert len(set(keys)) == len(distinct_jobs)


class TestChecks:
    def test_seed_zero_passes_and_matches_reference(self):
        records, _ = run_pass("cold-tensor", 0, small_jobs(0))
        assert check("cold-tensor", 0, records,
                     reference={**load_reference()["cold-gpm"],
                                **load_reference()["cold-tensor"]}) == []
        assert all(r.error is None for r in records)

    def test_planted_reference_mismatch_raises_fail_rate(self):
        records, _ = run_pass("cold-tensor", 0, small_jobs(0))
        reference = {**load_reference()["cold-gpm"],
                     **load_reference()["cold-tensor"]}
        reference["ttv:Ch:1.0"] = "0" * 64
        problems = check("cold-tensor", 0, records, reference=reference)
        failed = [r for r in records if r.error is not None]
        assert problems and [r.job.key for r in failed] == ["ttv:Ch:1.0"]

    def test_planted_count_mismatch_fails_at_any_seed(self):
        records, _ = run_pass("cold-gpm", 3, small_jobs(3)[:2])
        assert check("cold-gpm", 3, records) == []
        records[0].metrics["count"] += 1
        check("cold-gpm", 3, records)
        assert sum(r.error is not None for r in records) == 2

    def test_dataflows_agree_with_scipy_nnz(self):
        records, _ = run_pass("cold-tensor", 3, small_jobs(3, DATAFLOWS))
        assert check("cold-tensor", 3, records) == []
        records[1].summary["C"] = records[1].summary["C"].replace(
            "nnz=", "nnz=1")
        assert check("cold-tensor", 3, records)
        assert [r.error is not None for r in records] == [False, True, False]

    def test_reference_agrees_with_golden_runs(self):
        golden = json.loads(
            (ROOT / "tests" / "data" / "golden_runs.json").read_text())
        reference = load_reference()
        overlap = 0
        for entry in golden.values():
            key = (f"{entry['workload']}:{entry['dataset']}:"
                   f"{entry.get('scale', 1.0)}")
            for digests in reference.values():
                if key in digests:
                    overlap += 1
                    assert digests[key] == digest([entry["metrics"]])
        assert overlap >= 2

    def test_explore_base_point_matches_cold_pipeline(self):
        names = register_seeded(0)
        job = next(j for j in workload_jobs("explore-fig12", names)
                   if j.key.startswith("triangle:E:"))
        records, base = run_pass("explore-fig12", 0, [job])
        assert len(records) == 30
        assert check("explore-fig12", 0, records, base_metrics=base) == []
        base[job.key] = {**base[job.key],
                         "sc_cycles": base[job.key]["sc_cycles"] + 1}
        problems = check("explore-fig12", 0, records, base_metrics=base)
        assert any("base point prices differently" in p for p in problems)
        assert all(r.error is not None for r in records)

    def test_latency_figures_use_per_job_medians(self):
        jobs = [Job("ttv", "Ch", 1.0, "chicago_crime"),
                Job("ttv", "U", 1.0, "uber_pickups")]
        records = [JobRecord(job, seconds, 10, pass_index=p)
                   for p, times in enumerate(((1.0, 4.0), (3.0, 5.0),
                                              (2.0, 6.0)))
                   for job, seconds in zip(jobs, times)]
        e2e = end_to_end(records, wall=30.0, setup_s=1.0, peak_rss_mb=1.0)
        assert e2e["jobs"] == 2
        assert e2e["job_s_p50"] == 3.5 and e2e["job_s_tail"] == 5.0
        assert e2e["sim_ops_per_s"] == 2.0

    def test_tail_keeps_ten_jobs_beyond(self):
        pct, value = tail(list(range(100)))
        assert value == 89 and pct == 90.0
        assert tail([3.0, 1.0]) == (100.0, 3.0)


class TestHostSpeed:
    def _halving_host(self):
        """A sample every second; the loop runs at half speed from t=5."""
        speed = HostSpeed()
        speed.samples = [(k, k + REF_S * (1 if k < 5 else 2))
                         for k in range(11)]
        return speed

    def test_scaling_cancels_host_drift(self):
        speed = self._halving_host()
        fast, slow = (1.5, 3.5), (6.5, 8.5)
        assert speed.program(*fast) == pytest.approx(2 - 2 * REF_S)
        assert speed.program(*slow) == pytest.approx(2 - 4 * REF_S)
        assert speed.scaled(*fast) == pytest.approx(speed.program(*fast))
        assert speed.scaled(*slow) == pytest.approx(
            speed.program(*slow) / 2 ** EXPONENT)

    def test_records_keep_their_share_of_the_span(self):
        job = Job("ttv", "Ch", 1.0, "chicago_crime")
        speed = self._halving_host()
        cold = JobRecord(job, 2.0, 10, span=(6.5, 8.5))
        point = JobRecord(job, 0.5, 10, span=(1.5, 3.5))
        cold_s, point_s = (r.seconds for r in
                           rescaled([cold, point], speed.scaled))
        assert cold_s == pytest.approx(speed.scaled(6.5, 8.5))
        assert point_s == pytest.approx(speed.scaled(1.5, 3.5) / 4)
        assert cold.seconds == 2.0  # the input is left as measured

    def test_timer_samples_and_restores_the_handler(self):
        assert 0.0 < calibrate() < 1.0
        before = signal.getsignal(signal.SIGALRM)
        speed = HostSpeed()
        with speed.timer():
            speed.sample()
            stop = time.perf_counter() + 3 * INTERVAL_S
            while time.perf_counter() < stop:
                pass
            speed.sample()
        assert len(speed.samples) >= 4
        assert signal.getsignal(signal.SIGALRM) is before
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


class TestTracing:
    def _bindings(self):
        """Every current binding of every traced callable."""
        found = {}
        for layer in LAYERS:
            for target in layer.targets:
                owner, names = _resolve(target)
                for name in names:
                    found[(id(owner), name)] = vars(owner)[name]
        for name, module in list(sys.modules.items()):
            if name.startswith(("repro", "perfbench")):
                for attr, value in vars(module).items():
                    if inspect.isfunction(value) or callable(value):
                        found[(id(module), attr)] = value
        return found

    def test_wrappers_removed_and_outputs_identical(self):
        jobs = small_jobs(0, SMALL_COLD + DATAFLOWS[1:])
        plain, _ = run_pass("cold-tensor", 0, jobs)
        tracer = Tracer()
        tracer.install()
        tracer.remove()  # every repro module is imported now
        before = self._bindings()
        traced, _ = run_pass("cold-tensor", 0, jobs, tracer=tracer)
        assert self._bindings() == before
        assert output_digests(traced) == output_digests(plain)
        assert all(r.error is None for r in traced)
        metrics = tracer.layer_metrics(wall=100.0, untraced_wall=50.0)
        assert metrics["other_s"] == pytest.approx(
            100.0 - sum(metrics[layer.self_metric] for layer in LAYERS))
        for layer in ("streams.analyze", "machine", "arch.transfer",
                      "streams.ops", "gpm", "tensorops", "record.capture",
                      "record.freeze", "perf.cache_write",
                      "perf.cache_read", "workloads.price",
                      "arch.sc_model", "graph.load", "tensor.load"):
            assert tracer.acc[layer].calls > 0, layer
        assert {s["name"] for s in tracer.spans} >= {
            "job", "resolve", "record", "freeze", "price", "cache.get",
            "cache.put"}

    def test_per_layer_counts_repeat_exactly(self):
        names = register_seeded(0)
        explore = [j for j in workload_jobs("explore-fig12", names)
                   if j.key.startswith("triangle:E:")]
        counts = []
        for _ in range(2):
            tracer = Tracer()
            run_pass("cold-tensor", 0, small_jobs(0), tracer=tracer)
            run_pass("explore-fig12", 0, explore, tracer=tracer)
            counts.append({name: (acc.calls, acc.nbytes)
                           for name, acc in tracer.acc.items()})
        assert counts[0] == counts[1]
        assert counts[0]["explore"][0] == 1
        assert counts[0]["arch.config_fp"][0] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cold-gpm",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
