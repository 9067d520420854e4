"""Output checks of the repository benchmark.

Every check marks the job records it covers as failed, so the
benchmark's fail rate counts raising jobs and wrong outputs alike:

* at seed 0, each job's canonical metrics digest must equal the
  reference digest stored beside the benchmark (``reference.json``);
* every pass of a job must give the same digest (recording is
  deterministic, so passes agree bit for bit);
* nested and flat GPM variants (T/TS, 4C/4CS, 5C/5CS) on the same
  graph must count the same number of matches;
* triangle counts must equal an independent scipy count;
* every SpMSpM dataflow must give C the nnz of a scipy product, so
  the three dataflows agree with each other;
* every explore base point (the ``paper`` preset) must price
  bit-identically to the cold pipeline's metrics for that trace.

Modelled statistics are only ever compared exactly; the model has no
hardware reference here, so no simulated speed-up is reported.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Nested app -> its flat (no S_NESTINTER) twin.
NESTED_TWINS = {"triangle": "triangle-flat", "4clique": "4clique-flat",
                "5clique": "5clique-flat"}
TRIANGLE_APPS = ("triangle", "triangle-flat")
SPMSPM_DATAFLOWS = ("spmspm-inner", "spmspm-outer", "spmspm")

_NNZ = re.compile(r"nnz=(\d+)")


def digest(metrics) -> str:
    """sha256 of the key-sorted plain-JSON form of ``metrics``."""
    from repro.obs.schema import to_jsonable

    text = json.dumps(to_jsonable(metrics), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(path: Path = REFERENCE) -> dict:
    return json.loads(path.read_text()) if path.exists() else {}


def output_digests(records) -> dict[str, dict[int, str]]:
    """``{job key: {pass: digest}}`` over the successful records.

    A cold job has one record per pass; an explore job's grid points
    digest together, in grid order.
    """
    groups: dict[str, dict[int, list]] = {}
    for rec in records:
        if rec.error is None:
            groups.setdefault(rec.job.key, {}).setdefault(
                rec.pass_index, []).append(rec.metrics)
    return {key: {index: digest(outputs)
                  for index, outputs in passes.items()}
            for key, passes in groups.items()}


def scipy_triangles(graph) -> int:
    """Triangles of an undirected simple graph, counted by scipy."""
    import scipy.sparse as sp

    n = graph.num_vertices
    adj = sp.csr_matrix((np.ones(graph.indices.size, dtype=np.int64),
                         graph.indices, graph.indptr), shape=(n, n))
    return int((adj @ adj).multiply(adj).sum()) // 6


def scipy_product_nnz(matrix) -> int:
    """nnz of A @ A by scipy (values are positive: nothing cancels)."""
    import scipy.sparse as sp

    a = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr),
                      shape=matrix.shape)
    return int((a @ a).count_nonzero())


def check(workload: str, seed: int, records, *, reference=None,
          base_metrics=None) -> list[str]:
    """Run every check that applies; mark failing records.

    Returns one message per problem found.  ``reference`` maps the
    workload's record ids to digests (seed 0 only; defaults to the
    stored file); ``base_metrics`` maps explore job keys to the cold
    pipeline's metrics for that trace.
    """
    problems: list[str] = []

    def fail(recs, message):
        for rec in recs:
            rec.error = rec.error or message
        problems.append(message)

    for rec in records:
        if rec.error is not None:
            where = rec.job.key + (f" @ {rec.point}" if rec.point else "")
            problems.append(f"{where}: {rec.error}")
    done = [r for r in records if r.error is None]

    # Determinism and the seed-0 reference.
    def job_records(key):
        return [r for r in done if r.job.key == key]

    digests = output_digests(done)
    for key, by_pass in digests.items():
        if len(set(by_pass.values())) > 1:
            fail(job_records(key), f"{key}: passes disagree")
    if seed == 0:
        ref = (load_reference().get(workload, {}) if reference is None
               else reference)
        for key, by_pass in digests.items():
            if any(ref.get(key) != d for d in by_pass.values()):
                fail(job_records(key), f"{key}: metrics differ from "
                     f"reference")

    if workload == "explore-fig12":
        base_metrics = base_metrics or {}
        if seed == 0 and reference is None:
            # The recorded traces are cold-gpm runs: same reference.
            cold_ref = load_reference().get("cold-gpm", {})
            for key, metrics in base_metrics.items():
                if cold_ref.get(key) != digest([metrics]):
                    fail(job_records(key),
                         f"{key}: recorded metrics differ from reference")
        _check_base_points(done, base_metrics, fail)
        return problems

    by_pass: dict[int, dict] = {}
    for rec in done:
        by_pass.setdefault(rec.pass_index, {})[
            (rec.job.workload, rec.job.code, rec.job.scale)] = rec
    for runs in by_pass.values():
        _check_gpm(runs, fail)
        _check_spmspm(runs, fail)
    return problems


def _check_gpm(runs: dict, fail) -> None:
    from repro.graph.datasets import load_graph

    for (name, code, scale), rec in runs.items():
        twin = runs.get((NESTED_TWINS.get(name), code, scale))
        if twin is not None and \
                twin.metrics["count"] != rec.metrics["count"]:
            fail([rec, twin], f"{name}/{twin.job.workload} on {code}: "
                 f"counts {rec.metrics['count']} != "
                 f"{twin.metrics['count']}")
        if name in TRIANGLE_APPS:
            want = scipy_triangles(load_graph(rec.job.dataset, scale))
            if rec.metrics["count"] != want:
                fail([rec], f"{name} on {code}: {rec.metrics['count']} "
                     f"triangles, scipy counts {want}")


def _check_spmspm(runs: dict, fail) -> None:
    from repro.tensor.datasets import load_matrix

    for (name, code, _scale), rec in runs.items():
        if name not in SPMSPM_DATAFLOWS:
            continue
        match = _NNZ.search(rec.summary.get("C", ""))
        got = int(match.group(1)) if match else None
        want = scipy_product_nnz(load_matrix(rec.job.dataset))
        if got != want:
            fail([rec], f"{name} on {code}: nnz(C) {got}, scipy {want}")


def _check_base_points(done, base_metrics: dict, fail) -> None:
    from repro.arch.config import get_preset

    paper = get_preset("paper").sparsecore
    base_values = [[name, getattr(paper, name)]
                   for name in ("num_sus", "scache_bandwidth")]
    bases = {(r.job.key, r.pass_index) for r in done
             if r.metrics["values"] == base_values}
    for rec in done:
        if (rec.job.key, rec.pass_index) not in bases:
            fail([rec], f"{rec.job.key}: sweep has no base point")
        if rec.metrics["values"] != base_values:
            continue
        cold = base_metrics.get(rec.job.key)
        if cold is None or any(rec.metrics[k] != cold[k] for k in (
                "sc_cycles", "cpu_cycles", "speedup_vs_cpu")):
            fail([rec], f"{rec.job.key}: base point prices differently "
                 f"from the cold pipeline")


__all__ = ["REFERENCE", "check", "digest", "load_reference",
           "output_digests", "scipy_product_nnz",
           "scipy_triangles"]
