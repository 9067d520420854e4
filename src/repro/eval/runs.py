"""Shared run collection with two-level caching.

One kernel run feeds many figures (speedups, breakdowns, SU/bandwidth
sweeps, accelerator comparisons, stream-length CDFs), so each
(workload, dataset, scale) is executed once; everything any figure
needs is computed while the trace is alive.  Recording and pricing
live in the unified pipeline (:mod:`repro.workloads`); this module
adds the two cache levels in front of it:

* an in-process **bounded LRU** of finished metrics dicts (capacity via
  ``REPRO_RUN_CACHE_ENTRIES``, default 256) — repeated figure calls in
  one process stay O(1);
* the **persistent disk cache** (:mod:`repro.perf.cache`): recorded
  traces survive across processes, so a warm ``bench_fig*`` suite only
  re-*prices* traces under the current cost models instead of
  re-recording them.  Metrics are always recomputed from the trace, so
  cost-model changes never serve stale numbers.

``clear_run_cache()`` clears both levels.  The ``compute_*`` functions
are the process-safe entry points the parallel engine
(:mod:`repro.perf.engine`) fans out over.
"""

from __future__ import annotations

from repro.perf.cache import LRUCache, default_run_cache, mem_cache_capacity
from repro.workloads import run_workload, workload_for_app
from repro.workloads.pricing import _APP_PATTERNS  # noqa: F401 (re-export)
from repro.workloads.pricing import BW_SWEEP, SU_SWEEP  # noqa: F401

#: In-process metrics LRU (bounded; shared by GPM and tensor paths).
_CACHE = LRUCache(mem_cache_capacity())


def clear_run_cache(disk: bool = True) -> None:
    """Clear the in-memory metrics LRU and (by default) the disk cache."""
    _CACHE.clear()
    if disk:
        cache = default_run_cache()
        if cache is not None:
            cache.clear()


# ---------------------------------------------------------------------------
# Pipeline wrappers (one per family, plus the unified entry)
# ---------------------------------------------------------------------------


def compute_workload_metrics(workload, dataset: str | None = None,
                             scale: float = 1.0, *, cache=None,
                             probe=None, config=None) -> dict:
    """Disk-cache-aware metrics for any registered workload.

    The process-safe unified entry point: resolves the workload (by
    name or spec), runs the shared pipeline, and returns its metrics
    dict.  On a cache hit only the stored trace is re-priced; the
    per-op recording simulation is skipped entirely.  ``probe`` (a
    :class:`~repro.obs.probe.Probe`) observes cold recordings — cached
    runs execute nothing, so they contribute no counters.  ``config``
    (a :class:`~repro.arch.config.MachineConfigs`) selects the machine
    pair the run is priced under; traces cache config-free.
    """
    return run_workload(workload, dataset, scale,
                        cache=cache, probe=probe, config=config).metrics


def compute_gpm_metrics(app: str, graph_name: str, scale: float = 1.0, *,
                        cache=None, probe=None, config=None) -> dict:
    """GPM metrics by app code (thin wrapper over the pipeline)."""
    return compute_workload_metrics(workload_for_app("gpm", app),
                                    graph_name, scale,
                                    cache=cache, probe=probe, config=config)


def compute_spmspm_metrics(matrix_name: str, dataflow: str, *,
                           cache=None, probe=None, config=None) -> dict:
    """SpMSpM (C = A x A) metrics for one matrix/dataflow pair."""
    return compute_workload_metrics(workload_for_app("spmspm", dataflow),
                                    matrix_name, cache=cache, probe=probe,
                                    config=config)


def compute_tensor_metrics(tensor_name: str, kernel: str, *,
                           cache=None, probe=None, config=None) -> dict:
    """TTV/TTM metrics for one CSF tensor (Figure 15(b))."""
    if kernel not in ("ttv", "ttm"):
        raise ValueError(f"unknown tensor kernel {kernel!r}")
    return compute_workload_metrics(workload_for_app("tensor", kernel),
                                    tensor_name, cache=cache, probe=probe,
                                    config=config)


# ---------------------------------------------------------------------------
# In-process memoized variants (what the figure functions call)
# ---------------------------------------------------------------------------


def _config_tag(config) -> str:
    """Memo-key component for the pricing config (fingerprinted).

    The *priced-result* identity includes the machine configuration —
    two design points must never share a metrics entry — while the
    trace disk cache stays config-free (one recording, many pricings).
    """
    return "default" if config is None else config.fingerprint()


def _memoized(memo_key: tuple, workload, dataset: str,
              scale: float = 1.0, config=None) -> dict:
    memo_key = memo_key + (_config_tag(config),)
    hit = _CACHE.get(memo_key)
    if hit is not None:
        return hit
    metrics = compute_workload_metrics(workload, dataset, scale,
                                       cache=default_run_cache(),
                                       config=config)
    _CACHE.put(memo_key, metrics)
    return metrics


def gpm_metrics(app: str, graph_name: str, scale: float = 1.0,
                config=None) -> dict:
    """All per-run metrics any figure needs, computed once and cached."""
    from repro.graph.datasets import resolve

    key = ("gpm", app, resolve(graph_name).key, scale)
    return _memoized(key, workload_for_app("gpm", app), graph_name, scale,
                     config)


def spmspm_metrics(matrix_name: str, dataflow: str, config=None) -> dict:
    """LRU + disk-cached :func:`compute_spmspm_metrics`."""
    return _memoized(("spmspm", matrix_name, dataflow),
                     workload_for_app("spmspm", dataflow), matrix_name,
                     config=config)


def tensor_metrics(tensor_name: str, kernel: str, config=None) -> dict:
    """LRU + disk-cached :func:`compute_tensor_metrics`."""
    return _memoized(("tensor", tensor_name, kernel),
                     workload_for_app("tensor", kernel), tensor_name,
                     config=config)
