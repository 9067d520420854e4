"""Golden drift checks for the unified run pipeline.

The fixtures under tests/data/ were captured from the pre-refactor
per-layer code paths; these tests pin the registry-driven pipeline to
those outputs bit-for-bit.  Both sides go through a JSON round-trip so
numpy arrays become lists and integer dict keys (the sweep tables)
become strings, exactly as the goldens were serialized.

The metrics and profile checks run under each recording trace
(``trace_kind``): ``None`` leaves :class:`~repro.machine.context.Machine`
as it ships; ``"columnar"`` gives it a
:class:`~repro.record.columnar.ColumnarTrace` that compacts every few
hundred elements, so the goldens also cover many-segment freezes; and
``"rows"`` gives it the eager :class:`~repro.arch.trace.Trace`, analysing
each op with :func:`~repro.streams.runstats.analyze_pair`.  A deviation
of one trace from the goldens is a recording bug, not drift.
"""

import json
from pathlib import Path

import numpy as np
import pytest

import repro.machine.context as machine_context
from repro.arch.trace import Trace
from repro.obs.profile import ProfileArgs, profile_workload
from repro.perf.engine import figure_suite_jobs, job_key
from repro.record.columnar import ColumnarTrace
from repro.streams.runstats import UNBOUNDED, analyze_pair
from repro.workloads import get_workload, run_workload

DATA = Path(__file__).resolve().parent.parent / "data"


def _canon(x):
    if isinstance(x, dict):
        return {k: _canon(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_canon(v) for v in x]
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, np.generic):
        return x.item()
    return x


def _roundtrip(x):
    return json.loads(json.dumps(_canon(x), sort_keys=True))


def _golden(name):
    return json.loads((DATA / name).read_text())


class _EagerTrace(Trace):
    """The eager reference trace behind Machine's ``add_op_keys`` call."""

    __slots__ = ("_width",)

    def __init__(self, name="trace", *, width):
        super().__init__(name)
        self._width = width

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED,
                    **charges):
        self.add_op(kind, analyze_pair(a_keys, b_keys, bound,
                                       width=self._width), **charges)


def _small_compact_trace(name="trace", *, width):
    return ColumnarTrace(name, width=width, compact_elems=256)


_TRACES = {"rows": _EagerTrace, "columnar": _small_compact_trace}


@pytest.fixture
def trace_kind(request, monkeypatch):
    """Record through the trace named by the parameter (None: as shipped)."""
    kind = request.param
    if kind is not None:
        monkeypatch.setattr(machine_context, "ColumnarTrace", _TRACES[kind])
    return kind


class TestRunMetricsGolden:
    @pytest.mark.parametrize("trace_kind", ["rows", "columnar"],
                             indirect=True)
    @pytest.mark.parametrize("family", ["gpm", "spmspm", "tensor", "ttm"])
    def test_metrics_unchanged(self, family, trace_kind):
        entry = _golden("golden_runs.json")[family]
        spec = get_workload(entry["workload"])
        rec = run_workload(spec, entry["dataset"],
                           entry.get("scale", 1.0), cache=None)
        assert _roundtrip(rec.metrics) == entry["metrics"]


class TestSuiteJobsGolden:
    def test_full_job_keys_unchanged(self):
        golden = _golden("golden_suite_jobs.json")
        keys = sorted(job_key(j) for j in figure_suite_jobs(1.0))
        assert keys == sorted(golden["full"])

    def test_smoke_job_keys_unchanged(self):
        golden = _golden("golden_suite_jobs.json")
        keys = sorted(job_key(j) for j in figure_suite_jobs(smoke=True))
        assert keys == sorted(golden["smoke"])


class TestProfileGolden:
    @pytest.mark.parametrize("trace_kind", [None, "rows", "columnar"],
                             indirect=True)
    def test_triangle_profile_unchanged(self, trace_kind):
        golden = _golden("golden_profile_triangle.json")
        result = profile_workload("triangle", ProfileArgs(scale=0.3))
        payload = result.to_json()
        payload.pop("wall_seconds", None)
        golden.pop("wall_seconds", None)
        assert _roundtrip(payload) == _roundtrip(golden)
