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
    """The eager reference trace behind Machine's ``add_op_keys`` and
    ``add_op_block`` calls: it resolves the machine's access log before
    every op, so each op's charges are summed as it is recorded."""

    __slots__ = ("_width", "resolve_charges")

    def __init__(self, name="trace", *, width):
        super().__init__(name)
        self._width = width
        self.resolve_charges = None

    def add_op_keys(self, kind, a_keys, b_keys, bound=UNBOUNDED, *,
                    cpu_mem=0.0, sc_mem=0.0, charges=(), **rest):
        self.resolve_charges()
        for charge in charges:
            cpu_mem += charge.cpu
            sc_mem += charge.sc
        self.add_op(kind, analyze_pair(a_keys, b_keys, bound,
                                       width=self._width),
                    cpu_mem=cpu_mem, sc_mem=sc_mem, **rest)

    def add_op_block(self, kind, a_keys, b_keys, b_sizes, *, burst,
                     flop_pairs, charge, lead=()):
        self.resolve_charges()
        end = 0
        for i, (size, flops) in enumerate(zip(b_sizes.tolist(),
                                              flop_pairs.tolist())):
            self.add_op_keys(kind, a_keys, b_keys[end:end + size],
                             burst=burst, flop_pairs=flops,
                             cpu_mem=float(charge.cpu[i]),
                             sc_mem=float(charge.sc[i]),
                             charges=lead if i == 0 else ())
            end += size


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
