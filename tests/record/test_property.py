"""Property tests: the deferred trace freezes byte-for-byte like the eager one.

Hypothesis generates small op sequences (every op kind, optional
bounds, burst ids, nesting, memory charges) and feeds each to an eager
:class:`~repro.arch.trace.Trace` (per-op
:func:`~repro.streams.runstats.analyze_pair`) and to a
:class:`~repro.record.columnar.ColumnarTrace` (batched
:func:`~repro.record.columnar.analyze_segments`) with a small
``compact_elems``, so compactions land mid-sequence.  The frozen
traces must serialize to byte-identical payloads and, when written
through :class:`~repro.perf.cache.RunCache`, to sidecars with the same
``payload_sha256``.  Explicit edge cases (empty trace, single op) ride
along as plain tests so they stay covered whatever seed Hypothesis
picks.
"""

import io
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.trace import NO_BURST, OpKind, Trace
from repro.perf.cache import RunCache
from repro.record.columnar import COMPACT_ELEMS, ColumnarTrace
from repro.streams.runstats import UNBOUNDED, analyze_pair

_KEYS = st.lists(st.integers(min_value=0, max_value=300),
                 min_size=0, max_size=40)
_OP = st.tuples(
    st.sampled_from(list(OpKind)),
    _KEYS,
    _KEYS,
    st.one_of(st.just(UNBOUNDED), st.integers(min_value=1, max_value=300)),
    st.sampled_from([NO_BURST, 1, 2, 3]),
    st.booleans(),
)
_PROGRAM = st.lists(_OP, min_size=0, max_size=12)
_COMPACT = st.integers(min_value=1, max_value=64)


def _as_keys(values):
    return np.unique(np.asarray(values, dtype=np.int64))


def _record(program, compact_elems=COMPACT_ELEMS):
    """Feed ``program`` to both traces; return ``(eager, deferred)``."""
    eager = Trace("prop")
    deferred = ColumnarTrace("prop", compact_elems=compact_elems)
    for i, (kind, a_vals, b_vals, bound, burst, nested) in \
            enumerate(program):
        a, b = _as_keys(a_vals), _as_keys(b_vals)
        charges = dict(burst=burst, nested=nested, cpu_mem=0.5 * i,
                       sc_mem=0.25 * i, flop_pairs=i)
        eager.add_op(kind, analyze_pair(a, b, bound), **charges)
        deferred.add_op_keys(kind, a, b, bound, **charges)
        for trace in (eager, deferred):
            trace.add_scalar(4)
            trace.add_cpu_scalar(i)
    return eager, deferred


def _payload(trace):
    buf = io.BytesIO()
    trace.freeze().save(buf)
    return buf.getvalue()


def _sidecar_sha(tmp_path, name, trace):
    cache = RunCache(tmp_path / name)
    assert cache.put(f"prop-{name}", trace.freeze(), {})
    sidecar = json.loads(
        (tmp_path / name / f"prop-{name}.json").read_text())
    return sidecar["payload_sha256"]


@settings(max_examples=60, deadline=None)
@given(program=_PROGRAM, compact_elems=_COMPACT)
def test_traces_freeze_byte_identical(program, compact_elems):
    eager, deferred = _record(program, compact_elems)
    assert deferred.num_ops == eager.num_ops
    assert _payload(eager) == _payload(deferred)


@settings(max_examples=15, deadline=None)
@given(program=_PROGRAM, compact_elems=_COMPACT)
def test_cache_sidecar_sha_matches(program, compact_elems,
                                   tmp_path_factory):
    tmp = tmp_path_factory.mktemp("prop-cache")
    eager, deferred = _record(program, compact_elems)
    assert _sidecar_sha(tmp, "eager", eager) \
        == _sidecar_sha(tmp, "deferred", deferred)


def test_empty_trace_edge_case(tmp_path):
    eager, deferred = _record([])
    assert deferred.num_ops == 0
    assert _payload(eager) == _payload(deferred)
    assert _sidecar_sha(tmp_path, "eager", eager) \
        == _sidecar_sha(tmp_path, "deferred", deferred)


def test_single_op_edge_case(tmp_path):
    program = [(OpKind.INTERSECT, [1, 2, 3], [2, 3, 4], UNBOUNDED,
                NO_BURST, False)]
    eager, deferred = _record(program)
    assert deferred.num_ops == eager.num_ops == 1
    assert _payload(eager) == _payload(deferred)
    assert _sidecar_sha(tmp_path, "eager", eager) \
        == _sidecar_sha(tmp_path, "deferred", deferred)
