"""Deferred data-movement charging: the access log and its replay.

``Machine`` appends every stream load and value gather to the access
log of its :class:`~repro.arch.transfer.TransferModel`; the log is
replayed, exactly in order and one pass per LRU, whenever the trace
compacts.  These tests pin that the replay prices every access as the
per-access model does, whatever the window, and that each charge lands
on the op that consumes it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.machine.context as machine_context
from repro.arch.trace import _ARRAY_FIELDS
from repro.arch.transfer import BlockCharge, TransferModel
from repro.difftest.backends import PerAccessMachine, recording_mismatch
from repro.graph import CSRGraph
from repro.machine import Machine
from repro.record.columnar import ColumnarTrace
from repro.tensorops import spmspm_gustavson, spmspm_inner, spmspm_outer, ttm

from tests.machine.test_vinter_rows import (
    CONFIG_IDS,
    CONFIGS,
    spmspm_inputs,
    ttm_inputs,
)

# One logged access: (is a value gather, granule, bytes, priority).
# Few granules, so hits are common; sizes from 0 past the tight
# scratchpads and caches, so entries resize and overflow.
ACCESS = st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 3000),
                   st.integers(0, 2))


def _lru_contents(model):
    """Every LRU's entries, granules in recency order with their bytes."""
    granule = {ident: key for key, ident in model._ids.items()}
    lrus = (model.cpu_hierarchy._l1, model.cpu_hierarchy._l2,
            model.cpu_hierarchy._l3, model.sc_hierarchy._l2,
            model.sc_hierarchy._l3, model.scratchpad._lru)
    return [[(granule[ident], nbytes) for ident, nbytes in lru._entries.items()]
            for lru in lrus]


def _assert_same_model(model, reference):
    assert model.cpu_hierarchy.stats == reference.cpu_hierarchy.stats
    assert model.sc_hierarchy.stats == reference.sc_hierarchy.stats
    assert model.scratchpad.stats == reference.scratchpad.stats
    assert model.stream_loads == reference.stream_loads
    assert _lru_contents(model) == _lru_contents(reference)


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@settings(max_examples=40, deadline=None)
@given(log=st.lists(ACCESS, max_size=60), block=st.lists(ACCESS, max_size=20),
       at=st.integers(0, 60), window=st.integers(1, 80))
def test_resolve_matches_per_access(config, log, block, at, window):
    """A mixed log replayed in windows (with one logged block of accesses
    charged per op) costs every access what the per-access model does."""
    at = min(at, len(log))
    reference = TransferModel(config)
    expected = []
    for is_value, key, nbytes, priority in log[:at] + block + log[at:]:
        if is_value:
            cost = reference.load_values(("g", key), nbytes)
        else:
            cost = reference.load_stream(("g", key), nbytes, priority)
        expected.append((cost.cpu_cycles, cost.sc_cycles))

    model = TransferModel(config)
    charges = []
    pending = 0

    def log_one(is_value, key, nbytes, priority):
        if is_value:
            charges.append(model.load_values(("g", key), nbytes))
        else:
            charges.append(model.load_stream(("g", key), nbytes, priority))

    def maybe_resolve():
        nonlocal pending
        pending += 1
        if pending % window == 0:
            model.resolve()

    for access in log[:at]:
        log_one(*access)
        maybe_resolve()
    if block:
        # Two accesses per op; the last op may take one.
        starts = np.arange(0, len(block), 2)
        block_charge = BlockCharge(starts)
        model.log_block(
            [model.granule_id(("g", key)) for _, key, _, _ in block],
            [nbytes for _, _, nbytes, _ in block],
            [-1 if is_value else priority
             for is_value, _, _, priority in block],
            block_charge)
        maybe_resolve()
    for access in log[at:]:
        log_one(*access)
        maybe_resolve()
    model.resolve()

    got = [(charge.cpu, charge.sc) for charge in charges]
    assert got == expected[:at] + expected[at + len(block):]
    if block:
        cycles = np.array(expected[at:at + len(block)])
        assert block_charge.cpu.tolist() == np.add.reduceat(
            cycles[:, 0], starts).tolist()
        assert block_charge.sc.tolist() == np.add.reduceat(
            cycles[:, 1], starts).tolist()
    _assert_same_model(model, reference)


def test_reading_a_cost_resolves_the_log():
    """A logged load is priced when its cost is first read; the read
    resolves every access logged before it."""
    model = TransferModel()
    first = model.load_stream(("g", 0), 64, priority=1)
    again = model.load_stream(("g", 0), 64, priority=1)
    assert len(model._keys) == 2 and model.scratchpad.stats.misses == 0
    assert again.scratchpad_hit and again.sc_cycles == 0.0
    assert not model._keys
    assert first.sc == model.config.cache.dram_line_cost
    assert model.scratchpad.stats.hits == model.scratchpad.stats.misses == 1


@pytest.fixture
def compact_every(monkeypatch):
    """Make Machine record into a trace that compacts every ``n`` keys."""
    def install(n):
        monkeypatch.setattr(
            machine_context, "ColumnarTrace",
            lambda name, *, width: ColumnarTrace(name, width=width,
                                                 compact_elems=n))
    return install


def keys(*xs):
    return np.array(xs, dtype=np.int64)


def test_charge_survives_a_compaction(compact_every):
    """A charge logged before a compaction and consumed after it lands
    on the consuming op."""
    compact_every(4)
    machine = Machine()
    a = machine.load(keys(1, 2, 3), ("edges", 0, 7))
    machine.intersect_count(keys(*range(8)), keys(*range(4, 12)))
    assert machine.trace._segments  # the log was resolved and freed
    assert not machine.transfer._keys
    machine.intersect_count(a, keys(2))
    trace = machine.trace.freeze()
    config = machine.transfer.config.cache
    # A cold 24-byte granule: one line from DRAM, at demand latency on
    # the CPU and at the pipelined line cost on SparseCore.
    assert trace.cpu_mem.tolist() == [0.0, config.dram_latency]
    assert trace.sc_mem.tolist() == [0.0, config.dram_line_cost]


def test_dropped_charge_advances_the_lrus_only():
    """A charge nobody consumes still moves the LRUs but charges no op."""
    machine = Machine()
    machine.load(keys(1, 2, 3), ("edges", 0, 7))  # dropped
    a = machine.load(keys(1, 2, 3), ("edges", 0, 7))
    machine.intersect_count(a, a)
    trace = machine.trace.freeze()
    cache = machine.transfer.config.cache
    assert trace.cpu_mem.tolist() == [cache.l1_latency]  # a hit, not DRAM
    assert trace.sc_mem.tolist() == [cache.l2_line_cost]
    assert machine.transfer.cpu_hierarchy.stats.accesses == 2


def _graph():
    rng = np.random.default_rng(5)
    edges = {(int(u), int(v)) for u, v in rng.integers(0, 40, (160, 2))
             if u != v}
    return CSRGraph.from_edges(40, sorted(edges))


@pytest.mark.parametrize("use_nested", [False, True])
@pytest.mark.parametrize("n", [None, 64])
def test_gpm_batched_equals_per_access(use_nested, n, compact_every):
    from repro.gpm.compiler import compile_pattern
    from repro.gpm.pattern import tailed_triangle

    if n is not None:
        compact_every(n)
    compiled = compile_pattern(tailed_triangle(), use_nested=use_nested)
    machine, reference = Machine(), PerAccessMachine()
    assert (compiled.count(_graph(), machine)
            == compiled.count(_graph(), reference))
    assert recording_mismatch(machine, reference) is None
    assert machine.trace.freeze().cpu_mem.sum() > 0


@pytest.mark.parametrize("kernel,inputs", [
    (spmspm_inner, spmspm_inputs), (spmspm_outer, spmspm_inputs),
    (spmspm_gustavson, spmspm_inputs), (ttm, ttm_inputs)])
@pytest.mark.parametrize("n", [None, 32])
def test_tensor_batched_equals_per_access(kernel, inputs, n, compact_every):
    if n is not None:
        compact_every(n)
    a, b = inputs(4, 0.5)
    machine, reference = Machine(), PerAccessMachine()
    kernel(a, b, machine)
    kernel(a, b, reference)
    assert recording_mismatch(machine, reference) is None
    trace = machine.trace.freeze()
    assert trace.num_ops > 0 and trace.sc_mem.sum() > 0
    for name in _ARRAY_FIELDS:
        assert (getattr(trace, name).tobytes()
                == getattr(reference.trace.freeze(), name).tobytes())
