"""Batched ``Machine.vinter_rows`` against the per-row reference.

:class:`~repro.difftest.backends.PerRowMachine` keeps the per-row
``load_values`` + ``Machine.vinter`` loop that inner-product SpMSpM and
TTM issued before the batched value intersection.  Both machines run
the same kernel on the same inputs and must agree on everything the run
leaves behind: the frozen trace byte for byte, the data-movement
statistics, the output values bit for bit, and every counter and tracer
event of a probed run.
"""

import numpy as np
import pytest

from repro.arch.config import CacheConfig, SparseCoreConfig
from repro.arch.trace import _ARRAY_FIELDS, _SCALAR_FIELDS
from repro.arch.transfer import TransferModel
from repro.difftest.backends import PerRowMachine
from repro.machine import Machine
from repro.obs.counters import Counters
from repro.obs.probe import Probe
from repro.tensor import CSFTensor, SparseMatrix
from repro.tensorops import spmspm_inner, ttm


def tight(size):
    """Scratchpad and caches near the operands' working set, so that
    LRU recency (the order the charges are taken in) decides hits."""
    return SparseCoreConfig(
        scratchpad_bytes=size,
        cache=CacheConfig(l1d_bytes=size, l2_bytes=2 * size,
                          l3_bytes=4 * size))


CONFIGS = [None] + [tight(size) for size in (128, 256, 384, 1024)]
CONFIG_IDS = ["default", "tight128", "tight256", "tight384", "tight1024"]


def random_matrix(m, n, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((m, n)) < density) * rng.standard_normal((m, n))
    dense[rng.random(m) < 0.2] = 0.0  # empty rows
    dense[:, rng.random(n) < 0.2] = 0.0  # empty columns
    return SparseMatrix.from_dense(dense)


def random_tensor(shape, density, seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random(shape) < density) * rng.standard_normal(shape)
    coords = np.argwhere(dense != 0.0).astype(np.int64)
    return CSFTensor.from_coo(shape, coords, dense[dense != 0.0])


def run(machine_cls, kernel, a, b, config, probe=None):
    machine = machine_cls(name="equiv", probe=probe)
    if config is not None:
        machine.transfer = TransferModel(config, machine.obs.counters)
    return machine, kernel(a, b, machine)


def assert_same_run(batched, reference):
    (m1, out1), (m2, out2) = batched, reference
    t1, t2 = m1.trace.freeze(), m2.trace.freeze()
    assert t1.num_ops == t2.num_ops > 0
    for name in _ARRAY_FIELDS:
        c1, c2 = getattr(t1, name), getattr(t2, name)
        assert c1.dtype == c2.dtype, name
        assert c1.tobytes() == c2.tobytes(), name
    for name in _SCALAR_FIELDS:
        assert getattr(t1, name) == getattr(t2, name), name
    x1, x2 = m1.transfer, m2.transfer
    assert x1.cpu_hierarchy.stats == x2.cpu_hierarchy.stats
    assert x1.sc_hierarchy.stats == x2.sc_hierarchy.stats
    assert x1.scratchpad.stats == x2.scratchpad.stats
    assert x1.stream_loads == x2.stream_loads
    for name in out1.__slots__:
        v1, v2 = getattr(out1, name), getattr(out2, name)
        if isinstance(v1, np.ndarray):
            assert v1.dtype == v2.dtype, name
            assert v1.tobytes() == v2.tobytes(), name
        else:
            assert v1 == v2, name


def spmspm_inputs(seed, density):
    return (random_matrix(9, 14, density, seed),
            random_matrix(14, 11, density, seed + 1))


def ttm_inputs(seed, density):
    return (random_tensor((4, 5, 13), density, seed),
            random_matrix(7, 13, density, seed + 1))


CASES = [(kernel, inputs, seed, density)
         for kernel, inputs in ((spmspm_inner, spmspm_inputs),
                                (ttm, ttm_inputs))
         for seed in (0, 1)
         for density in (0.15, 0.6)]
IDS = [f"{k.__name__}-s{s}-d{d}" for k, _, s, d in CASES]


@pytest.mark.parametrize("config", CONFIGS, ids=CONFIG_IDS)
@pytest.mark.parametrize("kernel,inputs,seed,density", CASES, ids=IDS)
def test_trace_stats_and_values_match(kernel, inputs, seed, density,
                                      config):
    a, b = inputs(seed, density)
    assert_same_run(run(Machine, kernel, a, b, config),
                    run(PerRowMachine, kernel, a, b, config))


@pytest.mark.parametrize("kernel,inputs,seed,density", CASES, ids=IDS)
def test_probed_counters_and_events_match(kernel, inputs, seed, density):
    a, b = inputs(seed, density)
    config = tight(256)
    batched = run(Machine, kernel, a, b, config, Probe.collecting())
    reference = run(PerRowMachine, kernel, a, b, config,
                    Probe.collecting())
    assert_same_run(batched, reference)
    p1, p2 = batched[0].obs, reference[0].obs
    assert p1.counters.flat() == p2.counters.flat()
    assert p1.counters.get("machine.ops.vinter") > 0
    assert p1.tracer.events == p2.tracer.events


def test_counters_only_probe_matches():
    a, b = spmspm_inputs(3, 0.4)
    batched = run(Machine, spmspm_inner, a, b, None,
                  Probe(counters=Counters()))
    reference = run(PerRowMachine, spmspm_inner, a, b, None,
                    Probe(counters=Counters()))
    assert_same_run(batched, reference)
    assert (batched[0].obs.counters.flat()
            == reference[0].obs.counters.flat())


def test_no_rows_leaves_pending_charges():
    """With no non-empty row nothing is issued, so the stream's load
    charge stays pending, as in the per-row loop: the next op that
    consumes the stream carries it."""
    def first_op_charges(call_vinter_rows):
        machine = Machine()
        a = machine.load_values(np.array([1, 2], dtype=np.int64),
                                np.array([1.0, 2.0]), ("arow", 0, 0))
        if call_vinter_rows:
            empty = SparseMatrix.from_dense(np.zeros((3, 4)))
            row_ids, values = machine.vinter_rows(a, empty, ("bcol", 0))
            assert row_ids.size == values.size == 0
            assert machine.trace.num_ops == 0
        machine.intersect_count(a, np.array([2], dtype=np.int64))
        trace = machine.trace.freeze()
        return trace.cpu_mem[0], trace.sc_mem[0]

    charged = first_op_charges(True)
    assert charged == first_op_charges(False)
    assert charged[0] > 0 and charged[1] > 0
