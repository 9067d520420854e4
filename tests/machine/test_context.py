"""Tests for the recording machine context."""

import numpy as np
import pytest

from repro.arch import CpuModel, SparseCoreModel
from repro.arch.trace import NO_BURST, OpKind
from repro.errors import StreamTypeFault
from repro.graph import CSRGraph
from repro.machine import Machine, StreamOperand


def keys(*xs):
    return np.array(xs, dtype=np.int64)


class TestFunctionalResults:
    def test_intersect(self):
        m = Machine()
        out = m.intersect(keys(1, 3, 7), keys(3, 7, 9))
        assert out.keys.tolist() == [3, 7]

    def test_counts(self):
        m = Machine()
        assert m.intersect_count(keys(1, 3), keys(3)) == 1
        assert m.subtract_count(keys(1, 3), keys(3)) == 1
        assert m.merge_count(keys(1, 3), keys(3)) == 2

    def test_bounded(self):
        m = Machine()
        assert m.intersect_count(keys(1, 5, 9), keys(1, 5, 9), bound=6) == 2

    def test_vinter(self):
        m = Machine()
        a = m.load_values(keys(1, 3, 7), np.array([45.0, 21.0, 13.0]))
        b = m.load_values(keys(2, 5, 7), np.array([14.0, 36.0, 2.0]))
        assert m.vinter(a, b, "MAC") == 26.0

    def test_vinter_requires_values(self):
        m = Machine()
        with pytest.raises(StreamTypeFault):
            m.vinter(m.load(keys(1)), m.load_values(keys(1), np.ones(1)))

    def test_vmerge(self):
        m = Machine()
        a = m.load_values(keys(1, 3), np.array([4.0, 21.0]))
        b = m.load_values(keys(1, 5), np.array([1.0, 36.0]))
        out = m.vmerge(2.0, a, 3.0, b)
        assert out.keys.tolist() == [1, 3, 5]
        assert out.values.tolist() == [11.0, 42.0, 108.0]

    def test_nest_intersect_counts(self):
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        m = Machine()
        # S = N(2) = [0, 1, 3]; bounded by each key.
        total = m.nest_intersect(m.neighbors(g, 2), g)
        # s=0: N(0)∩S below 0 -> 0; s=1: {0} -> 1; s=3: {} -> 0.
        assert total == 1


class TestRecording:
    def test_ops_recorded_with_kinds(self):
        m = Machine()
        m.intersect(keys(1, 2), keys(2, 3))
        m.subtract(keys(1, 2), keys(2))
        m.merge(keys(1), keys(2))
        f = m.trace.freeze()
        assert f.kind.tolist() == [OpKind.INTERSECT, OpKind.SUBTRACT,
                                   OpKind.MERGE]

    def test_memory_charged_once_per_load(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        m = Machine()
        nbr = m.neighbors(g, 1)
        m.intersect_count(nbr, nbr)
        m.intersect_count(nbr, nbr)  # second op: pending already taken
        f = m.trace.freeze()
        assert f.cpu_mem[0] > 0
        assert f.cpu_mem[1] == 0

    def test_intermediates_cost_no_memory(self):
        m = Machine()
        out = m.intersect(keys(1, 2, 3), keys(2, 3, 4))
        m.intersect_count(out, out)
        assert m.trace.freeze().cpu_mem[1] == 0.0

    def test_burst_context_manager(self):
        m = Machine()
        with m.burst():
            m.intersect_count(keys(1), keys(1))
            m.intersect_count(keys(2), keys(2))
        m.intersect_count(keys(3), keys(3))
        f = m.trace.freeze()
        assert f.burst[0] == f.burst[1] != NO_BURST
        assert f.burst[2] == NO_BURST

    def test_nested_bursts_restore(self):
        m = Machine()
        with m.burst() as outer:
            with m.burst() as inner:
                assert inner != outer
                m.intersect_count(keys(1), keys(1))
            m.intersect_count(keys(2), keys(2))
        f = m.trace.freeze()
        assert f.burst[0] == inner
        assert f.burst[1] == outer

    def test_scalar_accounting(self):
        m = Machine()
        m.scalar(10)
        m.cpu_loop(5)
        m.sc_loop(3)
        f = m.trace.freeze()
        assert f.shared_scalar_instrs >= 10
        assert f.cpu_only_scalar_instrs == 5
        assert f.sc_only_scalar_instrs == 3

    def test_length_samples(self):
        m = Machine(record_lengths=True)
        m.intersect_count(keys(1, 2, 3), keys(4))
        assert m.length_samples == [3, 1]

    def test_value_ops_take_no_length_samples(self):
        """Figure 14 samples key-op operands: S_VINTER and S_VMERGE
        record none."""
        m = Machine(record_lengths=True)
        a = StreamOperand(keys(1, 2, 3), np.ones(3))
        b = StreamOperand(keys(2, 5), np.ones(2))
        m.vinter(a, b)
        m.vmerge(1.0, a, 2.0, b)
        assert m.length_samples == []

    def test_scratchpad_priority_load(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)])
        m = Machine()
        m.neighbors(g, 1, priority=1)
        op = m.neighbors(g, 1, priority=1)  # scratchpad hit
        m.intersect_count(op, op)  # takes the second load's charge
        f = m.trace.freeze()
        assert f.sc_mem[0] == 0.0
        assert f.cpu_mem[0] > 0

    def test_reload_charges_pending(self):
        m = Machine()
        op = StreamOperand(keys(1, 2, 3), np.ones(3))
        m.reload(op, ("acc", 1))
        m.merge_count(op, keys(4))
        f = m.trace.freeze()
        assert f.cpu_mem[0] > 0
        assert f.sc_mem[0] > 0


class TestAppRunHelpers:
    def test_speedup_helper(self):
        from repro.gpm import run_app
        from repro.graph.generators import erdos_renyi_graph

        g = erdos_renyi_graph(60, 8.0, seed=2)
        run = run_app("T", g)
        cpu = run.cpu_report()
        sc = run.sparsecore_report()
        assert cpu.machine == "cpu"
        assert sc.machine == "sparsecore"
        assert run.speedup() == pytest.approx(sc.speedup_over(cpu))
        assert run.speedup() > 1.0
