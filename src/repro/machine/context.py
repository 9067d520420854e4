"""The recording machine context.

:class:`Machine` exposes the stream ISA at function-call granularity:
``load``/``load_values`` stand in for ``S_READ``/``S_VREAD``,
``intersect``/``subtract``/``merge`` (and ``*_count``) for the compute
instructions, ``vinter``/``vmerge`` for the value instructions, and
``nest_intersect`` for ``S_NESTINTER``.  Each call returns the
functional result and appends one record to the trace.  Stream loads
and value gathers are appended, in the order the data would move, to
the access log of the paired CPU/SparseCore data-movement model, and
the first op that consumes a loaded stream carries its charge; the log
is replayed in batches whenever the trace compacts.  ``vinter_rows``
records one ``S_VREAD`` + ``S_VINTER`` per row of a CSR matrix in a
single call.

Kernels annotate structure the hardware exploits:

* ``priority=1`` streams are scratchpad candidates (compiler-assigned
  stream priority, Section 4.2),
* ``with machine.burst():`` brackets independent operations (what the
  nested-intersection translator exposes to the SUs, Section 4.6),
* ``cpu_loop``/``sc_loop``/``scalar`` record the surrounding scalar
  instructions each machine executes.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.arch.config import default_configs
from repro.arch.trace import NO_BURST, OpKind, su_cycles_for
from repro.arch.transfer import VALUE_GATHER, BlockCharge, TransferModel
from repro.errors import StreamTypeFault
from repro.obs.probe import NULL_PROBE, Probe
from repro.record.columnar import ColumnarTrace
from repro.streams import ops
from repro.streams.runstats import (
    SU_BUFFER_WIDTH,
    UNBOUNDED,
    analyze_pair,
    truncate_bound,
)
from repro.streams.stream import KEY_BYTES

_VALUE_BYTES = 8

#: Scalar instructions the CPU's explicit inner loop needs per nested
#: sub-intersection (loop bookkeeping, bounds check, address generation)
#: that S_NESTINTER eliminates (Section 6.3.2).
CPU_NESTED_LOOP_INSTRS = 8

#: Scalar instructions both machines spend setting up one stream op
#: (operand addresses, call overhead of the generated code).
OP_SETUP_INSTRS = 4

_VALUE_OPS = (OpKind.VINTER, OpKind.VMERGE)


@dataclass(slots=True)
class StreamOperand:
    """A stream as seen by a kernel: data plus movement bookkeeping."""

    keys: np.ndarray
    values: np.ndarray | None = None
    #: reuse-model identity of the value data (None for intermediates)
    vgranule: tuple | None = None
    #: costs (:class:`~repro.arch.transfer.StreamLoadCost`) of the
    #: loads that produced this operand, taken by the first op that
    #: consumes it
    charges: tuple = ()

    def __len__(self) -> int:
        return int(self.keys.size)

    @property
    def has_values(self) -> bool:
        return self.values is not None


def _charged(charges) -> tuple[float, float]:
    """Total CPU and SparseCore cycles of the load costs ``charges``."""
    cpu_mem = sc_mem = 0.0
    for charge in charges:
        cpu_mem += charge.cpu_cycles
        sc_mem += charge.sc_cycles
    return cpu_mem, sc_mem


@dataclass
class AppRun:
    """Result of running one application kernel on the machine."""

    name: str
    result: object
    trace: ColumnarTrace
    machine: "Machine"

    @property
    def count(self) -> int:
        return int(self.result)  # type: ignore[arg-type]

    def cpu_report(self, config=None):
        """Cost this run's trace on the baseline CPU model."""
        from repro.arch.cpu import CpuModel

        return CpuModel(config).cost(self.trace)

    def sparsecore_report(self, config=None):
        """Cost this run's trace on the SparseCore model."""
        from repro.arch.sparsecore import SparseCoreModel

        return SparseCoreModel(config).cost(self.trace)

    def speedup(self, config=None) -> float:
        """SparseCore speedup over the CPU baseline on this run."""
        return self.sparsecore_report(config).speedup_over(self.cpu_report())


class Machine:
    """Recording machine: functional results + cost trace.

    Recording reads no configuration: the SU walk width and the memory
    hierarchy are the ``paper`` preset's, so a trace depends on the
    workload, its dataset and the scale only."""

    __slots__ = ("obs", "trace", "_transfer", "_burst",
                 "record_lengths", "length_samples", "_clock", "_add_op",
                 "_append_length")

    def __init__(self, name: str = "run", record_lengths: bool = False,
                 probe: Probe | None = None):
        self.obs = probe or NULL_PROBE
        self.trace = ColumnarTrace(name, width=SU_BUFFER_WIDTH)
        self.transfer = TransferModel(counters=self.obs.counters)
        self._burst = NO_BURST
        self.record_lengths = record_lengths
        #: operand-length samples for the Figure 14 CDFs
        self.length_samples: list[int] = []
        #: tracer time axis: a sequential model-cycle clock (ops advance
        #: it by their SU time, stalls by their charged cycles)
        self._clock = 0.0
        # Pre-bound hot-path methods: one op records through a single
        # bound-method call, not repeated attribute chases.  Analysis
        # is deferred: the trace takes key arrays, not OpStats.
        self._add_op = self.trace.add_op_keys
        self._append_length = self.length_samples.append

    @property
    def transfer(self) -> TransferModel:
        """The data-movement model whose access log the loads append
        to; the trace replays it before every compaction."""
        return self._transfer

    @transfer.setter
    def transfer(self, model: TransferModel) -> None:
        self._transfer = model
        self.trace.resolve_charges = model.resolve

    # -- stream initialization (S_READ / S_VREAD) -----------------------------

    def load(self, keys: np.ndarray, granule: tuple | None = None,
             priority: int = 0) -> StreamOperand:
        """Initialize a key stream from memory (``S_READ``).

        ``granule`` identifies the memory region for reuse modelling
        (e.g. ``("edges", graph_id, v)``); ``None`` marks data already
        on-chip (an intermediate result)."""
        if granule is None:
            return StreamOperand(keys)
        nbytes = keys.size * KEY_BYTES
        cost = self._transfer.load_stream(granule, nbytes, priority)
        if self.obs.enabled:
            self._observe_load(granule, nbytes, cost.scratchpad_hit)
        return StreamOperand(keys, charges=(cost,))

    def load_values(self, keys: np.ndarray, values: np.ndarray,
                    granule: tuple | None = None,
                    priority: int = 0) -> StreamOperand:
        """Initialize a (key,value) stream (``S_VREAD``); values move
        through the normal hierarchy at compute time."""
        operand = self.load(keys, granule, priority)
        operand.values = values
        if granule is not None:
            operand.vgranule = ("vals",) + granule
        return operand

    def neighbors(self, graph, v: int, priority: int = 0) -> StreamOperand:
        """Load vertex ``v``'s edge list as a stream."""
        return self.load(graph.neighbors(v), ("edges", id(graph), v),
                         priority)

    def reload(self, operand: StreamOperand, granule: tuple,
               priority: int = 0) -> StreamOperand:
        """Charge re-fetching an intermediate that spilled off-chip.

        Used when generated code revisits a previously produced stream
        after touching many others in between (e.g. the outer-product
        dataflow cycling through all of C's row accumulators per k);
        the LRU decides whether the data actually left the hierarchy.
        The charge adds to any the operand already has pending."""
        nbytes = operand.keys.size * KEY_BYTES
        if operand.values is not None:
            nbytes += operand.values.size * _VALUE_BYTES
        operand.charges += (self._transfer.load_stream(granule, nbytes,
                                                       priority),)
        return operand

    # -- bursts ----------------------------------------------------------------

    @contextlib.contextmanager
    def burst(self) -> Iterator[int]:
        """Bracket independent operations (SU-parallel work)."""
        prev = self._burst
        self._burst = self.trace.new_burst()
        burst_id = self._burst
        start_clock = self._clock
        start_ops = self.trace.num_ops
        try:
            yield self._burst
        finally:
            self._burst = prev
            if self.obs.enabled:
                if self.obs.counters.enabled:
                    self.obs.counters.inc("machine.bursts")
                tracer = self.obs.tracer
                if tracer.enabled and self.trace.num_ops > start_ops:
                    tracer.span(f"burst {burst_id}", "burst", start_clock,
                                self._clock - start_clock, tid=2,
                                ops=self.trace.num_ops - start_ops)

    # -- scalar accounting -------------------------------------------------------

    def scalar(self, n: int) -> None:
        self.trace.add_scalar(n)

    def cpu_loop(self, n: int) -> None:
        self.trace.add_cpu_scalar(n)

    def sc_loop(self, n: int) -> None:
        self.trace.add_sc_scalar(n)

    # -- observability -----------------------------------------------------------

    def _observe_load(self, granule: tuple, nbytes: int,
                      scratchpad_hit: bool) -> None:
        """Count and trace one memory-backed stream load (``S_READ``)."""
        counters = self.obs.counters
        if counters.enabled:
            counters.inc("machine.stream_loads")
            counters.add("machine.stream_bytes", nbytes)
        tracer = self.obs.tracer
        if tracer.enabled:
            tracer.instant("fetch " + granule[0], "fetch", self._clock,
                           tid=1, granule=repr(granule), bytes=nbytes,
                           scratchpad_hit=scratchpad_hit)

    def _observe_op(self, kind: OpKind, stats, *, nested: bool = False,
                    cpu_mem: float = 0.0, sc_mem: float = 0.0,
                    flop_pairs: int = 0) -> None:
        """Count and trace one recorded stream operation.

        Called only when ``self.obs.enabled`` — a run without a probe
        pays a single attribute check per op.
        """
        su = su_cycles_for(kind, stats)
        name = kind.name.lower()
        counters = self.obs.counters
        if counters.enabled:
            counters.inc(f"machine.ops.{name}")
            if nested:
                counters.inc("machine.ops.nested")
            counters.add("su.busy_cycles", su)
            counters.add("machine.matches", stats.n_matches)
            counters.add("machine.eff_elems", stats.eff_a + stats.eff_b)
            if sc_mem:
                counters.add("machine.sc_stall_cycles", sc_mem)
            if cpu_mem:
                counters.add("machine.cpu_stall_cycles", cpu_mem)
            if flop_pairs:
                counters.add("svpu.flop_pairs", flop_pairs)
                counters.add("svpu.value_loads", 1)
        tracer = self.obs.tracer
        if tracer.enabled:
            # SVPU FLOPs overlap the SU key walk (Section 4.5): the
            # span covers whichever side dominates, as the model does
            # under the paper preset.
            flop_cycles = default_configs().sparsecore.flop_cycles_per_pair
            dur = max(su, flop_pairs * flop_cycles)
            tracer.span(name, "su", self._clock, dur, tid=0,
                        burst=self._burst, matches=stats.n_matches,
                        eff_elems=stats.eff_a + stats.eff_b)
            if sc_mem > 0:
                tracer.span("stall", "stall", self._clock + dur, sc_mem,
                            tid=1, cycles=sc_mem)
            self._clock += dur + sc_mem
        else:
            self._clock += su + sc_mem

    # -- compute ops -------------------------------------------------------------

    def _coerce(self, s) -> StreamOperand:
        if isinstance(s, StreamOperand):
            return s
        return StreamOperand(np.asarray(s, dtype=np.int64))

    def _record(self, kind: OpKind, a, b, bound: int, *,
                flop_pairs: int = 0,
                gathers: tuple = ()) -> tuple[np.ndarray, np.ndarray]:
        """Record one op by reference, charged with both operands'
        pending charges and ``gathers`` (its own value gathers); its
        analysis is deferred to the trace's batch pass, so count ops
        take their lengths from the functional kernels.  Returns the
        operands' effective (bound-truncated) keys, which the kernel
        then takes unbounded, so each operand is truncated once."""
        a, b = self._coerce(a), self._coerce(b)
        a_keys, b_keys = a.keys, b.keys
        if bound >= 0:
            a_keys = truncate_bound(a_keys, bound)
            b_keys = truncate_bound(b_keys, bound)
        charges = a.charges
        a.charges = ()
        charges += b.charges + gathers
        b.charges = ()
        self._add_op(kind, a_keys, b_keys, UNBOUNDED, burst=self._burst,
                     flop_pairs=flop_pairs, charges=charges)
        self.trace.shared_scalar_instrs += OP_SETUP_INSTRS
        if self.obs.enabled:
            # Profiled runs observe per-op stats eagerly; the trace
            # itself stays deferred (identical frozen output).
            cpu_mem, sc_mem = _charged(charges)
            self._observe_op(kind, analyze_pair(a.keys, b.keys, bound),
                             cpu_mem=cpu_mem, sc_mem=sc_mem,
                             flop_pairs=flop_pairs)
        if self.record_lengths and kind not in _VALUE_OPS:
            # Figure 14 samples the key ops' operands only.
            self._append_length(a.keys.size)
            self._append_length(b.keys.size)
        return a_keys, b_keys

    def intersect(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a_keys, b_keys = self._record(OpKind.INTERSECT, a, b, bound)
        return StreamOperand(ops.intersect(a_keys, b_keys))

    def intersect_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a_keys, b_keys = self._record(OpKind.INTERSECT, a, b, bound)
        return ops.intersect_count(a_keys, b_keys)

    def subtract(self, a, b, bound: int = UNBOUNDED) -> StreamOperand:
        a_keys, b_keys = self._record(OpKind.SUBTRACT, a, b, bound)
        return StreamOperand(ops.subtract(a_keys, b_keys))

    def subtract_count(self, a, b, bound: int = UNBOUNDED) -> int:
        a_keys, b_keys = self._record(OpKind.SUBTRACT, a, b, bound)
        return ops.subtract_count(a_keys, b_keys)

    def merge(self, a, b) -> StreamOperand:
        a_keys, b_keys = self._record(OpKind.MERGE, a, b, UNBOUNDED)
        return StreamOperand(ops.merge(a_keys, b_keys))

    def merge_count(self, a, b) -> int:
        a_keys, b_keys = self._record(OpKind.MERGE, a, b, UNBOUNDED)
        return ops.merge_count(a_keys, b_keys)

    # -- value ops ------------------------------------------------------------------

    def _require_values(self, s: StreamOperand) -> np.ndarray:
        if s.values is None:
            raise StreamTypeFault(
                "a (key,value) stream is required for value computation"
            )
        return s.values

    def _gather_values(self, operand: StreamOperand, n_elems: int) -> tuple:
        """Log a value gather of ``n_elems`` floats for one operand;
        returns its cost, as a tuple of none or one.

        Only memory-backed value streams (``S_VREAD``) are charged:
        produced intermediates live on-chip (vBuf / S-Cache) until the
        generated code explicitly spills them (:meth:`reload`)."""
        if n_elems <= 0 or operand.vgranule is None:
            return ()
        return (self._transfer.load_values(operand.vgranule,
                                           n_elems * _VALUE_BYTES),)

    def vinter(self, a: StreamOperand, b: StreamOperand,
               op: str = "MAC", bound: int = UNBOUNDED) -> float:
        """``S_VINTER``: reduce over value pairs of intersected keys."""
        av, bv = self._require_values(a), self._require_values(b)
        n_matches = ops.intersect_count(a.keys, b.keys, bound)
        gathers = (self._gather_values(a, n_matches)
                   + self._gather_values(b, n_matches))
        self._record(OpKind.VINTER, a, b, bound, flop_pairs=n_matches,
                     gathers=gathers)
        return ops.vinter(a.keys, av, b.keys, bv, op, bound)

    def vinter_rows(self, a: StreamOperand, mat, granule: tuple,
                    priority: int = 0,
                    loop_instrs: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """``S_VREAD`` + ``S_VINTER`` (MAC) of ``a`` against every
        non-empty row ``k`` of the CSR matrix ``mat``, row granule
        ``granule + (k,)``; ``loop_instrs`` scalar instructions surround
        each op.  Returns the row ids and their values.

        Records exactly what the per-row ``load_values`` + :meth:`vinter`
        loop records.  The functional results depend on no memory state,
        so they are all computed first; the row loads and value gathers
        then go to the access log as one list, in the per-row order, and
        the ops to the trace as one block."""
        av = self._require_values(a)
        indptr = mat.indptr
        row_ids = np.flatnonzero(indptr[1:] != indptr[:-1])
        counts, values = ops.vinter_rows(a.keys, av, indptr, mat.indices,
                                         mat.data)
        if row_ids.size == 0:
            return row_ids, values[row_ids]
        starts, ends = indptr[row_ids], indptr[row_ids + 1]
        row_sizes = (ends - starts).astype(np.int64)
        flops = counts[row_ids].astype(np.int64)
        # The non-empty rows' keys, back to back.
        b_keys = mat.indices[starts[0]:ends[-1]]
        lead = a.charges
        a.charges = ()
        charge = self._log_rows(a, granule, max(priority, 0), row_ids,
                                row_sizes, flops, indptr.size - 1)
        self.trace.add_op_block(OpKind.VINTER, a.keys, b_keys, row_sizes,
                                burst=self._burst, flop_pairs=flops,
                                charge=charge, lead=lead)
        self.trace.shared_scalar_instrs += row_ids.size * (OP_SETUP_INSTRS
                                                           + loop_instrs)
        if self.obs.enabled:
            self._observe_rows(a, granule, priority, row_ids, b_keys,
                               row_sizes, flops, charge, lead)
        return row_ids, values[row_ids]

    def _log_rows(self, a, granule, priority, row_ids, row_sizes, matches,
                  n_rows) -> BlockCharge:
        """Log :meth:`vinter_rows`'s accesses in one call, built as
        columns: each row's stream load, then, when the row has
        matches, the gathers of ``a``'s and the row's values.  Each op
        is charged its row's accesses."""
        transfer = self._transfer
        gathers = matches > 0
        has_a = a.vgranule is not None
        per_row = 1 + gathers * (1 + has_a)
        first = np.cumsum(per_row) - per_row
        total = int(first[-1] + per_row[-1])
        ids = np.empty(total, dtype=np.int64)
        sizes = np.empty(total, dtype=np.int64)
        priorities = np.full(total, VALUE_GATHER, dtype=np.int64)
        ids[first] = transfer.region_ids(granule, n_rows)[row_ids]
        sizes[first] = row_sizes * KEY_BYTES
        priorities[first] = priority
        at = first[gathers] + 1
        value_bytes = matches[gathers] * _VALUE_BYTES
        if has_a:
            ids[at] = transfer.granule_id(a.vgranule)
            sizes[at] = value_bytes
            at += 1
        ids[at] = transfer.region_ids(("vals",) + granule,
                                      n_rows)[row_ids[gathers]]
        sizes[at] = value_bytes
        charge = BlockCharge(first)
        transfer.log_block(ids.tolist(), sizes.tolist(), priorities.tolist(),
                           charge)
        return charge

    def _observe_rows(self, a, granule, priority, row_ids, b_keys,
                      row_sizes, flops, charge, lead) -> None:
        """Observe :meth:`vinter_rows`'s loads and ops in the per-row
        order, each row's load then its op, from the resolved block."""
        self._transfer.resolve()
        hits = ((charge.first_sc == 0.0) & (priority > 0)).tolist()
        cpu, sc = charge.cpu.tolist(), charge.sc.tolist()
        lead_cpu, lead_sc = _charged(lead)
        cpu[0] += lead_cpu
        sc[0] += lead_sc
        end = 0
        for k, size, m, hit, cpu_mem, sc_mem in zip(
                row_ids.tolist(), row_sizes.tolist(), flops.tolist(), hits,
                cpu, sc):
            row_keys = b_keys[end:end + size]
            end += size
            self._observe_load(granule + (k,), size * KEY_BYTES, hit)
            self._observe_op(OpKind.VINTER, analyze_pair(a.keys, row_keys),
                             cpu_mem=cpu_mem, sc_mem=sc_mem, flop_pairs=m)

    def vmerge(self, alpha: float, a: StreamOperand,
               beta: float, b: StreamOperand) -> StreamOperand:
        """``S_VMERGE``: scaled sparse addition producing a new stream."""
        av, bv = self._require_values(a), self._require_values(b)
        # The functional kernel is stateless, so computing the result
        # first (its length is the FLOP count) charges nothing out of
        # order.
        keys, vals = ops.vmerge(alpha, a.keys, av, beta, b.keys, bv)
        gathers = (self._gather_values(a, len(a))
                   + self._gather_values(b, len(b)))
        self._record(OpKind.VMERGE, a, b, UNBOUNDED,
                     flop_pairs=int(keys.size), gathers=gathers)
        return StreamOperand(keys, vals)

    # -- nested intersection (S_NESTINTER) ------------------------------------------

    def nest_intersect(self, s: StreamOperand, graph) -> int:
        """``S_NESTINTER``: sum of |S ∩ N(s_i)| bounded by each s_i.

        The dependent edge-list streams are generated by the processor
        from the GFRs; the translator's sub-ops all share one burst and
        carry no scalar loop overhead on SparseCore (the CPU runs the
        explicit loop instead).  The first sub-op takes ``s``'s pending
        charge."""
        s = self._coerce(s)
        total = 0
        pending = s.charges
        s.charges = ()
        with self.burst():
            for s_i in s.keys.tolist():
                nbr = self.neighbors(graph, s_i)
                charges = nbr.charges + pending
                pending = ()
                s_eff = truncate_bound(s.keys, s_i)
                n_eff = truncate_bound(nbr.keys, s_i)
                self._add_op(OpKind.INTERSECT, s_eff, n_eff, UNBOUNDED,
                             burst=self._burst, nested=True, charges=charges)
                if self.obs.enabled:
                    cpu_mem, sc_mem = _charged(charges)
                    self._observe_op(OpKind.INTERSECT,
                                     analyze_pair(s.keys, nbr.keys, s_i),
                                     nested=True, cpu_mem=cpu_mem,
                                     sc_mem=sc_mem)
                total += ops.intersect_count(s_eff, n_eff)
                self.trace.add_cpu_scalar(CPU_NESTED_LOOP_INSTRS)
                if self.record_lengths:
                    self.length_samples.append(len(s))
                    self.length_samples.append(len(nbr))
        return total
