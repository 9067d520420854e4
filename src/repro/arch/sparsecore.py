"""SparseCore cost model.

Costs a recorded trace as executed by the stream extension of
Section 4:

* each stream op runs on a Stream Unit at the parallel-comparison rate
  computed by the merge-run analysis (Figure 6 / Section 4.2),
* ops sharing a **burst** (the sub-ops of one ``S_NESTINTER``, or any
  region the software brackets) are independent; a burst's time is
  ``max(longest op, ceil(total SU work / num_sus),
  ceil(total elements / bandwidth))`` — the model behind the SU-count
  and bandwidth sweeps of Figures 12 and 13,
* singleton ops still overlap a little through the out-of-order window
  (``implicit_overlap``), which is why non-nested variants (TS/4CS/5CS)
  gain less from extra SUs — exactly the paper's observation,
* stream fetches were charged at record time with prefetch-friendly
  pipelined line costs (S-Cache bypasses L1 and hides latency on the
  known-sequential pattern, Section 4.3); scratchpad hits were free,
* value computation overlaps SVPU FLOPs with the SU's key intersection
  (Section 4.5),
* "other computation" on the host core partially overlaps stream work
  because stream ops occupy a single ROB entry (Section 4.5).
"""

from __future__ import annotations

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.trace import NO_BURST, CycleReport, FrozenTrace, OpKind, Trace
from repro.obs.counters import NULL_COUNTERS

#: Fraction of scalar "other computation" hidden under stream-unit work
#: by the out-of-order core (Section 6.4: "SparseCore can overlap Other
#: computation with Intersection").
OTHER_OVERLAP = 0.6

#: Fraction of loop-exit branches still mispredicted on SparseCore
#: (stream ops remove the data-dependent inner branches; the remaining
#: loop branches are mostly pattern-predictable).
RESIDUAL_MISPRED_RATE = 0.08


class SparseCoreModel:
    """Cost model of the SparseCore processor extension."""

    name = "sparsecore"

    def __init__(self, config: SparseCoreConfig | None = None):
        self.config = config or SparseCoreConfig()

    # -- burst aggregation --------------------------------------------------

    def segment_times(
        self, su_cycles: np.ndarray, elems: np.ndarray, burst: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment stream-compute times under SU/bandwidth limits.

        Ops are grouped into overlap segments (explicit bursts, plus
        implicit-overlap windows of singleton ops); each segment's time
        is ``max(longest op, ceil(work / num_sus), elems / bandwidth)``.
        Returns ``(starts, times)``: the op index opening each segment
        and that segment's cycles.  The cycle-attribution report
        (:mod:`repro.obs.attribution`) distributes exactly these times
        back over the ops of each segment, so the decomposition it
        prints is the cost model's own arithmetic, not a re-derivation.
        """
        c = self.config
        if su_cycles.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.astype(np.float64)
        # Group singleton ops into implicit-overlap windows.
        group = burst.copy()
        singles = group == NO_BURST
        if singles.any():
            # Consecutive windows of `implicit_overlap` singleton ops.
            idx = np.cumsum(singles) - 1
            group[singles] = -2 - (idx[singles] // max(1, c.implicit_overlap))
        # Segment boundaries: group ids are contiguous runs in issue order.
        change = np.flatnonzero(np.concatenate(([True], group[1:] != group[:-1])))
        work = np.add.reduceat(su_cycles, change)
        longest = np.maximum.reduceat(su_cycles, change)
        moved = np.add.reduceat(elems.astype(np.float64), change)
        times = np.maximum(
            longest,
            np.maximum(work / c.num_sus, moved / c.scache_bandwidth),
        )
        return change, times

    def _burst_times(
        self, su_cycles: np.ndarray, elems: np.ndarray, burst: np.ndarray
    ) -> float:
        """Total stream-compute time under SU-count/bandwidth limits."""
        return float(self.segment_times(su_cycles, elems, burst)[1].sum())

    # -- cost -----------------------------------------------------------------

    def cost(self, trace: Trace | FrozenTrace,
             counters=NULL_COUNTERS) -> CycleReport:
        t = trace.freeze()
        c = self.config

        # Value ops: SVPU FLOPs overlap the SU's key walk; take the max
        # per op before burst aggregation.
        su = np.maximum(
            t.su_cycles.astype(np.float64),
            t.flop_pairs * c.flop_cycles_per_pair,
        )
        intersection = self._burst_times(su, t.eff_elems, t.burst)

        # Issue/translation overhead: singleton ops pay decode+SMT issue;
        # nested sub-ops pay the translator's micro-op expansion.
        n_nested = int(t.nested.sum())
        n_plain = t.num_ops - n_nested
        issue = n_plain * c.op_issue_cycles + n_nested * c.nested_translate_cycles
        intersection += issue

        cache = float(t.sc_mem.sum())

        # Residual branches: only the plain ops sit inside scalar loops.
        branch = n_plain * RESIDUAL_MISPRED_RATE * 14.0

        scalar_instrs = t.shared_scalar_instrs + t.sc_only_scalar_instrs
        other_raw = scalar_instrs * c.scalar_cpi
        hidden = OTHER_OVERLAP * min(other_raw, intersection)
        other = other_raw - hidden

        total = intersection + cache + branch + other
        if counters.enabled:
            for kind in OpKind:
                n = int((t.kind == int(kind)).sum())
                if n:
                    counters.add(f"model.sc.ops.{kind.name.lower()}", n)
            counters.add("model.sc.ops.nested", n_nested)
            counters.add("model.sc.svpu_flop_pairs",
                         int(t.flop_pairs.sum()))
            counters.add("model.sc.su_cycles", int(t.su_cycles.sum()))
            counters.add("model.sc.issue_cycles", issue)
            counters.add("model.sc.intersection_cycles", intersection)
            counters.add("model.sc.cache_cycles", cache)
            counters.add("model.sc.branch_cycles", branch)
            counters.add("model.sc.other_cycles", other)
            counters.add("model.sc.hidden_other_cycles", hidden)
            counters.add("model.sc.total_cycles", total)
        return CycleReport(
            machine=self.name,
            cache_cycles=cache,
            branch_cycles=branch,
            intersection_cycles=intersection,
            other_cycles=other,
            total_cycles=total,
            detail={
                "issue_cycles": issue,
                "nested_subops": n_nested,
                "plain_ops": n_plain,
                "scalar_instrs": scalar_instrs,
                "hidden_other_cycles": hidden,
                "num_sus": c.num_sus,
                "bandwidth": c.scache_bandwidth,
            },
        )
