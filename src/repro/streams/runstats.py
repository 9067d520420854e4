"""Merge-run analysis: the structural statistics behind every cost model.

Walking the *merge path* of two sorted key streams visits the union of
their keys in order.  Consecutive keys coming from the same source form a
**run**; the sequence of runs fully determines the cost of the operation
in each machine model:

* **Stream Unit (SparseCore, Section 4.2 / Figure 6).**  The SU compares
  the head of each stream against a window of ``SU_BUFFER_WIDTH`` keys of
  the other stream per cycle, so a run of ``L`` mismatching keys is
  consumed in ``ceil(L / W)`` cycles.  Intersection emits at most one
  match per cycle, so a run of ``L`` matches costs ``L`` cycles;
  subtraction and merge can emit multiple keys per cycle and consume
  match runs at window rate too.  Intersection terminates the moment
  either operand is exhausted — the *terminal* single-source run of the
  merge path (including the degenerate case of an empty operand) costs
  no intersect cycles at all, matching the cycle-stepped
  :class:`~repro.arch.stream_unit.StreamUnit` exactly.

* **Scalar CPU.**  The classic two-pointer loop performs one
  compare+branch iteration per union key; the branch direction changes
  exactly at run boundaries, and a fraction of those changes are
  mispredicted (Figure 9 shows this dominating CPU time).

:func:`analyze_pair` computes all of these statistics with vectorised
numpy in O((|A|+|B|) log(|A|+|B|)) and returns a compact
:class:`OpStats` record that machine models can re-cost cheaply (e.g.
for the SU-count and bandwidth sweeps of Figures 12 and 13).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.streams.kernels import sorted_union

#: Width of the SU parallel-comparison window (paper Section 4.2: "We set
#: the buffer size as 16").
SU_BUFFER_WIDTH = 16

#: Sentinel for "no upper bound" (paper: R3 is set to -1).
UNBOUNDED = -1


@dataclass(frozen=True)
class OpStats:
    """Structural statistics of one binary stream operation.

    All lengths refer to the *effective* operands after upper-bound
    truncation (early termination, Section 2.2), except ``len_a`` and
    ``len_b`` which record the full architectural stream lengths.
    """

    len_a: int
    len_b: int
    eff_a: int
    eff_b: int
    n_union: int
    n_matches: int
    n_runs: int
    #: SU cycles when the op is an intersection (<=1 output/cycle; the
    #: terminal single-source run is free — the SU halts once either
    #: operand is exhausted).
    su_cycles_intersect: int
    #: SU cycles when the op is a subtraction or merge (window-rate output).
    su_cycles_submerge: int
    #: Scalar-loop iterations of the two-pointer CPU implementation.
    cpu_steps: int
    #: Branch-direction changes along the merge path (run boundaries).
    direction_changes: int

    @property
    def intersect_len(self) -> int:
        return self.n_matches

    @property
    def subtract_len(self) -> int:
        """Length of A - B over the effective (bounded) operands."""
        return self.eff_a - self.n_matches

    @property
    def merge_len(self) -> int:
        return self.n_union

    def out_len(self, kind: str) -> int:
        """Result length for ``kind`` in {'intersect', 'subtract', 'merge'}."""
        if kind == "intersect":
            return self.intersect_len
        if kind == "subtract":
            return self.subtract_len
        if kind == "merge":
            return self.merge_len
        raise ValueError(f"unknown op kind: {kind!r}")

    def su_cycles(self, kind: str) -> int:
        """SU cycles for ``kind`` (intersections emit 1 match/cycle)."""
        if kind == "intersect":
            return self.su_cycles_intersect
        if kind in ("subtract", "merge"):
            return self.su_cycles_submerge
        raise ValueError(f"unknown op kind: {kind!r}")


_EMPTY = OpStats(0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def truncate_bound(keys: np.ndarray, bound: int) -> np.ndarray:
    """Keep only keys strictly below ``bound`` (no-op when unbounded)."""
    if bound < 0 or keys.size == 0 or keys[-1] < bound:
        return keys
    # The ndarray method: np.searchsorted's wrapper costs ~3x more.
    return keys[: int(keys.searchsorted(bound))]


#: Below this combined operand size the pure-Python merge walk beats
#: the vectorised path (numpy per-call overhead dominates tiny arrays).
_SMALL_OP_THRESHOLD = 96


def _analyze_small(a_eff, b_eff, len_a: int, len_b: int,
                   width: int) -> OpStats:
    """Single-pass merge walk for small operands (the hot GPM case)."""
    xs = a_eff.tolist()
    ys = b_eff.tolist()
    na, nb = len(xs), len(ys)
    i = j = 0
    n_matches = 0
    n_union = 0
    n_runs = 0
    su_int = 0
    su_sub = 0
    prev_src = 0
    run_len = 0
    last_int_charge = 0

    def close_run():
        nonlocal su_int, su_sub, n_runs, last_int_charge
        if run_len:
            n_runs += 1
            windowed = -(-run_len // width)
            su_sub += windowed
            if prev_src == 3:
                su_int += run_len
                last_int_charge = 0
            else:
                su_int += windowed
                last_int_charge = windowed

    while i < na and j < nb:
        x, y = xs[i], ys[j]
        if x == y:
            src = 3
            i += 1
            j += 1
            n_matches += 1
        elif x < y:
            src = 1
            i += 1
        else:
            src = 2
            j += 1
        n_union += 1
        if src == prev_src:
            run_len += 1
        else:
            close_run()
            prev_src = src
            run_len = 1
    for tail, src in ((na - i, 1), (nb - j, 2)):
        if tail:
            n_union += tail
            if src == prev_src:
                run_len += tail
            else:
                close_run()
                prev_src = src
                run_len = tail
    close_run()
    # The SU halts an intersection as soon as either operand runs out:
    # the terminal single-source run costs no intersect cycles.
    su_int -= last_int_charge
    return OpStats(
        len_a=len_a, len_b=len_b, eff_a=na, eff_b=nb,
        n_union=n_union, n_matches=n_matches, n_runs=n_runs,
        su_cycles_intersect=su_int, su_cycles_submerge=su_sub,
        cpu_steps=n_union, direction_changes=max(0, n_runs - 1),
    )


def analyze_pair(
    a: np.ndarray,
    b: np.ndarray,
    bound: int = UNBOUNDED,
    *,
    width: int = SU_BUFFER_WIDTH,
) -> OpStats:
    """Compute :class:`OpStats` for sorted key arrays ``a`` and ``b``."""
    len_a, len_b = int(a.size), int(b.size)
    a_eff = truncate_bound(a, bound)
    b_eff = truncate_bound(b, bound)
    if a_eff.size == 0 and b_eff.size == 0:
        if len_a == 0 and len_b == 0 and bound < 0:
            return _EMPTY
        return OpStats(len_a, len_b, 0, 0, 0, 0, 0, 0, 0, 0, 0)
    if a_eff.size + b_eff.size <= _SMALL_OP_THRESHOLD:
        return _analyze_small(a_eff, b_eff, len_a, len_b, width)

    union = sorted_union(a_eff, b_eff)
    in_a = np.zeros(union.size, dtype=bool)
    in_a[np.searchsorted(union, a_eff)] = True
    in_b = np.zeros(union.size, dtype=bool)
    in_b[np.searchsorted(union, b_eff)] = True
    src = in_a.astype(np.int8) + 2 * in_b.astype(np.int8)  # 1=A, 2=B, 3=both

    boundaries = np.flatnonzero(src[1:] != src[:-1])
    run_starts = np.concatenate(([0], boundaries + 1))
    run_ends = np.concatenate((boundaries, [src.size - 1]))
    run_lens = run_ends - run_starts + 1
    run_src = src[run_starts]

    match_runs = run_src == 3
    n_matches = int(run_lens[match_runs].sum())
    windowed = np.ceil(run_lens / width).astype(np.int64)
    su_submerge = int(windowed.sum())
    su_intersect = int(windowed[~match_runs].sum()) + n_matches
    if run_src[-1] != 3:
        # Terminal single-source run: intersection has already halted
        # (the other operand is exhausted), so these keys are free.
        su_intersect -= int(windowed[-1])

    return OpStats(
        len_a=len_a,
        len_b=len_b,
        eff_a=int(a_eff.size),
        eff_b=int(b_eff.size),
        n_union=int(union.size),
        n_matches=n_matches,
        n_runs=int(run_lens.size),
        su_cycles_intersect=su_intersect,
        su_cycles_submerge=su_submerge,
        cpu_steps=int(union.size),
        direction_changes=max(0, int(run_lens.size) - 1),
    )
