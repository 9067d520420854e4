"""Conventional cache hierarchy as an LRU reuse model.

Machine models need to answer one question per stream access: *which
level serves this stream's data, and what does moving it cost?*  The
model tracks recency at **granule** granularity — one granule per
(region, index) pair, e.g. one vertex's edge list — in three nested LRU
structures sized like Table 2's L1/L2/L3.  A granule hit at level X
charges X's per-line pipelined transfer cost for every cache line the
stream occupies; granules fall through to DRAM cost when evicted
everywhere.

Granule tracking (instead of per-line tracking) keeps the model O(1)
per stream access, which matters because a single GPM run touches
millions of edge lists.  It is conservative in both directions: it
ignores partial-line sharing between adjacent edge lists and line
conflicts inside a granule, neither of which the paper's analysis
depends on.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Hashable
from dataclasses import dataclass, field
from itertools import compress
from operator import not_

from repro.arch.config import CacheConfig
from repro.obs.counters import NULL_COUNTERS

#: DRAM row-buffer size assumed by the row-activation estimate: every
#: DRAM-served granule activates ``ceil(nbytes / ROW_BUFFER_BYTES)``
#: rows (streams are sequential, so within-granule accesses hit the
#: open row).
ROW_BUFFER_BYTES = 8 * 1024

#: Counter names of the serving levels, indexed as in the cost tables.
_LEVEL_NAMES = ("l1", "l2", "l3", "dram")


class LruBytes:
    """A byte-capacity LRU over variable-size granules."""

    def __init__(self, capacity_bytes: int):
        self.capacity = capacity_bytes
        self._entries: OrderedDict[Hashable, int] = OrderedDict()
        self._used = 0

    def replay(self, keys, sizes) -> list[bool]:
        """Touch ``keys[i]`` with ``sizes[i]`` bytes, in order; returns
        one hit flag per access.  Misses insert; a granule larger than
        the capacity is clamped to it; inserting evicts from the LRU end
        until the entry fits.

        The only LRU kernel of the data-movement model: a level's state
        depends on its own access sequence alone, so replaying a whole
        sequence in one pass equals touching it one access at a time.
        """
        entries = self._entries
        capacity = self.capacity
        used = self._used
        hits: list[bool] = []
        for key, nbytes in zip(keys, sizes):
            if nbytes > capacity:
                nbytes = capacity
            entry = entries.get(key)
            if entry == nbytes:
                # A hit of unchanged clamped size leaves the used bytes
                # as they are, so nothing can be evicted: it only moves
                # to the MRU end.
                entries.move_to_end(key)
                hits.append(True)
                continue
            if entry is None:
                hits.append(False)
            else:
                del entries[key]
                used -= entry
                hits.append(True)
            while used + nbytes > capacity and entries:
                used -= entries.popitem(last=False)[1]
            entries[key] = nbytes
            used += nbytes
        self._used = used
        return hits

    def access(self, key: tuple, nbytes: int) -> bool:
        """Touch ``key``; returns True on hit.  Inserts on miss."""
        return self.replay((key,), (nbytes,))[0]

    def contains(self, key: tuple) -> bool:
        return key in self._entries

    @property
    def used_bytes(self) -> int:
        return self._used

    def clear(self) -> None:
        self._entries.clear()
        self._used = 0


@dataclass
class MemoryStats:
    """Accumulated traffic and stall cycles of one hierarchy instance."""

    accesses: int = 0
    l1_hits: int = 0
    l2_hits: int = 0
    l3_hits: int = 0
    dram_accesses: int = 0
    lines_transferred: int = 0
    stall_cycles: float = 0.0


@dataclass
class CacheHierarchy:
    """Three-level LRU granule model with per-line pipelined costs."""

    config: CacheConfig = field(default_factory=CacheConfig)
    #: Include the L1 level (the CPU path; SparseCore stream fetches
    #: bypass L1 into the S-Cache, Section 4.3).
    use_l1: bool = True
    #: Observability sink and the counter-name prefix of this instance
    #: (e.g. ``mem.cpu`` / ``mem.sc``).
    counters: object = NULL_COUNTERS
    name: str = "mem"

    def __post_init__(self):
        c = self.config
        self._l1 = LruBytes(c.l1d_bytes) if self.use_l1 else None
        self._l2 = LruBytes(c.l2_bytes)
        self._l3 = LruBytes(c.l3_bytes)
        self.stats = MemoryStats()
        # Per-level cost terms, indexed L1, L2, L3, DRAM.
        self._latency = (float(c.l1_latency), c.l2_latency, c.l3_latency,
                         c.dram_latency)
        self._per_line = (0, c.l2_line_cost, c.l3_line_cost,
                          c.dram_line_cost)

    def _count_level(self, level: str, nbytes: int, lines: int,
                     cost: float) -> None:
        counters = self.counters
        counters.inc(f"{self.name}.dram_accesses" if level == "dram"
                     else f"{self.name}.{level}_hits")
        counters.add(f"{self.name}.lines_transferred", lines)
        counters.add(f"{self.name}.stall_cycles", cost)
        if level == "dram":
            counters.add(f"{self.name}.dram_bytes",
                         lines * self.config.line_bytes)
            counters.add(f"{self.name}.dram_row_activations",
                         -(-nbytes // ROW_BUFFER_BYTES))

    def lines_for(self, nbytes: int) -> int:
        if nbytes <= 0:
            return 0
        return -(-nbytes // self.config.line_bytes)

    def replay(self, keys, sizes, pipelined) -> list:
        """Touch granules ``keys[i]`` of ``sizes[i]`` bytes, in order;
        returns each access's stall cycles.

        A demand access pays the serving level's load-to-use latency for
        its first line and the level's pipelined per-line cost for the
        rest.  A prefetched access (``pipelined[i]`` true) is streamed by
        the S-Cache on the known-sequential pattern (Section 4.3), so it
        pays only the per-line transfer cost, and it bypasses L1.
        Zero-byte accesses cost nothing and touch nothing.  Each level
        replays its own access sequence in one pass; the costs are
        priced as hits in the first level, then corrected where that
        level missed.
        """
        live = list(map(bool, sizes))  # byte counts are never negative
        keys = list(compress(keys, live))
        nbytes_l = list(compress(sizes, live))
        pipelined = list(compress(pipelined, live))
        in_l2 = self._l2.replay(keys, nbytes_l)
        in_l3 = self._l3.replay(keys, nbytes_l)
        if self._l1 is None:
            first, first_hits = 1, in_l2
        else:
            demand = list(map(not_, pipelined))
            hits = iter(self._l1.replay(compress(keys, demand),
                                        compress(nbytes_l, demand)))
            first = 0
            first_hits = [not pipe and next(hits) for pipe in pipelined]
        line = self.config.line_bytes
        lines = [-(-nbytes // line) for nbytes in nbytes_l]
        latency, per_line = self._latency, self._per_line
        lat, per = latency[first], per_line[first]
        costs = [count * per if pipe else lat + (count - 1) * per
                 for count, pipe in zip(lines, pipelined)]
        counts = [0, 0, 0, 0]
        below = []  # (access, level) of the accesses the first level missed
        i = -1
        for _ in range(first_hits.count(False)):
            i = first_hits.index(False, i + 1)
            level = 1 if first == 0 and in_l2[i] else 2 if in_l3[i] else 3
            count = lines[i]
            costs[i] = (count * per_line[level] if pipelined[i]
                        else latency[level] + (count - 1) * per_line[level])
            counts[level] += 1
            below.append((i, level))
        counts[first] = len(costs) - len(below)

        stats = self.stats
        stats.accesses += len(costs)
        stats.lines_transferred += sum(lines)
        # The costs are whole cycle counts, so their float sum is exact
        # in any order.
        stats.stall_cycles = sum(costs, stats.stall_cycles)
        stats.l1_hits += counts[0]
        stats.l2_hits += counts[1]
        stats.l3_hits += counts[2]
        stats.dram_accesses += counts[3]
        if self.counters.enabled:
            levels = [first] * len(costs)
            for i, level in below:
                levels[i] = level
            for level, nbytes, count, cost in zip(levels, nbytes_l, lines,
                                                  costs):
                self._count_level(_LEVEL_NAMES[level], nbytes, count, cost)
        costs = iter(costs)
        return [next(costs) if alive else 0.0 for alive in live]

    def access(self, key: tuple, nbytes: int) -> float:
        """Touch granule ``key`` of ``nbytes`` on demand; returns stall
        cycles (see :meth:`replay`)."""
        return self.replay((key,), (nbytes,), (False,))[0]

    def access_pipelined(self, key: tuple, nbytes: int) -> float:
        """Touch granule ``key`` with latency hidden by prefetching
        (see :meth:`replay`); L1 is bypassed by design."""
        return float(self.replay((key,), (nbytes,), (True,))[0])

    def reset(self) -> None:
        if self._l1 is not None:
            self._l1.clear()
        self._l2.clear()
        self._l3.clear()
        self.stats = MemoryStats()
