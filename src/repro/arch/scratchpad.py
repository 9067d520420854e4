"""Stream-reuse scratchpad (Section 4.2).

A 16 KB scratchpad shared by all SUs keeps streams with non-zero
priority (assigned by the compiler after reuse analysis), so re-reading
a hot stream — the outer edge list of a GPM loop nest, a tensor row
reused across columns — costs no L2/L3 traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from repro.arch.memory import LruBytes
from repro.obs.counters import NULL_COUNTERS


@dataclass
class ScratchpadStats:
    hits: int = 0
    misses: int = 0
    bypasses: int = 0  # priority-0 streams never enter the scratchpad

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class Scratchpad:
    """Priority-gated LRU over stream granules."""

    def __init__(self, capacity_bytes: int = 16 * 1024,
                 counters=NULL_COUNTERS):
        self.capacity = capacity_bytes
        self._lru = LruBytes(capacity_bytes)
        self.stats = ScratchpadStats()
        self.counters = counters

    def replay(self, keys, sizes, priorities) -> list[bool]:
        """Touch stream granules ``keys[i]`` of ``sizes[i]`` bytes, in
        order; returns for each whether the scratchpad served it (no
        memory traffic).  Priority-0 streams bypass; a stream larger
        than the scratchpad misses without entering it.  A negative
        priority marks an access that is not a stream load (a value
        gather): the scratchpad neither sees nor counts it."""
        capacity = self.capacity
        streams = [priority > 0 for priority in priorities]
        pinned = [stream and nbytes <= capacity
                  for stream, nbytes in zip(streams, sizes)]
        hits = iter(self._lru.replay(compress(keys, pinned),
                                     compress(sizes, pinned)))
        served = [pin and next(hits) for pin in pinned]
        n_hits = served.count(True)
        misses = streams.count(True) - n_hits
        bypasses = priorities.count(0)
        stats = self.stats
        stats.hits += n_hits
        stats.misses += misses
        stats.bypasses += bypasses
        if self.counters.enabled:
            counters = self.counters
            for nbytes, priority, hit in zip(sizes, priorities, served):
                if priority == 0:
                    counters.inc("scratchpad.bypasses")
                elif hit:
                    counters.inc("scratchpad.pin_hits")
                    counters.add("scratchpad.bytes_served", nbytes)
                elif priority > 0:
                    counters.inc("scratchpad.misses")
        return served

    def access(self, key: tuple, nbytes: int, priority: int) -> bool:
        """Touch stream granule ``key``; returns True when served from
        the scratchpad (see :meth:`replay`)."""
        return self.replay((key,), (nbytes,), [max(priority, 0)])[0]

    @property
    def used_bytes(self) -> int:
        return self._lru.used_bytes

    def reset(self) -> None:
        self._lru.clear()
        self.stats = ScratchpadStats()
