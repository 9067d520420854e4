"""Tests for the LRU cache-hierarchy model."""

from collections import OrderedDict

from hypothesis import given
from hypothesis import strategies as st

from repro.arch.config import CacheConfig
from repro.arch.memory import CacheHierarchy, LruBytes


class TestLruBytes:
    def test_hit_after_insert(self):
        lru = LruBytes(100)
        assert lru.access(("a",), 10) is False
        assert lru.access(("a",), 10) is True

    def test_eviction_order(self):
        lru = LruBytes(100)
        lru.access(("a",), 60)
        lru.access(("b",), 60)  # evicts a
        assert lru.access(("a",), 60) is False
        assert lru.access(("b",), 60) is False  # b evicted by a's reinsert

    def test_touch_refreshes(self):
        lru = LruBytes(100)
        lru.access(("a",), 40)
        lru.access(("b",), 40)
        lru.access(("a",), 40)  # refresh a
        lru.access(("c",), 40)  # evicts b
        assert lru.contains(("a",))
        assert not lru.contains(("b",))

    def test_oversize_granule_clamped(self):
        lru = LruBytes(100)
        lru.access(("big",), 500)
        assert lru.used_bytes <= 100

    def test_clear(self):
        lru = LruBytes(100)
        lru.access(("a",), 10)
        lru.clear()
        assert lru.used_bytes == 0
        assert not lru.contains(("a",))


class TestCacheHierarchy:
    def config(self):
        return CacheConfig(l1d_bytes=256, l2_bytes=1024, l3_bytes=4096)

    def test_first_access_is_dram(self):
        h = CacheHierarchy(self.config())
        cost = h.access(("v", 1), 64)
        assert cost == h.config.dram_latency
        assert h.stats.dram_accesses == 1

    def test_second_access_is_l1(self):
        h = CacheHierarchy(self.config())
        h.access(("v", 1), 64)
        cost = h.access(("v", 1), 64)
        assert cost == h.config.l1_latency
        assert h.stats.l1_hits == 1

    def test_l2_hit_after_l1_eviction(self):
        h = CacheHierarchy(self.config())
        h.access(("v", 1), 128)
        for i in range(2, 6):
            h.access(("v", i), 128)  # push v1 out of the 256B L1
        cost = h.access(("v", 1), 128)
        assert cost == h.config.l2_latency + 1 * h.config.l2_line_cost
        assert h.stats.l2_hits >= 1

    def test_no_l1_mode(self):
        h = CacheHierarchy(self.config(), use_l1=False)
        h.access(("v", 1), 64)
        cost = h.access(("v", 1), 64)
        assert cost == h.config.l2_latency

    def test_multi_line_cost(self):
        h = CacheHierarchy(self.config())
        cost = h.access(("v", 1), 64 * 4)  # 4 lines, cold
        assert cost == h.config.dram_latency + 3 * h.config.dram_line_cost

    def test_zero_bytes_free(self):
        h = CacheHierarchy(self.config())
        assert h.access(("v", 1), 0) == 0.0
        assert h.stats.accesses == 0

    def test_pipelined_access_cheaper_than_demand(self):
        h1 = CacheHierarchy(self.config(), use_l1=False)
        h2 = CacheHierarchy(self.config(), use_l1=False)
        demand = h1.access(("v", 1), 256)
        prefetch = h2.access_pipelined(("v", 1), 256)
        assert prefetch < demand

    def test_pipelined_l2_hit(self):
        h = CacheHierarchy(self.config(), use_l1=False)
        h.access_pipelined(("v", 1), 64)
        cost = h.access_pipelined(("v", 1), 64)
        assert cost == h.config.l2_line_cost

    def test_lines_for(self):
        h = CacheHierarchy(self.config())
        assert h.lines_for(0) == 0
        assert h.lines_for(1) == 1
        assert h.lines_for(64) == 1
        assert h.lines_for(65) == 2

    def test_reset(self):
        h = CacheHierarchy(self.config())
        h.access(("v", 1), 64)
        h.reset()
        assert h.stats.accesses == 0
        assert h.access(("v", 1), 64) == h.config.dram_latency


class PopReinsertLru:
    """The reference LRU, one access at a time and without the
    same-size hit fast path: every access pops the entry and re-inserts
    it, evicting from the LRU end until it fits."""

    def __init__(self, capacity):
        self.capacity = capacity
        self._entries = OrderedDict()
        self._used = 0

    def access(self, key, nbytes):
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._used -= entry
        nbytes = min(nbytes, self.capacity)
        while self._used + nbytes > self.capacity and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._used -= evicted
        self._entries[key] = nbytes
        self._used += nbytes
        return entry is not None

    def replay(self, keys, sizes):
        return [self.access(key, nbytes) for key, nbytes in zip(keys, sizes)]

    @property
    def used_bytes(self):
        return self._used


# Few keys, so hits are common; sizes from 0 past the capacity, so hits
# resize entries both ways and some entries are clamped to capacity.
accesses = st.lists(st.tuples(st.integers(0, 9), st.integers(0, 300)),
                    max_size=80)


class TestLruFastPath:
    @given(st.integers(1, 256), accesses)
    def test_matches_pop_and_reinsert(self, capacity, seq):
        fast, ref = LruBytes(capacity), PopReinsertLru(capacity)
        for key, nbytes in seq:
            assert fast.access((key,), nbytes) == ref.access((key,), nbytes)
            assert fast.used_bytes == ref.used_bytes <= capacity
        assert list(fast._entries.items()) == list(ref._entries.items())

    @given(st.integers(1, 256), accesses, st.integers(0, 80))
    def test_replay_matches_pop_and_reinsert(self, capacity, seq, split):
        """A whole sequence replayed in two windows gives the reference's
        hit flags, used bytes and final LRU order."""
        lru, ref = LruBytes(capacity), PopReinsertLru(capacity)
        keys = [(key,) for key, _ in seq]
        sizes = [nbytes for _, nbytes in seq]
        hits = (lru.replay(keys[:split], sizes[:split])
                + lru.replay(keys[split:], sizes[split:]))
        assert hits == ref.replay(keys, sizes)
        assert lru.used_bytes == ref.used_bytes <= capacity
        assert list(lru._entries.items()) == list(ref._entries.items())

    @given(accesses, st.booleans())
    def test_hierarchy_stats_match(self, seq, pipelined):
        config = CacheConfig(l1d_bytes=128, l2_bytes=256, l3_bytes=512)
        fast = CacheHierarchy(config, use_l1=not pipelined)
        ref = CacheHierarchy(config, use_l1=not pipelined)
        for level in ("_l1", "_l2", "_l3"):
            lru = getattr(ref, level)
            if lru is not None:
                setattr(ref, level, PopReinsertLru(lru.capacity))
        for key, nbytes in seq:
            if pipelined:
                assert (fast.access_pipelined((key,), nbytes)
                        == ref.access_pipelined((key,), nbytes))
            else:
                assert fast.access((key,), nbytes) == ref.access((key,),
                                                                 nbytes)
        assert fast.stats == ref.stats

    @given(accesses, st.lists(st.booleans(), min_size=80, max_size=80),
           st.booleans())
    def test_hierarchy_replay_matches_per_access(self, seq, flags, use_l1):
        """One replay of a mixed demand/prefetch sequence costs each
        access what touching the levels one access at a time does."""
        config = CacheConfig(l1d_bytes=128, l2_bytes=256, l3_bytes=512)
        batched = CacheHierarchy(config, use_l1=use_l1)
        ref = CacheHierarchy(config, use_l1=use_l1)
        keys = [(key,) for key, _ in seq]
        sizes = [nbytes for _, nbytes in seq]
        pipelined = flags[:len(seq)]
        expected = [ref.access_pipelined(key, nbytes) if pipe
                    else ref.access(key, nbytes)
                    for key, nbytes, pipe in zip(keys, sizes, pipelined)]
        assert batched.replay(keys, sizes, pipelined) == expected
        assert batched.stats == ref.stats
