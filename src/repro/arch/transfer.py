"""Stream data-movement charging, shared by the recording context and
the instruction-level executor.

For every stream load the question is: what does moving this stream
cost (a) the baseline CPU through L1/L2/L3, and (b) SparseCore through
scratchpad -> S-Cache -> L2/L3 with prefetching?  Both hierarchies are
driven by the *same* access sequence, so reuse behaviour (the paper's
"higher degree means the stream can be reused more often") shows up on
both sides consistently.
"""

from __future__ import annotations

from itertools import repeat

import numpy as np

from repro.arch.config import SparseCoreConfig
from repro.arch.memory import CacheHierarchy
from repro.arch.scratchpad import Scratchpad
from repro.obs.counters import NULL_COUNTERS

#: Memory-level parallelism of SparseCore's value-gather path: the
#: VA_gen -> load queue -> vBuf pipeline (Section 4.5) keeps several
#: gathers in flight, hiding part — not all — of the demand latency the
#: CPU's scalar loop exposes.
VALUE_GATHER_MLP = 2.0

#: Access-log priority of a value gather; stream loads log their
#: compiler-assigned scratchpad priority, which is never negative.
VALUE_GATHER = -1


class StreamLoadCost:
    """Stall cycles one logged load charges each machine.

    A load is priced when the access log is resolved (:attr:`cpu` and
    :attr:`sc` hold its cycles from then on); reading
    :attr:`cpu_cycles`, :attr:`sc_cycles` or :attr:`scratchpad_hit`
    resolves the log first.  A stream operand holds the costs of the
    loads that produced it until the first op that consumes it takes
    them, so a cost nobody consumes dies with its operand."""

    __slots__ = ("model", "priority", "cpu", "sc")

    def __init__(self, model: "TransferModel", priority: int):
        self.model = model
        self.priority = priority
        self.cpu = 0.0
        self.sc = 0.0

    @property
    def cpu_cycles(self) -> float:
        self.model.resolve()
        return self.cpu

    @property
    def sc_cycles(self) -> float:
        self.model.resolve()
        return self.sc

    @property
    def scratchpad_hit(self) -> bool:
        """Whether a scratchpad-candidate stream cost SparseCore
        nothing."""
        self.model.resolve()
        return self.sc == 0.0 and self.priority > 0


class BlockCharge:
    """The charges of a block of ops whose accesses were logged in one
    call (:meth:`TransferModel.log_block`): op ``i`` takes the accesses
    from ``starts[i]`` up to the next op's start.  Once the log is
    resolved, :attr:`cpu` and :attr:`sc` hold each op's cycles and
    :attr:`first_sc` the SparseCore cycles of each op's first access."""

    __slots__ = ("starts", "cpu", "sc", "first_sc")

    def __init__(self, starts):
        self.starts = starts
        self.cpu = self.sc = self.first_sc = None

    def fill(self, cpu, sc) -> None:
        """Sum the block's per-access cycles, in log order, per op."""
        sc = np.array(sc, dtype=np.float64)
        self.cpu = np.add.reduceat(np.array(cpu, dtype=np.float64),
                                   self.starts)
        self.sc = np.add.reduceat(sc, self.starts)
        self.first_sc = sc[self.starts]


class TransferModel:
    """Paired CPU/SparseCore data-movement model.

    Loads are appended to an *access log* (:meth:`load_stream`,
    :meth:`load_values`, :meth:`log_block`) and priced when
    :meth:`resolve` replays it, exactly in issue order, one pass per
    LRU: each level's state depends only on its own access sequence, so
    a batched replay leaves the same state and costs as touching the
    levels one access at a time.  Reading a logged load's cost resolves
    the log, so a caller that reads each cost as it loads is charged one
    access at a time.

    The LRUs key granules by small integer ids (:meth:`granule_id`),
    which hash far cheaper than the granule tuples they stand for.
    """

    def __init__(self, config: SparseCoreConfig | None = None,
                 counters=NULL_COUNTERS):
        self.config = config or SparseCoreConfig()
        self.counters = counters
        cache = self.config.cache
        self.cpu_hierarchy = CacheHierarchy(cache, use_l1=True,
                                            counters=counters,
                                            name="mem.cpu")
        self.sc_hierarchy = CacheHierarchy(cache, use_l1=False,
                                           counters=counters,
                                           name="mem.sc")
        self.scratchpad = Scratchpad(self.config.scratchpad_bytes,
                                     counters=counters)
        self.stream_loads = 0
        #: the pending access log, one column per field, in issue order
        self._keys: list[int] = []
        self._sizes: list[int] = []
        self._priorities: list[int] = []
        self._costs: list[StreamLoadCost | None] = []
        #: (start, stop, charge) of each logged block of accesses
        self._blocks: list[tuple[int, int, BlockCharge]] = []
        #: granule -> id, numbered in first-seen order
        self._ids: dict = {}
        #: region -> ids of the granules ``region + (k,)``, k = 0, 1, ...
        self._region_ids: dict[tuple, np.ndarray] = {}

    # -- granule ids -----------------------------------------------------------

    def granule_id(self, key) -> int:
        """The id the LRUs know granule ``key`` by."""
        ids = self._ids
        ident = ids.get(key)
        if ident is None:
            ident = ids[key] = len(ids)
        return ident

    def region_ids(self, region: tuple, n: int) -> np.ndarray:
        """Ids of the granules ``region + (k,)`` for ``k < n`` (int64)."""
        ids = self._region_ids.get(region)
        if ids is None or ids.size < n:
            ids = np.array([self.granule_id(region + (k,)) for k in range(n)],
                           dtype=np.int64)
            self._region_ids[region] = ids
        return ids

    # -- the access log --------------------------------------------------------

    def load_stream(self, key: tuple, nbytes: int,
                    priority: int = 0) -> StreamLoadCost:
        """Log one stream load on both machines and return its cost.

        ``key`` is a stable granule identity (e.g. ``("edges", v)``);
        ``priority`` is the compiler-assigned scratchpad priority.
        """
        return self._log(key, nbytes, priority if priority > 0 else 0)

    def load_values(self, key: tuple, nbytes: int) -> StreamLoadCost:
        """Log one value gather on both machines and return its cost."""
        return self._log(key, nbytes, VALUE_GATHER)

    def _log(self, key, nbytes, priority) -> StreamLoadCost:
        cost = StreamLoadCost(self, priority)
        self._keys.append(self.granule_id(key))
        self._sizes.append(nbytes)
        self._priorities.append(priority)
        self._costs.append(cost)
        return cost

    def log_block(self, ids, sizes, priorities, charge: BlockCharge) -> None:
        """Log accesses in order, one per element of the three columns:
        granule id (:meth:`granule_id`, :meth:`region_ids`), bytes, and
        priority (:data:`VALUE_GATHER` for a value gather, else the
        stream's non-negative scratchpad priority); ``charge`` gathers
        their cycles per op."""
        start = len(self._keys)
        self._keys.extend(ids)
        self._sizes.extend(sizes)
        self._priorities.extend(priorities)
        self._costs.extend([None] * (len(self._keys) - start))
        self._blocks.append((start, len(self._keys), charge))

    def resolve(self) -> None:
        """Replay the pending log, price each access, and free the log.

        Stream loads cost (a) the baseline CPU a demand access through
        L1/L2/L3, and (b) SparseCore nothing when the scratchpad serves
        them, else a prefetched (pipelined) fetch through L2/L3.  Value
        fetches go through the *normal* hierarchy on both machines
        (Section 4.3: values are not cached in the S-Cache).  On
        SparseCore the VA_gen -> load queue -> vBuf path keeps many
        gathers in flight (Section 4.5), so latency is overlapped and
        only part of the demand cost the CPU's scalar loop exposes is
        charged.
        """
        keys = self._keys
        if not keys:
            return
        sizes, priorities = self._sizes, self._priorities
        streams = [priority >= 0 for priority in priorities]
        cpu = self.cpu_hierarchy.replay(keys, sizes, repeat(False))
        # Value gathers carry a negative priority: the scratchpad skips
        # them, so it sees exactly the stream loads.  What it serves
        # never reaches the S-Cache path (a zero-byte access touches no
        # level).
        served = self.scratchpad.replay(keys, sizes, priorities)
        sc = self.sc_hierarchy.replay(
            keys, [0 if hit else nbytes for hit, nbytes in zip(served, sizes)],
            streams)
        sc = [cycles if stream else cycles / VALUE_GATHER_MLP
              for cycles, stream in zip(sc, streams)]
        for cost, cpu_cycles, sc_cycles in zip(self._costs, cpu, sc):
            if cost is not None:
                cost.cpu = cpu_cycles
                cost.sc = sc_cycles
        for lo, hi, block in self._blocks:
            block.fill(cpu[lo:hi], sc[lo:hi])
        self.stream_loads += streams.count(True)
        if self.counters.enabled:
            counters = self.counters
            for nbytes, stream in zip(sizes, streams):
                kind = "stream" if stream else "value"
                counters.inc(f"transfer.{kind}_loads")
                counters.add(f"transfer.{kind}_bytes", nbytes)
        self._clear_log()

    def _clear_log(self) -> None:
        self._keys.clear()
        self._sizes.clear()
        self._priorities.clear()
        self._costs.clear()
        self._blocks.clear()

    def reset(self) -> None:
        self.cpu_hierarchy.reset()
        self.sc_hierarchy.reset()
        self.scratchpad.reset()
        self.stream_loads = 0
        self._clear_log()
