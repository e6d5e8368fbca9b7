"""Private L1 data cache with MESI states.

The cache serves its core's loads/stores/atomics and responds to
directory-initiated invalidations and forwards.  Values live in the
machine-wide backing store (see :mod:`repro.mem`); a memory operation
reads/writes that store at its completion instant, after the protocol
has granted sufficient permission, which preserves linearizability.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from heapq import heappush
from typing import Callable, Deque, Dict, Optional

from repro.common.params import CacheParams
from repro.common.stats import StatSet
from repro.common.types import CacheState, CoreId
from repro.noc.message import Message
from repro.noc.network import Network
from repro.sim.kernel import Future, Simulator


#: Operation kinds, compared by identity on the access path.
_LOAD = 0
_STORE = 1
_RMW = 2


class _Op:
    """One in-flight memory operation from the core."""

    __slots__ = ("kind", "addr", "line", "future", "value", "rmw_fn", "issued_at")

    def __init__(self, kind, addr, line, future, value, rmw_fn, issued_at):
        self.kind = kind  # _LOAD | _STORE | _RMW
        self.addr = addr
        self.line = line
        self.future = future
        self.value = value  # store value
        self.rmw_fn = rmw_fn
        self.issued_at = issued_at


class _Mshr:
    """Miss-status holding register: one per in-flight line."""

    __slots__ = ("line", "want_write", "ops")

    def __init__(self, line, want_write):
        self.line = line
        self.want_write = want_write
        self.ops: Deque[_Op] = deque()


_INVALID = CacheState.INVALID
_SHARED = CacheState.SHARED
_EXCLUSIVE = CacheState.EXCLUSIVE
_MODIFIED = CacheState.MODIFIED


class L1Cache:
    """One core's private L1 (MESI, set-associative, LRU)."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        core_id: CoreId,
        params: CacheParams,
        backing_store: Dict[int, int],
        home_of_line: Callable[[int], int],
    ):
        self.sim = sim
        self.network = network
        self.core_id = core_id
        self.params = params
        self.backing_store = backing_store
        self.home_of_line = home_of_line
        self.stats = StatSet(f"l1.{core_id}")
        # set index -> OrderedDict[line -> CacheState]; most recent last.
        self._sets: Dict[int, "OrderedDict[int, CacheState]"] = {}
        self._mshrs: Dict[int, _Mshr] = {}
        self._set_mask = params.n_sets - 1
        self._line_shift = params.line_size.bit_length() - 1
        self._hit_latency = params.hit_latency
        # For the inline calendar push of hit completions (_start).
        self._buckets = sim._buckets
        self._times = sim._times
        self._complete_cb = self._complete_if_valid
        # Every access touches two of these; bind them once (see
        # common/stats.py on hot-path counter and histogram binding).
        self._loads = self.stats.counter("loads")
        self._stores = self.stats.counter("stores")
        self._rmws = self.stats.counter("rmws")
        # Latency histograms' value counts, indexed by op kind.
        self._op_latency = (
            self.stats.histogram("load_latency").counts,
            self.stats.histogram("store_latency").counts,
            self.stats.histogram("rmw_latency").counts,
        )
        self._load_latency = self._op_latency[_LOAD]
        self._hits = self.stats.counter("hits")
        self._misses = self.stats.counter("misses")
        self._hit_replays = self.stats.counter("hit_replays")
        self._invalidations = self.stats.counter("invalidations")
        self._evictions = self.stats.counter("evictions")
        network.register(core_id, "coh_l1", self._on_message)

    # ------------------------------------------------------------------
    # Core-facing API
    # ------------------------------------------------------------------
    # Each builds its op and starts it in place: with ``ThreadCtx``
    # calling straight in, a cache hit costs two frames here plus the
    # op and future constructors (see docs/PERF.md, "Per-access cost").
    def load(self, addr: int) -> Future:
        sim = self.sim
        future = Future(sim)
        self._loads.value += 1
        self._start(
            _Op(_LOAD, addr, addr >> self._line_shift, future, None, None, sim.now)
        )
        return future

    def store(self, addr: int, value: int) -> Future:
        sim = self.sim
        future = Future(sim)
        self._stores.value += 1
        self._start(
            _Op(_STORE, addr, addr >> self._line_shift, future, value, None, sim.now)
        )
        return future

    def rmw(self, addr: int, fn: Callable[[int], int]) -> Future:
        """Atomic read-modify-write; the future resolves to the *old*
        value.  Requires write permission, like real atomics."""
        sim = self.sim
        future = Future(sim)
        self._rmws.value += 1
        self._start(
            _Op(_RMW, addr, addr >> self._line_shift, future, None, fn, sim.now)
        )
        return future

    # ------------------------------------------------------------------
    # Lookup helpers
    # ------------------------------------------------------------------
    def _set_of(self, line: int) -> "OrderedDict[int, CacheState]":
        index = line & self._set_mask
        bucket = self._sets.get(index)
        if bucket is None:
            bucket = self._sets[index] = OrderedDict()
        return bucket

    def state_of(self, line: int) -> CacheState:
        return self._set_of(line).get(line, _INVALID)

    def _set_state(self, line: int, state: CacheState) -> None:
        bucket = self._set_of(line)
        if state is _INVALID:
            bucket.pop(line, None)
        else:
            bucket[line] = state
            bucket.move_to_end(line)

    # ------------------------------------------------------------------
    # The access path
    # ------------------------------------------------------------------
    def _start(self, op: _Op) -> None:
        line = op.line
        # _set_of inlined: this and _complete_if_valid bracket every
        # access, so the helper call was two frames per operation.
        sets = self._sets
        index = line & self._set_mask
        bucket = sets.get(index)
        if bucket is None:
            bucket = sets[index] = OrderedDict()
        state = bucket.get(line, _INVALID)
        if (
            state is not _INVALID
            if op.kind is _LOAD
            else (state is _MODIFIED or state is _EXCLUSIVE)
        ):
            # Hit: the line is necessarily present in the bucket.
            self._hits.value += 1
            bucket.move_to_end(line)
            # Simulator.schedule inlined (the hit latency is >= 0).
            when = self.sim.now + self._hit_latency
            pending = self._buckets.get(when)
            if pending is None:
                self._buckets[when] = [(self._complete_cb, op)]
                heappush(self._times, when)
            else:
                pending.append((self._complete_cb, op))
            return
        self._miss(op, line)

    def _complete_if_valid(self, op: _Op) -> None:
        """Permission may have been revoked during the hit latency
        (a racing invalidation); re-check and retry if so.  A load that
        still hits completes here; stores and atomics go through
        :meth:`_perform`."""
        line = op.line
        bucket = self._sets.get(line & self._set_mask)
        state = _INVALID if bucket is None else bucket.get(line, _INVALID)
        if op.kind is _LOAD:
            if state is not _INVALID:
                latency = self.sim.now - op.issued_at
                counts = self._load_latency
                counts[latency] = counts.get(latency, 0) + 1
                op.future.complete(self.backing_store.get(op.addr, 0))
                return
        elif state is _MODIFIED or state is _EXCLUSIVE:
            if state is _EXCLUSIVE:
                bucket[line] = _MODIFIED
                bucket.move_to_end(line)
            self._perform(op)
            return
        self._hit_replays.value += 1
        self._start(op)

    def _perform(self, op: _Op) -> None:
        """Apply the operation to the backing store and resolve it."""
        kind = op.kind
        latency = self.sim.now - op.issued_at
        counts = self._op_latency[kind]
        counts[latency] = counts.get(latency, 0) + 1
        if kind is _LOAD:
            op.future.complete(self.backing_store.get(op.addr, 0))
        elif kind is _STORE:
            self.backing_store[op.addr] = op.value
            op.future.complete(None)
        else:  # rmw
            old = self.backing_store.get(op.addr, 0)
            self.backing_store[op.addr] = op.rmw_fn(old)
            op.future.complete(old)

    def _miss(self, op: _Op, line: int) -> None:
        self._misses.value += 1
        want_write = op.kind is not _LOAD
        mshr = self._mshrs.get(line)
        if mshr is not None:
            # Line transaction already in flight; piggyback.  If this op
            # needs more permission than requested, it will re-issue an
            # upgrade after the fill (see _fill).
            mshr.ops.append(op)
            return
        mshr = _Mshr(line=line, want_write=want_write)
        mshr.ops.append(op)
        self._mshrs[line] = mshr
        kind = "coh.getm" if want_write else "coh.gets"
        self._send_home(line, kind)

    def _send_home(self, line: int, kind: str) -> None:
        # The payload is the line; the home reads the requester as src.
        self.network.send(
            Message(self.core_id, self.home_of_line(line), kind, line)
        )

    # ------------------------------------------------------------------
    # Directory-facing message handling
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        line = msg.payload
        kind = msg.kind
        if kind == "coh_l1.data_s":
            self._fill(line, _SHARED)
        elif kind == "coh_l1.data_e":
            self._fill(line, _EXCLUSIVE)
        elif kind == "coh_l1.inv":
            self._set_state(line, _INVALID)
            self._invalidations.value += 1
            self._send_home(line, "coh.inv_ack")
        elif kind == "coh_l1.fwd_gets":
            # Downgrade to S; dirty data is already in the backing store.
            if self.state_of(line) is not _INVALID:
                self._set_state(line, _SHARED)
            self._send_home(line, "coh.fwd_ack")
        elif kind == "coh_l1.fwd_getm":
            self._set_state(line, _INVALID)
            self._invalidations.value += 1
            self._send_home(line, "coh.fwd_ack")
        else:
            raise ValueError(f"L1 {self.core_id}: unknown message {msg}")

    def _fill(self, line: int, state: CacheState) -> None:
        bucket = self._set_of(line)
        if line not in bucket and len(bucket) >= self.params.associativity:
            # Make room: evict the LRU line, writing back an M/E victim.
            victim, vstate = next(iter(bucket.items()))
            del bucket[victim]
            self._evictions.value += 1
            if vstate is _MODIFIED or vstate is _EXCLUSIVE:
                self._send_home(victim, "coh.putm")
        bucket[line] = state
        bucket.move_to_end(line)
        mshr = self._mshrs.pop(line, None)
        if mshr is None:
            return
        # Ops the fill satisfies are performed *atomically at fill time*:
        # the requestor must get to use the line it fetched before a
        # forwarded invalidation can steal it, or two cores contending
        # for the same line livelock (each steals the other's line
        # inside its fill-to-use window).  The miss path already charged
        # the access latency.  Ops needing more permission (store after
        # an S fill) re-enter the miss path and issue an upgrade.  Only
        # messages change a line's state or evict, so ``bucket`` stays
        # this set's table while performed ops resume their threads.
        for op in mshr.ops:
            current = bucket.get(line, _INVALID)
            if op.kind is _LOAD:
                if current is _INVALID:
                    self._start(op)
                    continue
            elif current is _EXCLUSIVE:
                bucket[line] = _MODIFIED
                bucket.move_to_end(line)
            elif current is not _MODIFIED:
                self._start(op)
                continue
            self._perform(op)
