"""LLC slice with an inline MESI directory (one per tile).

The directory is *blocking per line*: while a transaction on a line is
in flight (waiting for invalidation or forward acks), later requests for
that line queue FIFO.  This serializes conflicting accesses through the
home, which is both simple and sufficient -- the effects the paper's
evaluation depends on (handoff latency, invalidation storms on
contended lines, hot-spot queuing at the home tile) all survive.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Optional, Set

from repro.common.errors import ProtocolError
from repro.common.params import LLCParams
from repro.common.stats import StatSet
from repro.common.types import CoreId, TileId
from repro.noc.message import Message
from repro.noc.network import Network
from repro.sim.kernel import Simulator


@dataclass
class DirEntry:
    """Directory state for one line: I (no copies), S (sharers), or
    M (single owner holding E or M)."""

    sharers: Set[CoreId] = field(default_factory=set)
    owner: Optional[CoreId] = None
    touched: bool = False
    """Whether the LLC slice has ever held this line (cold-miss cost)."""

    @property
    def state(self) -> str:
        if self.owner is not None:
            return "M"
        if self.sharers:
            return "S"
        return "I"


class _Txn:
    """An in-flight directory transaction awaiting remote acks."""

    __slots__ = ("kind", "requestor", "needed_acks")

    def __init__(self, kind: str, requestor: CoreId, needed_acks: int = 0):
        self.kind = kind
        self.requestor = requestor
        self.needed_acks = needed_acks


class DirectorySlice:
    """The coherence home for lines mapping to this tile."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tile: TileId,
        params: LLCParams,
    ):
        self.sim = sim
        self.network = network
        self.tile = tile
        self.params = params
        self.stats = StatSet(f"dir.{tile}")
        self.entries: Dict[int, DirEntry] = {}
        self._busy: Dict[int, _Txn] = {}
        self._queues: Dict[int, Deque[Message]] = {}
        # Per-request counter handles, bound on first increment: a slice
        # registers only the counters its traffic touched (the counter
        # set is part of the determinism contract).
        self._gets = None
        self._getm = None
        self._queued = None
        self._cold_misses = None
        network.register(tile, "coh", self._on_message)

    def entry(self, line: int) -> DirEntry:
        entry = self.entries.get(line)
        if entry is None:
            entry = self.entries[line] = DirEntry()
        return entry

    # ------------------------------------------------------------------
    # Message handling & per-line serialization
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        # Coherence messages carry the line as their payload; a request
        # comes from its requester's tile (``src``).
        line = msg.payload
        if msg.kind in ("coh.inv_ack", "coh.fwd_ack"):
            self._on_ack(line)
            return
        if line in self._busy:
            self._queues.setdefault(line, deque()).append(msg)
            queued = self._queued
            if queued is None:
                queued = self._queued = self.stats.counter("queued_requests")
            queued.value += 1
            return
        self._process(msg)

    def _process(self, msg: Message) -> None:
        line = msg.payload
        core = msg.src
        if msg.kind == "coh.gets":
            self._do_gets(line, core)
        elif msg.kind == "coh.getm":
            self._do_getm(line, core)
        elif msg.kind == "coh.putm":
            self._do_putm(line, core)
        else:
            raise ProtocolError(f"directory {self.tile}: unknown {msg}")

    def _unblock(self, line: int) -> None:
        self._busy.pop(line, None)
        queue = self._queues.get(line)
        # Drain queued requests until one blocks the line again (a
        # request that completes synchronously must not strand the rest).
        while queue and line not in self._busy:
            self._process(queue.popleft())

    def _access_latency(self, entry: DirEntry) -> int:
        latency = self.params.slice_latency
        if not entry.touched:
            entry.touched = True
            latency += self.params.memory_latency
            cold = self._cold_misses
            if cold is None:
                cold = self._cold_misses = self.stats.counter("cold_misses")
            cold.value += 1
        return latency

    def _reply(self, core: CoreId, kind: str, line: int, delay: int) -> None:
        """Send the data grant after the slice access latency.

        The line stays *busy* until the grant is injected: a later
        transaction could otherwise inject a forward/invalidate to the
        same core ahead of its data (the NoC is FIFO per source-
        destination pair, so injection order is arrival order)."""
        self._busy[line] = _Txn("reply", core)
        self.sim.schedule(delay, self._inject_reply, (core, kind, line))

    def _inject_reply(self, args: tuple) -> None:
        core, kind, line = args
        self._fwd(core, kind, line)
        self._unblock(line)

    def _fwd(self, core: CoreId, kind: str, line: int) -> None:
        self.network.send(Message(self.tile, core, kind, line))

    # ------------------------------------------------------------------
    # Request state machines
    # ------------------------------------------------------------------
    def _do_gets(self, line: int, core: CoreId) -> None:
        entry = self.entry(line)
        gets = self._gets
        if gets is None:
            gets = self._gets = self.stats.counter("gets")
        gets.value += 1
        delay = self._access_latency(entry)
        if entry.owner is None:
            if entry.sharers:
                entry.sharers.add(core)
                self._reply(core, "coh_l1.data_s", line, delay)
            else:
                # No copies: grant Exclusive (the E in MESI).
                entry.owner = core
                self._reply(core, "coh_l1.data_e", line, delay)
            return
        # Owned: fetch from owner, downgrade to shared.
        owner = entry.owner
        self._busy[line] = _Txn("gets", core, needed_acks=1)
        self._fwd(owner, "coh_l1.fwd_gets", line)

    def _do_getm(self, line: int, core: CoreId) -> None:
        entry = self.entry(line)
        getm = self._getm
        if getm is None:
            getm = self._getm = self.stats.counter("getm")
        getm.value += 1
        delay = self._access_latency(entry)
        if entry.owner is None and not entry.sharers:
            entry.owner = core
            self._reply(core, "coh_l1.data_e", line, delay)
            return
        if entry.owner is not None:
            if entry.owner == core:
                raise ProtocolError(
                    f"dir {self.tile}: GetM from current owner {core} line {line}"
                )
            self._busy[line] = _Txn("getm", core, needed_acks=1)
            self._fwd(entry.owner, "coh_l1.fwd_getm", line)
            return
        # Shared: invalidate every other sharer, then grant.
        targets = [s for s in entry.sharers if s != core]
        if not targets:
            # Requestor is the only sharer: silent upgrade.
            entry.sharers.clear()
            entry.owner = core
            self._reply(core, "coh_l1.data_e", line, delay)
            return
        self._busy[line] = _Txn("getm", core, needed_acks=len(targets))
        self.stats.counter("invalidations_sent").inc(len(targets))
        for sharer in targets:
            self._fwd(sharer, "coh_l1.inv", line)

    def _do_putm(self, line: int, core: CoreId) -> None:
        entry = self.entry(line)
        if entry.owner == core:
            entry.owner = None
            self.stats.counter("writebacks").inc()
        # Stale PutM (ownership already moved on): ignore silently.

    def _on_ack(self, line: int) -> None:
        txn = self._busy.get(line)
        if txn is None:
            raise ProtocolError(f"dir {self.tile}: stray ack for line {line}")
        txn.needed_acks -= 1
        if txn.needed_acks > 0:
            return
        entry = self.entry(line)
        if txn.kind == "gets":
            old_owner = entry.owner
            entry.owner = None
            entry.sharers = {txn.requestor}
            if old_owner is not None:
                entry.sharers.add(old_owner)
            self._reply(
                txn.requestor, "coh_l1.data_s", line, self.params.slice_latency
            )
        else:  # getm
            entry.sharers.clear()
            entry.owner = txn.requestor
            self._reply(
                txn.requestor, "coh_l1.data_e", line, self.params.slice_latency
            )
