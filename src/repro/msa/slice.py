"""One tile's MSA slice: the distributed synchronization accelerator
(paper sections 3 and 4).

The slice owns the MSA entries for synchronization addresses homed at
this tile, the tile's OMU, and the per-slice NBTC fairness register.
It speaks four protocols over the NoC:

* core <-> slice: the ISA requests (``msa.req``), FINISH/SUSPEND
  notifications, and responses (``msa_cpu.resp``);
* the HWSync-bit protocol: silent re-acquire notifications
  (``msa.silent``) and revoke round-trips (``msa_cpu.revoke`` /
  ``msa.revoke_ack``) that keep silent acquisition safe;
* slice <-> slice: the condvar protocol that pins a condvar's lock to
  its MSA entry (``msa.unlock_pin`` / ``msa.lock_onbehalf`` / ...);
* entry reclamation: lazy revocation of idle HWSync-pinned entries when
  allocation pressure needs a free entry.

Safety argument mirrors the paper: an entry is allocated for an
acquire-type request only when the OMU counter for the address is zero
(no software-side owner/waiter exists), an existing entry always wins
the lookup (hardware episodes drain before software can start), and an
entry with an outstanding HWSync bit is never deallocated without a
revoke round-trip (so a silent re-acquire can never race with a
software fallback).
"""

from __future__ import annotations

from collections import OrderedDict
from heapq import heappush
from typing import Dict, Optional

from repro.common.errors import ProtocolError
from repro.common.params import MSAParams, OMUParams
from repro.common.stats import StatSet
from repro.common.types import Address, CoreId, SyncOp, SyncResult, SyncType, TileId
from repro.msa.entry import MSAEntry
from repro.msa.omu import make_omu
from repro.noc.message import Message
from repro.noc.network import Network
from repro.sim.kernel import Simulator

# Enum members as module globals: on Python 3.11 reading a member through
# its class costs about four plain attribute reads (``EnumType`` defines
# ``__getattr__``), and the sync path reads several per operation.
_LOCK = SyncOp.LOCK
_TRYLOCK = SyncOp.TRYLOCK
_UNLOCK = SyncOp.UNLOCK
_BARRIER = SyncOp.BARRIER
_COND_WAIT = SyncOp.COND_WAIT
_COND_SIGNAL = SyncOp.COND_SIGNAL
_COND_BCAST = SyncOp.COND_BCAST
_SUCCESS = SyncResult.SUCCESS
_FAIL = SyncResult.FAIL
_ABORT = SyncResult.ABORT
_BUSY = SyncResult.BUSY
_TYPE_LOCK = SyncType.LOCK
_TYPE_BARRIER = SyncType.BARRIER
_TYPE_CONDVAR = SyncType.CONDVAR


class MSASlice:
    """The synchronization accelerator slice at one tile."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        tile: TileId,
        params: MSAParams,
        omu_params: OMUParams,
        home_of: callable,
        line_shift: int = 6,
        hw_threads: int = 1,
    ):
        self.sim = sim
        self.network = network
        self.tile = tile
        self.params = params
        self.omu_params = omu_params
        self.home_of = home_of
        self.hw_threads = hw_threads
        """Hardware thread contexts per core; HWQueue entries are
        requester ids (core * hw_threads + slot, paper section 3)."""

        self.stats = StatSet(f"msa.{tile}")
        self.omu = make_omu(omu_params, self.stats, line_shift)
        self.entries: Dict[Address, MSAEntry] = {}
        self.nbtc: CoreId = 0
        """Next-bit-to-check register: one per slice (not per entry),
        round-robin start position for waiter selection (section 4.1)."""

        self.dead = False
        """Fail-stop flag: a killed slice ignores every message."""

        self.probe = None
        """The machine's event bus (:mod:`repro.verify.events`); ``None``
        keeps the hot path to a single attribute test."""

        # Fault machinery; inert until arm_faults() (fault-plan builds).
        self._injector = None
        self._plane = None
        self._fault_params = None
        self._inflight: set = set()
        """Accepted-but-unanswered req_ids: duplicates (core retries
        racing the original) are dropped, keeping retries idempotent.
        Requests answered remotely on our behalf (condvar wakeups
        complete at the *lock* home) stay in the set, which is exactly
        right -- a retry must not re-enqueue the waiter."""

        self._resp_cache: "OrderedDict[int, tuple]" = OrderedDict()
        """req_id -> response args for completed requests; a retry of a
        finished request replays the cached response instead of
        re-executing (exactly-once semantics at the protocol level)."""

        # Hot-path handles, bound lazily on first increment so a slice
        # that never performs the operation registers no counter (the
        # golden counter dictionaries depend on that).
        self._ops_hw = None
        self._ops_sw = None
        self._ops_aborted = None
        self._lock_grants = None
        self._entries_allocated = None
        self._omu_steered_sw = None
        self._alloc_full = None
        self._alloc_deferred = None
        self._reclaims_started = None
        self._revokes_sent = None
        self._silent_acquires = None
        self._barrier_releases = None
        self._req_counts: dict = {}
        self._drop_counts: dict = {}
        self._access_latency = params.msa_access_latency
        # For the inline calendar push of responses (_respond).
        self._buckets = sim._buckets
        self._times = sim._times

        network.register(tile, "msa", self._on_message)

    def arm_faults(self, injector, plane, fault_params) -> None:
        """Enable the fault plane's slice-side machinery: accept/pong
        keepalives, duplicate suppression, and flaky-window verdicts."""
        self._injector = injector
        self._plane = plane
        self._fault_params = fault_params
        for name in ("dup_suppressed", "resp_replayed", "pongs_sent"):
            self.stats.counter(name)

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def _core_of(self, requester: CoreId) -> CoreId:
        """Physical core (tile) hosting a requester (HWQueue bit)."""
        return requester // self.hw_threads

    def _respond(
        self,
        core: CoreId,
        req_id: int,
        result: SyncResult,
        addr: Address,
        grant_hwsync: bool = False,
        rearm: bool = False,
    ) -> None:
        probe = self.probe
        if probe is not None and probe.trace_active:
            probe.emit(
                "msa_respond", addr=addr, aux=(result.value, {"core": core}),
                tile=self.tile,
            )
        if result is _SUCCESS:
            ops = self._ops_hw
            if ops is None:
                ops = self._ops_hw = self.stats.counter("ops_hw")
        elif result is _FAIL:
            ops = self._ops_sw
            if ops is None:
                ops = self._ops_sw = self.stats.counter("ops_sw")
        else:
            ops = self._ops_aborted
            if ops is None:
                ops = self._ops_aborted = self.stats.counter("ops_aborted")
        ops.value += 1
        if self._injector is not None:
            self._inflight.discard(req_id)
            self._resp_cache[req_id] = (core, result, addr, grant_hwsync, rearm)
            while len(self._resp_cache) > self._fault_params.response_cache_size:
                self._resp_cache.popitem(last=False)
        # Simulator.schedule inlined (MSAParams validates the access
        # latency >= 0).
        when = self.sim.now + self._access_latency
        entry = (
            self._send_response,
            (core, req_id, result, addr, grant_hwsync, rearm),
        )
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)

    def _send_response(self, args: tuple) -> None:
        """Emit the ``msa_cpu.resp`` for a completed request.  ``args``
        is the ``(core, req_id, result, addr, grant_hwsync, rearm)``
        tuple :meth:`_respond` scheduled (tuple arg, not a closure: one
        of these fires per accelerator operation)."""
        core, req_id, result, addr, grant_hwsync, rearm = args
        self.network.send(
            Message(
                self.tile,
                self._core_of(core),
                "msa_cpu.resp",
                {
                    "result": result,
                    "req_id": req_id,
                    "addr": addr,
                    "grant_hwsync": grant_hwsync,
                    "rearm": rearm,
                },
            )
        )

    # ------------------------------------------------------------------
    # Fault-plane machinery (slice side)
    # ------------------------------------------------------------------
    def _admit_request(self, p: dict) -> bool:
        """Gatekeeper for ``msa.req`` under a fault plan: deduplicate
        retries, apply flaky-window verdicts, and acknowledge delivery
        (``msa_cpu.accept``) so the requesting unit stops re-sending."""
        req_id = p["req_id"]
        if req_id in self._resp_cache:
            # Retry of an already-answered request: replay the cached
            # response verbatim instead of re-executing the operation.
            self.stats["resp_replayed"].inc()
            probe = self.probe
            if probe is not None and probe.trace_active:
                probe.emit(
                    "msa_respond", aux=("replay", {"req": req_id}),
                    tile=self.tile,
                )
            self.sim.schedule(
                self.params.msa_access_latency,
                lambda: self._send_response(self._expand_cached(req_id)),
            )
            return False
        if req_id in self._inflight:
            self.stats["dup_suppressed"].inc()
            return False
        verdict = self._injector.flaky_verdict(
            self.tile, entry_hit=p["addr"] in self.entries
        )
        if verdict == "drop":
            # As if the request died on the last hop: no accept, no
            # state change; the requester's retry recovers.
            return False
        self._inflight.add(req_id)
        self.network.send(
            Message(
                src=self.tile,
                dst=self._core_of(p["core"]),
                kind="msa_cpu.accept",
                payload={"req_id": req_id},
            )
        )
        op = p["op"]
        if verdict == "abort" and op in (_LOCK, _TRYLOCK, _BARRIER):
            # Flaky ABORT is only safe for acquire-type requests that
            # *missed* in the entry array (the injector guarantees the
            # miss): charging the OMU steers the rest of the episode to
            # software, so it cannot split across hardware and software.
            # COND_WAIT is exempt -- its ABORT contract assumes the
            # associated lock was already released by the MSA.
            self._omu_increment(p["addr"])
            self._respond(p["core"], req_id, _ABORT, p["addr"])
            return False
        return True

    def _expand_cached(self, req_id: int) -> tuple:
        core, result, addr, grant_hwsync, rearm = self._resp_cache[req_id]
        return core, req_id, result, addr, grant_hwsync, rearm

    def kill(self) -> None:
        """Fail-stop this slice at the current cycle.

        All entry, OMU, and fairness state is lost and every subsequent
        message is ignored; waiting sync units detect the silence via
        their timeout/ping escalation and degrade this home tile to
        software synchronization.  The one *dying gasp* the model grants
        is for condition-variable waiters parked in our entries: their
        wake-ups exist nowhere else, so they are aborted now (the
        runtime treats that as a spurious wakeup and re-acquires), and
        reservation-queued requests are failed into the software path.
        Lock and barrier waiters need no gasp -- their recovery is fully
        driven by the requester-side timeout machinery."""
        if self.dead:
            return
        self.dead = True
        self.stats.counter("killed").inc()
        if self.probe is not None:
            self.probe.emit("msa_kill", tile=self.tile)
        for entry in list(self.entries.values()):
            if entry.sync_type is not _TYPE_CONDVAR:
                continue
            # Parked waiters released their lock (UNLOCK&PIN or
            # unlock-on-behalf): ABORT = spurious wakeup, re-acquire.
            for wcore, wreq in list(entry.waiters.items()):
                self._respond(wcore, wreq, _ABORT, entry.addr)
            entry.waiters.clear()
            # Reservation-queued requests still hold their lock; FAIL
            # routes them to software, which releases it properly.
            for item in entry.reserve_queue:
                if item[0] == "cond_wait":
                    _, cond_addr, _lock_addr, core, req_id = item
                    self._respond(core, req_id, _FAIL, cond_addr)
                else:
                    _, cond_addr, core, req_id, _bcast = item
                    self._respond(core, req_id, _FAIL, cond_addr)
            entry.reserve_queue.clear()

    def _send_slice(self, dst: TileId, kind: str, **payload) -> None:
        self.sim.schedule(
            self.params.msa_access_latency,
            lambda: self.network.send(
                Message(src=self.tile, dst=dst, kind=kind, payload=payload)
            ),
        )

    def _send_revoke(self, core: CoreId, addr: Address) -> None:
        sent = self._revokes_sent
        if sent is None:
            sent = self._revokes_sent = self.stats.counter("revokes_sent")
        sent.value += 1
        self._send_slice(core, "msa_cpu.revoke", addr=addr)

    def _omu_increment(self, addr: Address, amount: int = 1) -> None:
        if self.omu_params.enabled:
            self.omu.increment(addr, amount)
            if self.probe is not None:
                self.probe.emit(
                    "omu_inc", addr=addr, aux=amount, tile=self.tile
                )

    def _omu_decrement(self, addr: Address, amount: int = 1) -> None:
        if self.omu_params.enabled:
            self.omu.decrement(addr, amount)
            if self.probe is not None:
                self.probe.emit(
                    "omu_dec", addr=addr, aux=amount, tile=self.tile
                )

    def _omu_active(self, addr: Address) -> bool:
        return self.omu_params.enabled and self.omu.is_active(addr)

    @property
    def full(self) -> bool:
        if self.params.is_infinite:
            return False
        return len(self.entries) >= self.params.entries_per_tile

    # ------------------------------------------------------------------
    # Entry lifecycle
    # ------------------------------------------------------------------
    #: Sentinel: the request was queued behind an entry reclamation and
    #: will replay when the revoke acknowledgment arrives.
    DEFERRED = object()

    def _try_allocate(self, addr: Address, sync_type: SyncType, replay=None):
        """Allocate an entry for an acquire-type request.

        Returns the new entry, ``None`` when the request must be steered
        to software (Figures 2-4), or :data:`DEFERRED` when the slice is
        full of idle HWSync-pinned entries: the request then waits out
        one revoke round-trip and replays (``replay`` thunk) instead of
        paying a full software fallback.
        """
        if not self.params.supports(sync_type):
            return None
        if self._omu_active(addr):
            steered = self._omu_steered_sw
            if steered is None:
                steered = self._omu_steered_sw = self.stats.counter(
                    "omu_steered_sw"
                )
            steered.value += 1
            if self.probe is not None:
                self.probe.emit(
                    "omu_steer", addr=addr, aux=sync_type.value,
                    tile=self.tile,
                )
            return None
        if self.full and not self._evict_one_evictable():
            if replay is not None and self._defer_on_reclaim(replay):
                return self.DEFERRED
            full = self._alloc_full
            if full is None:
                full = self._alloc_full = self.stats.counter("alloc_full")
            full.value += 1
            return None
        entry = MSAEntry(addr=addr, sync_type=sync_type)
        self.entries[addr] = entry
        allocated = self._entries_allocated
        if allocated is None:
            allocated = self._entries_allocated = self.stats.counter(
                "entries_allocated"
            )
        allocated.value += 1
        if self.probe is not None:
            self.probe.emit(
                "msa_alloc",
                addr=addr,
                aux=(sync_type.value, len(self.entries)),
                tile=self.tile,
            )
        return entry

    def _defer_on_reclaim(self, replay) -> bool:
        """Queue ``replay`` behind an idle entry's reclamation (starting
        one if needed).  Returns False when no entry is reclaimable."""
        for entry in self.entries.values():
            if entry.reclaiming:
                entry.reclaim_waiters.append(replay)
                self._count_deferred()
                return True
        for entry in self.entries.values():
            if entry.idle_cached():
                entry.reclaiming = True
                entry.revoking = True
                entry.reclaim_waiters.append(replay)
                started = self._reclaims_started
                if started is None:
                    started = self._reclaims_started = self.stats.counter(
                        "reclaims_started"
                    )
                started.value += 1
                self._count_deferred()
                self._send_revoke(entry.hwsync_core, entry.addr)
                return True
        return False

    def _count_deferred(self) -> None:
        deferred = self._alloc_deferred
        if deferred is None:
            deferred = self._alloc_deferred = self.stats.counter(
                "alloc_deferred"
            )
        deferred.value += 1

    def _drop_entry(
        self,
        addr: Address,
        reason: str,
        counter: Optional[str] = "entries_freed",
    ) -> None:
        """Single exit point for entry deallocation: delete, count, and
        tell the checker probe why (the entry-conservation monitor
        balances allocations against these)."""
        del self.entries[addr]
        if counter is not None:
            handle = self._drop_counts.get(counter)
            if handle is None:
                handle = self._drop_counts[counter] = self.stats.counter(
                    counter
                )
            handle.value += 1
        if self.probe is not None:
            self.probe.emit("msa_free", addr=addr, aux=reason, tile=self.tile)

    def _maybe_free(self, entry: MSAEntry) -> None:
        if not self.omu_params.enabled:
            # "Without OMU" model (Figure 7): entries are only
            # allocated/deallocated at object init/destroy, so once an
            # address gets an entry it keeps it.
            return
        if not entry.evictable():
            return
        if entry.sync_type is _TYPE_LOCK and self.params.hwsync_opt:
            # Keep idle lock entries on probation (they carry the reuse
            # predictor); they cost nothing -- allocation evicts them
            # instantly on demand, no revoke needed.
            return
        self._drop_entry(entry.addr, "idle")

    def _evict_one_evictable(self) -> bool:
        """Free one instantly-evictable entry to make room; returns
        False when none exists (never in the no-OMU model, where
        entries are permanent)."""
        if not self.omu_params.enabled:
            return False
        for entry in self.entries.values():
            if entry.evictable():
                self._drop_entry(entry.addr, "evict", counter="entries_evicted")
                return True
        return False

    def _select_waiter(self, entry: MSAEntry) -> CoreId:
        """Round-robin selection starting at the slice's NBTC register:
        the waiting requester fewest positions at or after NBTC (mod the
        requester count) wins, and NBTC moves to the position after it.
        A min over the waiters, not a scan of every position."""
        if not entry.waiters:
            raise ProtocolError(f"select_waiter on empty HWQueue: {entry}")
        n = self.network.topology.n_tiles * self.hw_threads
        nbtc = self.nbtc
        candidate = min(entry.waiters, key=lambda w: (w - nbtc) % n)
        self.nbtc = (candidate + 1) % n
        return candidate

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if self.dead:
            return
        kind = msg.kind
        p = msg.payload
        if self._injector is not None:
            if kind == "msa.ping":
                # Liveness probe from a waiting sync unit: any answer
                # (regardless of request state) resets its escalation.
                self.stats["pongs_sent"].inc()
                self.network.send(
                    Message(
                        src=self.tile,
                        dst=msg.src,
                        kind="msa_cpu.pong",
                        payload={"req_id": p["req_id"]},
                    )
                )
                return
            if kind == "msa.req" and not self._admit_request(p):
                return
        if kind == "msa.req":
            self._handle_request(
                p["op"], p["addr"], p["aux"], p["core"], p["req_id"]
            )
        elif kind == "msa.silent":
            self._handle_silent(p["addr"], p["core"])
        elif kind == "msa.revoke_ack":
            self._handle_revoke_ack(p["addr"])
        elif kind == "msa.finish":
            self._omu_decrement(p["addr"])
        elif kind == "msa.suspend":
            self._handle_suspend(p["addr"], p["core"])
        elif kind == "msa.unlock_pin":
            self._handle_unlock_pin(p["lock_addr"], p["cond_addr"], p["waiter"], msg.src)
        elif kind == "msa.unlock_pin_resp":
            self._handle_unlock_pin_resp(p["cond_addr"], p["ok"])
        elif kind == "msa.unlock_onbehalf":
            self._handle_unlock_onbehalf(p["lock_addr"], p["waiter"])
        elif kind == "msa.lock_onbehalf":
            self._handle_lock_onbehalf(
                p["lock_addr"], p["waiter"], p["req_id"], p["unpin"]
            )
        elif kind == "msa.unpin":
            self._handle_unpin(p["lock_addr"])
        else:
            raise ProtocolError(f"MSA slice {self.tile}: unknown {msg}")

    def _handle_request(
        self, op: SyncOp, addr: Address, aux: int, core: CoreId, req_id: int
    ) -> None:
        counts = self._req_counts
        count = counts.get(op)
        if count is None:
            count = counts[op] = self.stats.counter(f"req.{op.value}")
        count.value += 1
        if op is _LOCK:
            self._handle_lock(addr, core, req_id)
        elif op is _TRYLOCK:
            self._handle_trylock(addr, core, req_id)
        elif op is _UNLOCK:
            self._handle_unlock(addr, core, req_id)
        elif op is _BARRIER:
            self._handle_barrier(addr, aux, core, req_id)
        elif op is _COND_WAIT:
            self._handle_cond_wait(addr, aux, core, req_id)
        elif op is _COND_SIGNAL:
            self._handle_cond_signal(addr, core, req_id, broadcast=False)
        elif op is _COND_BCAST:
            self._handle_cond_signal(addr, core, req_id, broadcast=True)
        else:
            raise ProtocolError(f"unexpected request op {op}")

    def _typed_entry(
        self, addr: Address, sync_type: SyncType
    ) -> Optional[MSAEntry]:
        entry = self.entries.get(addr)
        if entry is not None and entry.sync_type is not sync_type:
            raise ProtocolError(
                f"address {addr:#x} used as {sync_type.value} but MSA entry "
                f"is {entry.sync_type.value}: mixed-type synchronization"
            )
        return entry

    # ------------------------------------------------------------------
    # Locks (section 4.1)
    # ------------------------------------------------------------------
    def _handle_lock(self, addr: Address, core: CoreId, req_id: int) -> None:
        entry = self._typed_entry(addr, _TYPE_LOCK)
        if entry is None:
            entry = self._try_allocate(
                addr,
                _TYPE_LOCK,
                replay=lambda: self._handle_lock(addr, core, req_id),
            )
            if entry is self.DEFERRED:
                return
            if entry is None:
                self._omu_increment(addr)
                self._respond(core, req_id, _FAIL, addr)
                return
        entry.waiters[core] = req_id
        self._try_grant(entry)

    def _handle_trylock(self, addr: Address, core: CoreId, req_id: int) -> None:
        """TRYLOCK extension: grant immediately when the lock is free
        and hardware-manageable, respond BUSY when it is hardware-owned,
        never enqueue and never wait (not even for a revoke)."""
        entry = self._typed_entry(addr, _TYPE_LOCK)
        if entry is None:
            entry = self._try_allocate(addr, _TYPE_LOCK)
            if entry is None or entry is self.DEFERRED:
                # No entry and no instant allocation: steer to the
                # software trylock.  (The runtime balances the OMU with
                # FINISH when its software attempt fails to acquire.)
                if entry is self.DEFERRED:
                    raise ProtocolError("trylock must not be deferred")
                self._omu_increment(addr)
                self._respond(core, req_id, _FAIL, addr)
                return
        if entry.owner is not None or entry.waiters or entry.revoking:
            self._respond(core, req_id, _BUSY, addr)
            self._maybe_free(entry)
            return
        if (
            self.params.hwsync_opt
            and entry.hwsync_core is not None
            and entry.hwsync_core != self._core_of(core)
        ):
            # Another core may silently re-take the lock; a trylock
            # cannot wait out the revoke, so report BUSY conservatively.
            self._respond(core, req_id, _BUSY, addr)
            return
        entry.waiters[core] = req_id
        self._complete_grant(entry, core)

    def _try_grant(self, entry: MSAEntry) -> None:
        if entry.owner is not None or entry.revoking or not entry.waiters:
            return
        core = self._select_waiter(entry)
        if (
            self.params.hwsync_opt
            and entry.hwsync_core is not None
            and entry.hwsync_core != self._core_of(core)
        ):
            # The last-granted core may silently re-acquire through its
            # HWSync bit; revoke it before handing the lock elsewhere.
            entry.revoking = True
            entry.pending_grant = core
            self._send_revoke(entry.hwsync_core, entry.addr)
            return
        self._complete_grant(entry, core)

    def _complete_grant(self, entry: MSAEntry, core: CoreId) -> None:
        req_id = entry.waiters.pop(core)
        entry.owner = core
        grant_hwsync = self.params.hwsync_opt
        if grant_hwsync:
            # The HWSync bit lives in the *core's* cache, so predictor
            # state tracks physical cores, not hardware threads.
            granted_core = self._core_of(core)
            entry.hwsync_core = granted_core
            if entry.last_owner == granted_core:
                entry.reuse_mode = True
            elif entry.last_owner is not None:
                entry.reuse_mode = False
            entry.last_owner = granted_core
        grants = self._lock_grants
        if grants is None:
            grants = self._lock_grants = self.stats.counter("lock_grants")
        grants.value += 1
        self._respond(
            core, req_id, _SUCCESS, entry.addr, grant_hwsync=grant_hwsync
        )

    def _handle_unlock(self, addr: Address, core: CoreId, req_id: int) -> None:
        entry = self._typed_entry(addr, _TYPE_LOCK)
        if entry is None:
            self._omu_decrement(addr)
            self._respond(core, req_id, _FAIL, addr)
            return
        if entry.owner == core:
            entry.owner = None
            # The releasing core disarmed its own HWSync bit before this
            # UNLOCK became visible, so a handoff grant needs no revoke.
            entry.hwsync_core = None
            if (
                entry.waiters
                or not self.params.hwsync_opt
                or entry.revoking
                or not entry.reuse_mode
            ):
                # No re-arm: on a handoff the grant supersedes it; while
                # a revoke is in flight the pending acknowledgment will
                # clear hwsync_core and must not race a fresh grant of
                # the bit; and without observed same-core reuse the
                # entry is more valuable evictable than pinned.
                self._respond(core, req_id, _SUCCESS, addr)
                self._try_grant(entry)
            else:
                # Reused idle lock: re-arm the releaser so its next LOCK
                # takes the silent fast path (section 5's target case).
                entry.hwsync_core = self._core_of(core)
                self._respond(core, req_id, _SUCCESS, addr, rearm=True)
            self._maybe_free(entry)
            return
        if entry.owner is None:
            # The entry is idle in hardware (probation/idle-cached), so
            # this releaser must hold the lock in *software*: behave
            # exactly like an entry miss (default-to-software).
            self._omu_decrement(addr)
            self._respond(core, req_id, _FAIL, addr)
            return
        # UNLOCK from a core that does not own the lock: the owning
        # thread was migrated (section 4.1.2).  Hand the lock's waiters
        # to software, after revoking any outstanding HWSync bit.
        self.stats.counter("migrated_unlocks").inc()
        if entry.hwsync_core is not None and not entry.revoking:
            # Clear the stale owner-of-record (the owning thread moved
            # away) and revoke the old core's HWSync bit before handing
            # everything to software.  If a *new* thread on the old core
            # silently re-acquires during the revoke window, the ack
            # handler detects it (owner re-set) and fails loudly -- a
            # corner the paper does not define behaviour for.
            entry.owner = None
            entry.revoking = True
            entry.pending_grant = None
            entry.teardown = (core, req_id)
            self._send_revoke(entry.hwsync_core, entry.addr)
            return
        self._finish_migrated_unlock(entry, core, req_id)

    def _finish_migrated_unlock(
        self, entry: MSAEntry, core: CoreId, req_id: int
    ) -> None:
        entry.owner = None
        entry.hwsync_core = None
        entry.reuse_mode = False
        self._respond(core, req_id, _SUCCESS, entry.addr)
        if entry.pin_count > 0 or not self.omu_params.enabled:
            # The entry must persist (condvar-pinned, or the no-OMU
            # model), so handing the waiters to software would let a
            # later hardware hit race them.  The lock is known free
            # (the migrated owner just released it), so keep the
            # waiters in hardware and grant normally instead.
            self.stats.counter("migrated_unlock_kept_hw").inc()
            self._try_grant(entry)
            return
        # Hand everything to software: ABORT the waiters, charge the
        # OMU, and *delete* the entry -- a lingering entry would let
        # the next LOCK hit it and bypass the OMU while the aborted
        # waiters own the lock in software.
        aborted = list(entry.waiters.items())
        entry.waiters.clear()
        for wcore, wreq in aborted:
            self._respond(wcore, wreq, _ABORT, entry.addr)
        if aborted:
            self._omu_increment(entry.addr, len(aborted))
        self._drop_entry(entry.addr, "migrated_unlock")

    def _handle_silent(self, addr: Address, core: CoreId) -> None:
        """LOCK_SILENT: requester ``core`` re-acquired the lock through
        its physical core's HWSync bit without waiting for our response
        (section 5)."""
        entry = self.entries.get(addr)
        if entry is None or entry.hwsync_core != self._core_of(core):
            raise ProtocolError(
                f"LOCK_SILENT from requester {core} for {addr:#x} without "
                f"a matching HWSync grant (entry={entry})"
            )
        if entry.owner is not None:
            raise ProtocolError(
                f"LOCK_SILENT from requester {core} but {addr:#x} is owned "
                f"by requester {entry.owner}"
            )
        entry.owner = core
        acquires = self._silent_acquires
        if acquires is None:
            acquires = self._silent_acquires = self.stats.counter(
                "silent_acquires"
            )
        acquires.value += 1
        ops = self._ops_hw
        if ops is None:
            ops = self._ops_hw = self.stats.counter("ops_hw")
        ops.value += 1

    def _handle_revoke_ack(self, addr: Address) -> None:
        entry = self.entries.get(addr)
        if entry is None or not entry.revoking:
            raise ProtocolError(f"stray revoke ack for {addr:#x}")
        entry.revoking = False
        reclaiming, entry.reclaiming = entry.reclaiming, False
        deferred, entry.reclaim_waiters = entry.reclaim_waiters, []
        teardown = getattr(entry, "teardown", None)
        if teardown is not None:
            del entry.teardown
            if entry.owner is not None:
                raise ProtocolError(
                    "silent re-acquire raced a migrated-owner UNLOCK "
                    f"teardown on {addr:#x}"
                )
            self._finish_migrated_unlock(entry, *teardown)
            self._replay_deferred(deferred)
            return
        if entry.owner is not None:
            # Retaken: a LOCK_SILENT arrived (FIFO: before this ack), so
            # the bit holder owns the lock again; deferred grantee waits.
            entry.pending_grant = None
            self.stats.counter("revokes_retaken").inc()
            self._replay_deferred(deferred)
            return
        entry.hwsync_core = None
        grantee = entry.pending_grant
        entry.pending_grant = None
        if grantee is not None and grantee in entry.waiters:
            self._complete_grant(entry, grantee)
            self._replay_deferred(deferred)
            return
        if reclaiming:
            self.stats.counter("reclaims_completed").inc()
        self._try_grant(entry)
        self._maybe_free(entry)
        # Requests queued behind this reclamation re-enter their
        # handlers now; if the entry freed they will allocate it.
        self._replay_deferred(deferred)

    def _replay_deferred(self, deferred) -> None:
        for replay in deferred:
            replay()

    # ------------------------------------------------------------------
    # Barriers (section 4.2)
    # ------------------------------------------------------------------
    def _handle_barrier(
        self, addr: Address, goal: int, core: CoreId, req_id: int
    ) -> None:
        entry = self._typed_entry(addr, _TYPE_BARRIER)
        if entry is None:
            entry = self._try_allocate(
                addr,
                _TYPE_BARRIER,
                replay=lambda: self._handle_barrier(addr, goal, core, req_id),
            )
            if entry is self.DEFERRED:
                return
            if entry is None:
                self._omu_increment(addr)
                self._respond(core, req_id, _FAIL, addr)
                return
            entry.barrier_goal = goal
        elif entry.barrier_goal == 0:
            # Persistent entry (no-OMU mode) starting a new episode.
            entry.barrier_goal = goal
        elif entry.barrier_goal != goal:
            raise ProtocolError(
                f"barrier {addr:#x}: goal {goal} != active episode goal "
                f"{entry.barrier_goal}"
            )
        entry.waiters[core] = req_id
        if len(entry.waiters) >= entry.barrier_goal:
            self._release_barrier(entry)

    def _release_barrier(self, entry: MSAEntry) -> None:
        releases = self._barrier_releases
        if releases is None:
            releases = self._barrier_releases = self.stats.counter(
                "barrier_releases"
            )
        releases.value += 1
        arrived = list(entry.waiters.items())
        entry.waiters.clear()
        entry.barrier_goal = 0
        for core, req_id in arrived:
            self._respond(core, req_id, _SUCCESS, entry.addr)
        self._maybe_free(entry)

    # ------------------------------------------------------------------
    # Condition variables (section 4.3)
    # ------------------------------------------------------------------
    def _handle_cond_wait(
        self, cond_addr: Address, lock_addr: Address, core: CoreId, req_id: int
    ) -> None:
        if self._plane is not None and self._plane.is_degraded(
            self.home_of(lock_addr)
        ):
            # The mutex's home tile is degraded: the pin/wake protocol
            # cannot run (the lock will never be hardware-managed
            # again), so fail to software *here*, at the condvar home,
            # which balances this OMU charge with the runtime's FINISH.
            self._omu_increment(cond_addr)
            self._respond(core, req_id, _FAIL, cond_addr)
            return
        entry = self._typed_entry(cond_addr, _TYPE_CONDVAR)
        if entry is not None and entry.reserved:
            entry.reserve_queue.append(
                ("cond_wait", cond_addr, lock_addr, core, req_id)
            )
            return
        if entry is not None:
            if entry.hwqueue_empty() and entry.cond_lock_addr != lock_addr:
                # Persistent entry (no-OMU mode) being reused with a
                # different mutex: re-run the reservation handshake so
                # the new lock gets pinned.
                entry.reserved = True
                entry.cond_lock_addr = lock_addr
                entry.waiters[core] = req_id
                self._send_slice(
                    self.home_of(lock_addr),
                    "msa.unlock_pin",
                    lock_addr=lock_addr,
                    cond_addr=cond_addr,
                    waiter=core,
                )
                return
            entry.waiters[core] = req_id
            self._send_slice(
                self.home_of(entry.cond_lock_addr),
                "msa.unlock_onbehalf",
                lock_addr=entry.cond_lock_addr,
                waiter=core,
            )
            return
        # Miss: allocate only if both the condvar and its lock can be
        # handled in hardware (Figure 4).  The lock side is verified by
        # the UNLOCK&PIN round trip; locally we check OMU and capacity.
        allocated = self._try_allocate(
            cond_addr,
            _TYPE_CONDVAR,
            replay=lambda: self._handle_cond_wait(cond_addr, lock_addr, core, req_id),
        )
        if allocated is self.DEFERRED:
            return
        if allocated is None:
            self._omu_increment(cond_addr)
            self._respond(core, req_id, _FAIL, cond_addr)
            return
        allocated.reserved = True
        allocated.cond_lock_addr = lock_addr
        allocated.waiters[core] = req_id
        self._send_slice(
            self.home_of(lock_addr),
            "msa.unlock_pin",
            lock_addr=lock_addr,
            cond_addr=cond_addr,
            waiter=core,
        )

    def _handle_unlock_pin(
        self, lock_addr: Address, cond_addr: Address, waiter: CoreId, cond_home: TileId
    ) -> None:
        """UNLOCK&PIN from a condvar home: release ``waiter``'s lock and
        pin the lock's entry so it outlives empty HWQueues."""
        entry = self.entries.get(lock_addr)
        ok = entry is not None and entry.sync_type is _TYPE_LOCK
        if ok and entry.owner != waiter:
            raise ProtocolError(
                f"UNLOCK&PIN: waiter core {waiter} does not own lock "
                f"{lock_addr:#x} (owner={entry.owner})"
            )
        if ok:
            entry.owner = None
            if entry.hwsync_core == self._core_of(waiter):
                entry.hwsync_core = None
            entry.pin_count += 1
            self.stats.counter("lock_pins").inc()
            self._try_grant(entry)
        self._send_slice(
            cond_home, "msa.unlock_pin_resp", cond_addr=cond_addr, ok=ok
        )

    def _handle_unlock_pin_resp(self, cond_addr: Address, ok: bool) -> None:
        entry = self.entries.get(cond_addr)
        if entry is None or not entry.reserved:
            raise ProtocolError(f"stray UNLOCK&PIN response for {cond_addr:#x}")
        queued = list(entry.reserve_queue)
        entry.reserve_queue.clear()
        if ok:
            entry.reserved = False
            for item in queued:
                self._replay_reserved(item)
            return
        # The lock is not in hardware: fail the reserving waiter(s).
        failed = list(entry.waiters.items())
        entry.waiters.clear()
        entry.reserved = False
        self._drop_entry(cond_addr, "reserve_fail", counter="cond_reserve_failures")
        for core, req_id in failed:
            self._omu_increment(cond_addr)
            self._respond(core, req_id, _FAIL, cond_addr)
        for item in queued:
            self._replay_reserved(item)

    def _replay_reserved(self, item) -> None:
        if item[0] == "cond_wait":
            _, cond_addr, lock_addr, core, req_id = item
            self._handle_cond_wait(cond_addr, lock_addr, core, req_id)
        else:
            _, cond_addr, core, req_id, broadcast = item
            self._handle_cond_signal(cond_addr, core, req_id, broadcast)

    def _handle_unlock_onbehalf(self, lock_addr: Address, waiter: CoreId) -> None:
        entry = self.entries.get(lock_addr)
        if entry is None or entry.owner != waiter:
            raise ProtocolError(
                f"unlock-on-behalf of core {waiter} for {lock_addr:#x}: "
                f"lock not hardware-owned by the waiter (entry={entry})"
            )
        entry.owner = None
        # The waiter's core disarmed its HWSync bit when it issued
        # COND_WAIT, so the grant path needs no revoke.
        if entry.hwsync_core == self._core_of(waiter):
            entry.hwsync_core = None
        self._try_grant(entry)

    def _handle_cond_signal(
        self, addr: Address, core: CoreId, req_id: int, broadcast: bool
    ) -> None:
        entry = self._typed_entry(addr, _TYPE_CONDVAR)
        if entry is not None and entry.reserved:
            entry.reserve_queue.append(("signal", addr, core, req_id, broadcast))
            return
        if entry is None:
            self._respond(core, req_id, _FAIL, addr)
            return
        if not entry.waiters:
            # Persistent entry (no-OMU mode) with nobody waiting: the
            # signal is a hardware-handled no-op (POSIX semantics).
            self._respond(core, req_id, _SUCCESS, addr)
            return
        self._respond(core, req_id, _SUCCESS, addr)
        if broadcast:
            released = []
            while entry.waiters:
                wcore = self._select_waiter(entry)
                released.append((wcore, entry.waiters.pop(wcore)))
        else:
            wcore = self._select_waiter(entry)
            released = [(wcore, entry.waiters.pop(wcore))]
        self.stats.counter("cond_wakeups").inc(len(released))
        lock_home = self.home_of(entry.cond_lock_addr)
        entry_empty = not entry.waiters
        # In no-OMU mode the entry (and its lock pin) persists forever,
        # so the last wake-up only carries UNPIN when the entry frees.
        frees_entry = entry_empty and self.omu_params.enabled
        for index, (wcore, wreq) in enumerate(released):
            last = index == len(released) - 1
            self._send_slice(
                lock_home,
                "msa.lock_onbehalf",
                lock_addr=entry.cond_lock_addr,
                waiter=wcore,
                req_id=wreq,
                unpin=last and frees_entry,
            )
        if frees_entry:
            self._drop_entry(addr, "cond_drain")

    def _handle_lock_onbehalf(
        self, lock_addr: Address, waiter: CoreId, req_id: int, unpin: bool
    ) -> None:
        """LOCK (or LOCK&UNPIN) issued by a condvar home on behalf of a
        woken waiter; our response completes the waiter's COND_WAIT."""
        entry = self.entries.get(lock_addr)
        if entry is None or entry.sync_type is not _TYPE_LOCK:
            raise ProtocolError(
                f"lock-on-behalf for {lock_addr:#x}: pinned lock entry missing"
            )
        if unpin:
            if entry.pin_count < 1:
                raise ProtocolError(f"LOCK&UNPIN on unpinned {lock_addr:#x}")
            entry.pin_count -= 1
            self.stats.counter("lock_unpins").inc()
        entry.waiters[waiter] = req_id
        self._try_grant(entry)

    def _handle_unpin(self, lock_addr: Address) -> None:
        entry = self.entries.get(lock_addr)
        if entry is None or entry.pin_count < 1:
            raise ProtocolError(f"unpin of unpinned lock {lock_addr:#x}")
        entry.pin_count -= 1
        self.stats.counter("lock_unpins").inc()
        self._maybe_free(entry)

    # ------------------------------------------------------------------
    # Suspension / migration (sections 4.1.2, 4.2.2, 4.3.2)
    # ------------------------------------------------------------------
    def _handle_suspend(self, addr: Address, core: CoreId) -> None:
        entry = self.entries.get(addr)
        if entry is None:
            return  # Raced with a release/grant already in flight.
        if entry.sync_type is _TYPE_LOCK:
            # Dequeue the core; its LOCK was squashed core-side and will
            # re-execute after the thread resumes.
            if core in entry.waiters:
                entry.waiters.pop(core)
                self.stats.counter("lock_suspends").inc()
                self._maybe_free(entry)
        elif entry.sync_type is _TYPE_BARRIER:
            # Force the whole barrier episode to software.
            aborted = list(entry.waiters.items())
            if not aborted:
                return
            entry.waiters.clear()
            entry.barrier_goal = 0
            self.stats.counter("barrier_suspends").inc()
            for wcore, wreq in aborted:
                self._respond(wcore, wreq, _ABORT, addr)
            self._omu_increment(addr, len(aborted))
            self._maybe_free(entry)
        else:  # condvar
            if core not in entry.waiters:
                return  # Raced with a signal; wake-up response in flight.
            wreq = entry.waiters.pop(core)
            self.stats.counter("cond_suspends").inc()
            self._respond(core, wreq, _ABORT, addr)
            self._omu_increment(addr)
            if (
                not entry.waiters
                and not entry.reserved
                and self.omu_params.enabled
            ):
                self._send_slice(
                    self.home_of(entry.cond_lock_addr),
                    "msa.unpin",
                    lock_addr=entry.cond_lock_addr,
                )
                self._drop_entry(addr, "cond_suspend")

    # ------------------------------------------------------------------
    # Introspection for tests and invariant checks
    # ------------------------------------------------------------------
    def entry_for(self, addr: Address) -> Optional[MSAEntry]:
        return self.entries.get(addr)

    def check_invariants(self) -> None:
        for entry in self.entries.values():
            if entry.pin_count < 0:
                raise ProtocolError(f"negative pin count: {entry}")
            if entry.sync_type is _TYPE_LOCK and entry.barrier_goal:
                raise ProtocolError(f"lock entry with barrier goal: {entry}")
            if (
                entry.sync_type is not _TYPE_LOCK
                and entry.owner is not None
            ):
                raise ProtocolError(f"non-lock entry with owner: {entry}")
        if (
            not self.params.is_infinite
            and len(self.entries) > self.params.entries_per_tile
        ):
            raise ProtocolError(
                f"slice {self.tile} holds {len(self.entries)} entries, "
                f"capacity {self.params.entries_per_tile}"
            )
