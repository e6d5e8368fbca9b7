"""The per-core synchronization instruction unit (the paper's ISA
extension, section 3).

A core issues one synchronization instruction at a time (each acts as a
memory fence and executes at ROB head, so the thread blocks on it).  The
unit:

* sends ``msa.req`` messages to the address's home tile and matches
  responses by request id;
* implements the MSA-0 mode (always return FAIL locally, no messages),
  which is how processors without accelerator hardware support the ISA;
* implements the HWSync-bit fast path: a LOCK whose address is in the
  local HWSync residency table completes immediately and only *notifies*
  the home (LOCK_SILENT), skipping the round trip (section 5);
* handles SUSPEND squashing when the scheduler interrupts a thread that
  is blocked on a synchronization instruction.
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from heapq import heappush
from typing import Dict, Optional

from repro.common.params import CoreParams, MSAParams
from repro.common.stats import StatSet
from repro.common.types import Address, CoreId, SyncOp, SyncResult
from repro.noc.message import Message
from repro.noc.network import Network
from repro.sim.kernel import Future, Simulator

# Enum members as module globals: on Python 3.11 reading a member through
# its class costs about four plain attribute reads (``EnumType`` defines
# ``__getattr__``), and the sync path reads several per operation.
_LOCK = SyncOp.LOCK
_TRYLOCK = SyncOp.TRYLOCK
_UNLOCK = SyncOp.UNLOCK
_COND_WAIT = SyncOp.COND_WAIT
_FINISH = SyncOp.FINISH
_SUCCESS = SyncResult.SUCCESS
_FAIL = SyncResult.FAIL
_ABORT = SyncResult.ABORT


class _Squashed:
    """Sentinel result: the instruction was squashed by a suspension and
    must be re-executed after the thread resumes (locks only)."""

    def __repr__(self) -> str:
        return "SQUASHED"


SQUASHED = _Squashed()

_req_ids = itertools.count(1)

#: Modes of the sync unit.
MODE_HW = "hw"
MODE_ALWAYS_FAIL = "always_fail"  # the paper's MSA-0 configuration
MODE_IDEAL = "ideal"

#: L1-residency budget for HWSync bits: a bit lives only while the lock's
#: line stays in the (modeled) cache, approximated by an LRU table.
HWSYNC_TABLE_SIZE = 64


class SyncUnit:
    """One core's synchronization instruction unit."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        core_id: CoreId,
        core_params: CoreParams,
        msa_params: Optional[MSAParams],
        home_of: callable,
        mode: str = MODE_HW,
        ideal_oracle=None,
    ):
        self.sim = sim
        self.network = network
        self.core_id = core_id
        self.core_params = core_params
        self.msa_params = msa_params
        self.home_of = home_of
        self.mode = mode
        self.ideal_oracle = ideal_oracle
        self.stats = StatSet(f"sync_unit.{core_id}")
        self.probe = None
        """The machine's event bus; only fault recovery emits on it."""

        self._issued_counts: Dict[SyncOp, object] = {}
        """Per-op ``issued.*`` counter handles, registered on first
        issue so the counter set matches the pre-binding unit."""

        # Silent-hit counter handles, same lazy-registration discipline
        # (these fire on the HWSync fast paths -- the *common* case on
        # lock-heavy workloads -- where a per-hit registry lookup plus
        # f-string was measurable).
        self._silent_lock_hits = None
        self._silent_unlock_hits = None
        self._hwsync_revoked = None
        self._fence_latency = core_params.sync_fence_latency
        # For the inline calendar push of the fence-delayed send (issue).
        self._buckets = sim._buckets
        self._times = sim._times
        self._requester_base = core_id * core_params.hw_threads

        self._pending: Dict[int, Future] = {}
        self._squashed_reqs: set = set()
        self._detached_reqs: set = set()
        self._pending_op: Dict[int, SyncOp] = {}
        self._pending_addr: Dict[int, Address] = {}
        self._pending_slot: Dict[int, int] = {}
        self._hwsync: "OrderedDict[Address, bool]" = OrderedDict()
        """Idle-armed HWSync bits: the lock is idle at the MSA and this
        core may take it silently.  Consumed *atomically* by the issuing
        hardware thread, so SMT siblings cannot double-acquire."""

        self._held: Dict[Address, int] = {}
        """addr -> hardware-thread slot that owns the lock through a
        hardware grant; enables the guaranteed-hit silent UNLOCK.  With
        SMT this must be per-slot: only the holder may silently
        release, and a sibling LOCK must go to the MSA."""

        self._silent_cancelled: Dict[Address, bool] = {}
        """Flags a pending silent acquire whose bit was revoked during
        the fence window (the send downgrades to a normal request)."""

        self.current_req: Dict[int, Optional[int]] = {}
        """Per-hardware-thread-slot request id of the instruction
        currently blocking that context (one thread per core unless the
        machine configures SMT)."""

        # Fault-recovery state; inert (never populated, never consulted
        # beyond `is None` checks) until arm_faults() is called.
        self._plane = None
        self._injector = None
        self._fault_params = None
        self._hw_owned: Dict[Address, int] = {}
        """addr -> slot for every lock this core holds through a
        hardware grant, tracked independently of ``_held`` (which only
        exists under hwsync_opt).  Scanned by ``surrender_tile`` when a
        home dies: these grants live only in the dead slice's entry
        array, so the lock must transfer through the fault plane's
        recovery table, never through the (still-zero) software word."""

        self._pending_aux: Dict[int, int] = {}
        self._accepted: set = set()
        self._attempt: Dict[int, int] = {}
        self._heard: Dict[int, int] = {}
        """Life-sign count per pending request (accepts + pongs); the
        timeout check compares against a snapshot so contact during a
        window resets the escalation instead of racing it."""

        self._detached_info: Dict[int, tuple] = {}
        """req_id -> (addr, aux, requester) for in-flight detached
        notifications (silent-UNLOCK sends).  The instruction already
        retired, but the release itself must still land at the MSA: a
        flaky slice dropping it would strand the entry's owner field
        forever, so detached requests get their own bounded resend loop
        (``_check_detached``)."""
        self._detached_attempt: Dict[int, int] = {}

        if mode == MODE_HW:
            network.register(core_id, "msa_cpu", self._on_message)

    def arm_faults(self, plane, injector, fault_params) -> None:
        """Enable the timeout/retry/ping recovery machinery (machines
        built with a fault plan only)."""
        self._plane = plane
        self._injector = injector
        self._fault_params = fault_params
        for name in ("retries", "pings", "timeouts", "stale_responses",
                     "degraded_local", "degraded_fails"):
            self.stats.counter(name)

    def _requester(self, slot: int) -> int:
        """The HWQueue bit index for this core's hardware thread
        ``slot`` (paper section 3: one bit per hardware thread)."""
        return self.core_id * self.core_params.hw_threads + slot

    # ------------------------------------------------------------------
    # Issue path
    # ------------------------------------------------------------------
    def issue(
        self, op: SyncOp, addr: Address, aux: int = 0, slot: int = 0
    ) -> Future:
        """Execute a synchronization instruction from hardware-thread
        ``slot``; the future resolves to a :class:`SyncResult` (or
        ``SQUASHED`` after a suspension)."""
        future = Future(self.sim)
        issued = self._issued_counts.get(op)
        if issued is None:
            issued = self._issued_counts[op] = self.stats.counter(
                f"issued.{op.value}"
            )
        issued.value += 1
        fence = self._fence_latency
        requester = self._requester_base + slot

        if self.mode == MODE_IDEAL:
            # Zero-latency oracle synchronization, no fence cost either.
            self.ideal_oracle.handle(op, addr, aux, requester, future)
            return future

        if self.mode == MODE_ALWAYS_FAIL:
            # MSA-0: the instruction is implemented trivially -- it
            # always FAILs, locally, without sending any message.
            self.stats.counter("always_fail").inc()
            future.complete_at(fence, _FAIL)
            return future

        if self._injector is not None:
            fence += self._injector.issue_delay(self.core_id)

        if self._plane is not None and self._plane.is_degraded(self.home_of(addr)):
            # The home slice is dead: behave as MSA-0 for this address
            # (FAIL locally, no message), which routes the operation to
            # the software library.  FINISH succeeds trivially -- the
            # dead slice's OMU no longer matters.
            self.stats.counter("degraded_local").inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "degrade", addr=addr, tile=self.core_id,
                    aux=("local_fail", {"op": op.value}),
                )
            self._hwsync.pop(addr, None)
            if self._held.get(addr) == slot:
                del self._held[addr]
            future.complete_at(fence, _SUCCESS if op is _FINISH else _FAIL)
            return future

        # Each path below sends after the fence through one calendar
        # ``entry`` (a plain request unless a fast path sets another);
        # a silent UNLOCK also retires (completes) at that cycle.
        entry = None
        retired = False
        if op is _FINISH:
            # Fire-and-forget OMU notification; completes at the core
            # as soon as the message is injected.
            entry = (self._send_finish, (addr, future))
        elif op is _UNLOCK:
            # Disarm any idle-armed bit before the release becomes
            # visible: after the MSA hands the lock to a waiter, a
            # silent re-acquire here would break mutual exclusion.  The
            # MSA re-arms us (response carries ``rearm``) when the lock
            # stayed idle, which is exactly the same-core re-acquire
            # case the optimization targets (section 5).
            self._hwsync.pop(addr, None)
            holder = self._held.get(addr)
            if (
                holder == slot
                and self.msa_params is not None
                and self.msa_params.hwsync_opt
            ):
                # We hold the lock via a hardware grant, so the MSA
                # entry exists and this UNLOCK cannot FAIL.  Retire it
                # immediately (modeling the predicted-SUCCESS
                # speculation an OoO core applies to the fallback
                # branch); the request travels as a notification whose
                # response is only consumed for re-arming.
                del self._held[addr]
                # The unlock retires here, so this core is no longer the
                # grant holder for recovery purposes.
                self._hw_owned.pop(addr, None)
                hits = self._silent_unlock_hits
                if hits is None:
                    hits = self._silent_unlock_hits = self.stats.counter(
                        "silent_unlock_hits"
                    )
                hits.value += 1
                req_id = next(_req_ids)
                self._detached_reqs.add(req_id)
                if self._plane is not None:
                    self._register_detached(req_id, addr, aux, requester)
                entry = (
                    self._send_request,
                    (_UNLOCK, addr, aux, req_id, requester),
                )
                retired = True
            elif holder == slot:
                del self._held[addr]
        elif op is _COND_WAIT:
            # COND_WAIT releases the associated lock (aux) on our
            # behalf at the MSA; disarm/unhold it for the same reason.
            self._hwsync.pop(aux, None)
            if self._held.get(aux) == slot:
                del self._held[aux]
            self._hw_owned.pop(aux, None)
        elif (
            (op is _LOCK or op is _TRYLOCK)
            and self.msa_params.hwsync_opt
            and self._hwsync.pop(addr, None)
        ):
            # HWSync fast path: atomically consume the idle-armed bit
            # (an SMT sibling issuing in the same window must miss it),
            # complete immediately, and notify the home.
            hits = self._silent_lock_hits
            if hits is None:
                hits = self._silent_lock_hits = self.stats.counter(
                    "silent_lock_hits"
                )
            hits.value += 1
            self._silent_cancelled[addr] = False
            self._held[addr] = slot
            if self._plane is not None:
                self._hw_owned[addr] = slot
            entry = (self._send_silent, (addr, future, requester, slot))
        if entry is None:
            req_id = next(_req_ids)
            self._register_pending(req_id, op, addr, aux, slot, future)
            entry = (self._send_request, (op, addr, aux, req_id, requester))

        # Simulator.schedule inlined (the fence is >= 0: CoreParams
        # validates it and fault plans only add to it).
        when = self.sim.now + fence
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = bucket = [entry]
            heappush(self._times, when)
        else:
            bucket.append(entry)
        if retired:
            bucket.append((future.complete, _SUCCESS))
        return future

    def _register_pending(
        self,
        req_id: int,
        op: SyncOp,
        addr: Address,
        aux: int,
        slot: int,
        future: Future,
    ) -> None:
        self._pending[req_id] = future
        self._pending_op[req_id] = op
        self._pending_addr[req_id] = addr
        self._pending_slot[req_id] = slot
        self.current_req[slot] = req_id
        if self._plane is not None:
            self._pending_aux[req_id] = aux
            self._arm_timeout(req_id)

    def _send_request(self, req) -> None:
        # ``req`` is the (op, addr, aux, req_id, requester) tuple the
        # issue path schedules directly (no per-request closure).
        op, addr, aux, req_id, requester = req
        if req_id in self._squashed_reqs:
            # Suspended before the fence drained: nothing was sent, and
            # nothing needs undoing.
            self._squashed_reqs.discard(req_id)
            return
        # The payload carries the SyncOp member itself, so the slice
        # need not rebuild it from its value.
        self.network.send(
            Message(
                self.core_id,
                self.home_of(addr),
                "msa.req",
                {
                    "op": op,
                    "addr": addr,
                    "aux": aux,
                    "core": requester,
                    "req_id": req_id,
                },
            )
        )

    def _send_finish(self, addr_future) -> None:
        addr, future = addr_future
        self.network.send(
            Message(
                self.core_id,
                self.home_of(addr),
                "msa.finish",
                {"addr": addr, "core": self.core_id},
            )
        )
        future.complete(_SUCCESS)

    def _send_silent(self, state) -> None:
        addr, future, requester, slot = state
        # A revoke may have landed during the fence window; the bit was
        # already consumed at issue, so the revoke handler flags us.
        if self._silent_cancelled.pop(addr, False):
            self.stats.counter("silent_lock_lost_race").inc()
            if self._held.get(addr) == slot:
                del self._held[addr]
            self._hw_owned.pop(addr, None)
            # Fall back to a normal LOCK round trip.
            req_id = next(_req_ids)
            self._register_pending(req_id, _LOCK, addr, 0, slot, future)
            self._send_request((_LOCK, addr, 0, req_id, requester))
            return
        self.network.send(
            Message(
                self.core_id,
                self.home_of(addr),
                "msa.silent",
                {"addr": addr, "core": requester},
            )
        )
        future.complete(_SUCCESS)

    # ------------------------------------------------------------------
    # Suspension (scheduler-driven)
    # ------------------------------------------------------------------
    def suspend_current(self, slot: int = 0) -> bool:
        """Interrupt the instruction currently blocking hardware thread
        ``slot`` of this core.

        Locks are squashed locally (the future resolves to ``SQUASHED``
        and the runtime re-executes after resume); barriers and condvars
        complete with the ABORT the MSA sends back.  Returns False when
        no instruction is blocking (nothing to do).
        """
        req_id = self.current_req.get(slot)
        if req_id is None or req_id not in self._pending:
            return False
        op = self._pending_op[req_id]
        addr = self._pending_addr[req_id]
        self.network.send(
            Message(
                src=self.core_id,
                dst=self.home_of(addr),
                kind="msa.suspend",
                payload={
                    "addr": addr,
                    "core": self._requester(slot),
                    "op": op.value,
                },
            )
        )
        self.stats.counter("suspends_sent").inc()
        if op is _LOCK or op is _TRYLOCK:
            future = self._pending.pop(req_id)
            self._pending_op.pop(req_id)
            self._pending_addr.pop(req_id)
            self._squashed_reqs.add(req_id)
            self._clear_fault_state(req_id)
            self.current_req[slot] = None
            future.complete(SQUASHED)
        # Barriers/condvars: the MSA's ABORT response completes the
        # pending future; the runtime defers acting on it until resume.
        return True

    # ------------------------------------------------------------------
    # Response path
    # ------------------------------------------------------------------
    def _on_message(self, msg: Message) -> None:
        if msg.kind != "msa_cpu.resp":
            self._on_control(msg)
            return
        p = msg.payload
        req_id = p["req_id"]
        result: SyncResult = p["result"]
        if req_id in self._detached_reqs:
            # Silent-UNLOCK notification response: consumed only for the
            # re-arm bit (the instruction already retired as SUCCESS).
            self._detached_reqs.discard(req_id)
            self._detached_info.pop(req_id, None)
            self._detached_attempt.pop(req_id, None)
            if result is _SUCCESS and p.get("rearm"):
                self._note_hwsync(p["addr"])
            return
        if req_id in self._squashed_reqs:
            self._squashed_reqs.discard(req_id)
            slot = self._pending_slot.pop(req_id, 0)
            # A grant raced our suspension: we now own a lock the thread
            # never observed acquiring.  Release it immediately.
            if result is _SUCCESS:
                self.stats.counter("squashed_grant_released").inc()
                if p.get("grant_hwsync"):
                    self._held[p["addr"]] = slot
                if self._plane is not None:
                    self._hw_owned[p["addr"]] = slot
                self.issue(_UNLOCK, p["addr"], slot=slot)
            elif result is _FAIL or result is _ABORT:
                # The home charged the OMU for a software fallback this
                # request will never run (the thread re-issues the
                # instruction after resume): FINISH cancels the charge.
                self.stats.counter("squashed_fallback_finished").inc()
                self.issue(_FINISH, p["addr"], slot=slot)
            return
        future = self._pending.pop(req_id, None)
        if future is None:
            if self._plane is not None:
                # A duplicate (response-cache replay) or a grant from a
                # home that was declared dead while it was in flight;
                # the request already resolved, so the response is void.
                self.stats.counter("stale_responses").inc()
                return
            raise ValueError(
                f"sync unit {self.core_id}: response for unknown req {req_id}"
            )
        op = self._pending_op.pop(req_id, None)
        self._pending_addr.pop(req_id, None)
        req_slot = self._pending_slot.pop(req_id, 0)
        self._clear_fault_state(req_id)
        if self.current_req.get(req_slot) == req_id:
            self.current_req[req_slot] = None
        if result is _SUCCESS:
            if p.get("grant_hwsync"):
                # A lock grant: we hold it (silent-unlock fast path).
                self._held[p["addr"]] = req_slot
            if p.get("rearm"):
                self._note_hwsync(p["addr"])
            if self._plane is not None:
                if op is _LOCK or op is _TRYLOCK:
                    self._hw_owned[p["addr"]] = req_slot
                elif op is _UNLOCK:
                    self._hw_owned.pop(p["addr"], None)
        future.complete(result)

    def _on_control(self, msg: Message) -> None:
        """Everything but a response: delivery acknowledgments and pongs
        (fault-plan machines) and HWSync revokes."""
        if msg.kind == "msa_cpu.accept":
            # The home slice took delivery of our request (fault-plan
            # machines only): stop re-sending, keep ping-checking.
            req_id = msg.payload["req_id"]
            if req_id in self._pending:
                self._accepted.add(req_id)
                self._heard[req_id] = self._heard.get(req_id, 0) + 1
            return
        if msg.kind == "msa_cpu.pong":
            req_id = msg.payload["req_id"]
            if req_id in self._pending:
                self._heard[req_id] = self._heard.get(req_id, 0) + 1
            return
        if msg.kind == "msa_cpu.revoke":
            addr = msg.payload["addr"]
            self._hwsync.pop(addr, None)
            if addr in self._silent_cancelled:
                # A silent acquire is mid-fence: cancel it so its send
                # downgrades to a normal request (its message would
                # otherwise arrive after our acknowledgment, when the
                # MSA may already have freed or re-granted the entry).
                self._silent_cancelled[addr] = True
            revoked = self._hwsync_revoked
            if revoked is None:
                revoked = self._hwsync_revoked = self.stats.counter(
                    "hwsync_revoked"
                )
            revoked.value += 1
            self.network.send(
                Message(
                    src=self.core_id,
                    dst=msg.src,
                    kind="msa.revoke_ack",
                    payload={"addr": addr, "core": self.core_id},
                )
            )
            return
        raise ValueError(f"sync unit {self.core_id}: unknown {msg}")

    def _note_hwsync(self, addr: Address) -> None:
        """Record the HWSync bit; capacity models L1 residency.  Evicted
        bits are simply lost (the next LOCK takes the normal path; the
        MSA reclaims the stale grant lazily via revoke)."""
        self._hwsync[addr] = True
        self._hwsync.move_to_end(addr)
        while len(self._hwsync) > HWSYNC_TABLE_SIZE:
            self._hwsync.popitem(last=False)

    def holds_hwsync(self, addr: Address) -> bool:
        """Whether the idle-armed HWSync bit is set (a silent LOCK
        would hit)."""
        return bool(self._hwsync.get(addr))

    def holds_lock_grant(self, addr: Address, slot: int = 0) -> bool:
        """Whether hardware-thread ``slot`` holds ``addr`` through a
        hardware grant (a silent UNLOCK would hit)."""
        return self._held.get(addr) == slot

    # ------------------------------------------------------------------
    # Fault recovery: timeout/retry/ping escalation and degradation
    # ------------------------------------------------------------------
    def _clear_fault_state(self, req_id: int) -> None:
        if self._plane is None:
            return
        self._accepted.discard(req_id)
        self._attempt.pop(req_id, None)
        self._heard.pop(req_id, None)
        self._pending_aux.pop(req_id, None)

    def _timeout_for(self, attempt: int) -> int:
        fp = self._fault_params
        return min(fp.request_timeout << attempt, fp.request_timeout_max)

    def _arm_timeout(self, req_id: int) -> None:
        snapshot = self._heard.get(req_id, 0)
        self.sim.schedule(
            self._timeout_for(self._attempt.get(req_id, 0)),
            lambda: self._check_timeout(req_id, snapshot),
        )

    def _register_detached(self, req_id: int, addr: Address, aux: int,
                           requester: int) -> None:
        """Watch a detached notification (silent-UNLOCK send) whose
        response nobody awaits.  Unlike ``_pending`` requests there is
        no blocked instruction to fail over, but the release must reach
        the home slice or its entry stays owned forever."""
        self._detached_info[req_id] = (addr, aux, requester)
        self.sim.schedule(
            self._timeout_for(0), lambda: self._check_detached(req_id)
        )

    def _check_detached(self, req_id: int) -> None:
        if req_id not in self._detached_reqs:
            # Response consumed (or the detached branch cleaned up): the
            # release landed.
            self._detached_info.pop(req_id, None)
            self._detached_attempt.pop(req_id, None)
            return
        addr, aux, requester = self._detached_info[req_id]
        if self._plane.is_degraded(self.home_of(addr)):
            # The home died; its entry array is gone, and recovery of
            # the lock goes through the plane's orphan table.  Nothing
            # left to notify.
            self._detached_reqs.discard(req_id)
            self._detached_info.pop(req_id, None)
            self._detached_attempt.pop(req_id, None)
            return
        attempt = self._detached_attempt.get(req_id, 0)
        if attempt >= self._fault_params.max_retries:
            # A home that swallowed every resend of a release is as dead
            # as one that stopped answering LOCKs: escalate.
            self.stats.counter("timeouts").inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "retry", addr=addr, tile=self.core_id,
                    aux=("detached_give_up", {"req": req_id}),
                )
            self._plane.declare_dead(self.home_of(addr))
            return
        self._detached_attempt[req_id] = attempt + 1
        self.stats.counter("retries").inc()
        if self.probe is not None and self.probe.trace_active:
            self.probe.emit(
                "retry", addr=addr, tile=self.core_id,
                aux=("detached_resend", {"req": req_id}),
            )
        # Idempotent: the slice dedups by req_id and replays the cached
        # response if the original was actually processed.
        self._send_request((_UNLOCK, addr, aux, req_id, requester))
        self.sim.schedule(
            self._timeout_for(attempt + 1),
            lambda: self._check_detached(req_id),
        )

    def _check_timeout(self, req_id: int, heard_snapshot: int) -> None:
        if req_id not in self._pending:
            return
        addr = self._pending_addr[req_id]
        if self._plane.is_degraded(self.home_of(addr)):
            # Registered in the narrow window while the tile was being
            # declared dead (e.g. a silent-acquire downgrade mid-fence):
            # the degradation sweep missed it, fail it now.
            self._fail_pending_request(req_id)
            return
        if self._heard.get(req_id, 0) != heard_snapshot:
            # The home showed life during the window (accept or pong):
            # the request is legitimately queued -- lock contention, a
            # barrier filling up -- not lost.  Reset the escalation.
            self._attempt[req_id] = 0
            self._arm_timeout(req_id)
            return
        attempt = self._attempt.get(req_id, 0)
        if attempt >= self._fault_params.max_retries:
            self._resolve_timeout(req_id, addr)
            return
        self._attempt[req_id] = attempt + 1
        if req_id not in self._accepted:
            # Never delivered as far as we know: re-send the request.
            # Retries are idempotent -- the slice deduplicates by req_id
            # and replays cached responses.
            self.stats.counter("retries").inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "retry", addr=addr, tile=self.core_id,
                    aux=("resend", {"req": req_id}),
                )
            op = self._pending_op[req_id]
            aux = self._pending_aux.get(req_id, 0)
            slot = self._pending_slot.get(req_id, 0)
            self._send_request((op, addr, aux, req_id, self._requester(slot)))
        else:
            # Delivered but unanswered: probe liveness.  A live slice
            # pongs (even while we sit in its HWQueue); only true
            # silence escalates toward degradation.
            self.stats.counter("pings").inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "retry", addr=addr, tile=self.core_id,
                    aux=("ping", {"req": req_id}),
                )
            self.network.send(
                Message(
                    src=self.core_id,
                    dst=self.home_of(addr),
                    kind="msa.ping",
                    payload={"req_id": req_id},
                )
            )
        self._arm_timeout(req_id)

    def _resolve_timeout(self, req_id: int, addr: Address) -> None:
        tile = self.home_of(addr)
        self.stats.counter("timeouts").inc()
        if self.probe is not None and self.probe.trace_active:
            self.probe.emit(
                "retry", addr=addr, tile=self.core_id,
                aux=("timeout", {"req": req_id, "home": tile}),
            )
        # declare_dead sweeps fail_pending_to() over every unit, which
        # resolves this request (and all others homed at the tile).
        self._plane.declare_dead(tile)
        if req_id in self._pending:  # pragma: no cover - defensive
            self._fail_pending_request(req_id)

    def _fail_pending_request(self, req_id: int) -> None:
        future = self._pending.pop(req_id)
        self._pending_op.pop(req_id, None)
        self._pending_addr.pop(req_id, None)
        slot = self._pending_slot.pop(req_id, 0)
        if self.current_req.get(slot) == req_id:
            self.current_req[slot] = None
        self._clear_fault_state(req_id)
        self.stats.counter("degraded_fails").inc()
        future.complete(_FAIL)

    def surrender_tile(self, tile) -> list:
        """Drop all local fast-path state homed at a dead ``tile`` and
        return the addresses this core still holds through orphaned
        hardware grants (the fault plane parks them in its recovery
        table so software fallback cannot acquire them early)."""
        orphans = []
        for addr in [a for a in self._hw_owned if self.home_of(a) == tile]:
            del self._hw_owned[addr]
            self._held.pop(addr, None)
            orphans.append(addr)
        for addr in [a for a in self._hwsync if self.home_of(a) == tile]:
            del self._hwsync[addr]
        return orphans

    def fail_pending_to(self, tile) -> None:
        """FAIL every request pending against a dead ``tile``.  State is
        cleared before any future completes so callbacks re-issuing
        operations observe a consistent unit."""
        victims = []
        for req_id in [
            r for r, a in self._pending_addr.items() if self.home_of(a) == tile
        ]:
            future = self._pending.pop(req_id)
            self._pending_op.pop(req_id, None)
            self._pending_addr.pop(req_id, None)
            slot = self._pending_slot.pop(req_id, 0)
            if self.current_req.get(slot) == req_id:
                self.current_req[slot] = None
            self._clear_fault_state(req_id)
            victims.append(future)
        if victims:
            self.stats.counter("degraded_fails").inc(len(victims))
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "degrade", tile=self.core_id,
                    aux=("fail_pending", {"home": tile, "count": len(victims)}),
                )
        for future in victims:
            future.complete(_FAIL)
