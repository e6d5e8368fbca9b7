"""The machine's event bus: a :class:`Probe` that components publish
synchronization-relevant events to, and monitors and the
observability collector subscribe to.

This is the machine's one event channel.  A machine without checkers
or a collector attached has ``machine.probe is None`` and every call
site pays exactly one attribute test (``if probe is not None``), so the
hot path is untouched when nothing listens.
:meth:`repro.machine.Machine.attach_probe` wires a probe into every
component; events flow synchronously (no simulator events are
scheduled), so listening never changes cycle counts -- only wall-clock
time.  Checkers (:mod:`repro.verify`) and the observability collector
(:mod:`repro.obs`) subscribe to it; the collector turns its events
into spans that leave through :mod:`repro.obs.export`.

Event vocabulary (``SyncEvent.kind``):

=================  ====================================================
kind               emitted by / meaning
=================  ====================================================
lock_req/lock_acq  ThreadCtx.lock: request issued / lock held
lock_rel           ThreadCtx.unlock: release begins
barrier_enter      ThreadCtx.barrier: arrival (aux = goal)
barrier_exit       ThreadCtx.barrier: episode passed (aux = goal)
cond_wait_begin    ThreadCtx.cond_wait (addr = cond, aux = lock addr)
cond_wait_end      ThreadCtx.cond_wait returned (lock re-held)
cond_signal        ThreadCtx.cond_signal/broadcast (aux = 1 if bcast)
mem_read/mem_write ThreadCtx.load/store outside sync internals
mem_atomic         ThreadCtx.rmw outside sync internals
msa_alloc          MSA slice allocated an entry (aux = (type, live))
msa_free           MSA slice dropped an entry (aux = reason)
msa_kill           MSA slice failed stop (fault plane)
omu_inc/omu_dec    OMU charge/discharge at a slice (aux = amount)
omu_steer          OMU-saturated slice steered an allocation to the
                   software fallback (aux = sync type value)
noc_send           Network accepted a message for injection
                   (tid = src tile, tile = dst, aux = kind); emitted
                   only when a subscriber opted in (``noc_active``)
noc_deliver        Network dispatched a message to its handler
                   (tid = src tile, tile = dst, aux = (kind, rel_seq))
req_done           Traffic worker finished a request (addr = request
                   id, aux = (arrival cycle, shape, outcome) where
                   outcome is ``ok``/``timeout``)
req_shed           Traffic dispatcher shed a request at admission
                   (addr = request id, aux = (arrival cycle, shape))
msa_respond        MSA slice answered a request (aux = (result,
                   {core}), addr, tile) or replayed a cached answer to
                   a retry (aux = ("replay", {req}))
sched              Scheduler moved a thread (tid; aux = (``suspend`` /
                   ``resume`` / ``migrate``, {core}))
fault              Fault injector verdict (``delay``/``drop``/``dup``/
                   ``flaky_drop``/``flaky_abort``) or transport action
                   (``retransmit``/``abandon``); aux = (what, detail)
retry              Sync-unit recovery step (``resend``/``ping``/
                   ``timeout``/``detached_resend``/``detached_give_up``;
                   tile = core, aux = (what, {req}))
degrade            Home tile declared dead, orphaned lock parked or
                   released, requests failed into software
                   (``declare_dead``/``orphan_lock``/
                   ``transfer_release``/``local_fail``/``fail_pending``;
                   aux = (what, detail))
=================  ====================================================

The last five (:data:`TRACE_KINDS`) record protocol decisions rather
than synchronization state: they are emitted only once something
subscribed to one of them (``trace_active``), so a run observed by
checkers alone never sees them and its ``events_observed`` and
context window do not depend on them.

High-rate kinds (``mem_*``, ``noc_send``, ``noc_deliver``, ``req_*``)
and the trace kinds are dispatched to subscribers but excluded from the
sliding context window that violation reports quote, so the window
stays a readable synchronization history.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, List, Optional

#: Protocol-decision kinds, emitted only while ``Probe.trace_active``.
TRACE_KINDS = frozenset({"msa_respond", "sched", "fault", "retry", "degrade"})

#: Kinds kept out of the violation-context window (too chatty).
UNWINDOWED_KINDS = TRACE_KINDS | {
    "mem_read",
    "mem_write",
    "mem_atomic",
    "noc_send",
    "noc_deliver",
    "req_done",
    "req_shed",
}

#: Kinds whose subscription turns on memory-access probing in ThreadCtx.
MEM_KINDS = frozenset({"mem_read", "mem_write", "mem_atomic"})


class SyncEvent:
    """One observed event.  ``aux`` is kind-specific (see module doc)."""

    __slots__ = ("t", "kind", "tid", "addr", "aux", "tile")

    def __init__(self, t, kind, tid=None, addr=None, aux=None, tile=None):
        self.t = t
        self.kind = kind
        self.tid = tid
        self.addr = addr
        self.aux = aux
        self.tile = tile

    def __repr__(self) -> str:
        parts = [f"[{self.t:>8}] {self.kind}"]
        if self.tid is not None:
            parts.append(f"tid={self.tid}")
        if self.addr is not None:
            parts.append(f"addr={self.addr:#x}")
        if self.tile is not None:
            parts.append(f"tile={self.tile}")
        if self.aux is not None:
            parts.append(f"aux={self.aux}")
        return " ".join(parts)


class Probe:
    """Synchronous publish/subscribe bus for checker events.

    Kept deliberately small: ``emit`` is called from simulation hot
    paths whenever checking is enabled, so it does one dict lookup, one
    (bounded) window append, and direct handler calls.
    """

    def __init__(self, sim, window: int = 2048):
        self.sim = sim
        self.events_observed = 0
        self.mem_active = False
        """True once any monitor subscribed to a ``mem_*`` kind;
        ThreadCtx checks this so un-probed runs skip per-access events."""

        self.noc_active = False
        """True once anything subscribed to ``noc_send``; the network's
        inject path checks this so send-side emission costs nothing
        unless the observability layer opted in."""

        self.trace_active = False
        """True once anything subscribed to a :data:`TRACE_KINDS` kind;
        their emit sites check this, so checker-only runs never see
        them."""

        self._subs: Dict[str, List[Callable[[SyncEvent], None]]] = {}
        self._window: deque = deque(maxlen=window)

    def subscribe(self, kind: str, handler: Callable[["SyncEvent"], None]) -> None:
        self._subs.setdefault(kind, []).append(handler)
        if kind in MEM_KINDS:
            self.mem_active = True
        if kind == "noc_send":
            self.noc_active = True
        if kind in TRACE_KINDS:
            self.trace_active = True

    def emit(self, kind, tid=None, addr=None, aux=None, tile=None) -> None:
        event = SyncEvent(self.sim.now, kind, tid, addr, aux, tile)
        self.events_observed += 1
        if kind not in UNWINDOWED_KINDS:
            self._window.append(event)
        handlers = self._subs.get(kind)
        if handlers:
            for handler in handlers:
                handler(event)

    def recent(
        self, addr: Optional[int] = None, limit: int = 24
    ) -> List[SyncEvent]:
        """The tail of the context window, optionally restricted to one
        address (plus addressless events like kills) -- this is the
        "relevant trace slice" violations carry."""
        events = list(self._window)
        if addr is not None:
            events = [e for e in events if e.addr in (addr, None)]
        return events[-limit:]
