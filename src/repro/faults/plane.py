"""Per-home-tile degradation map and lock-recovery gate.

When a sync unit's timeout/retry machinery gives up on a home tile (no
response, no accept, no pong across ``max_retries`` backoff windows),
it calls :meth:`FaultPlane.declare_dead`.  From then on that tile is
*degraded*: every sync instruction targeting it completes locally with
FAIL (FINISH with SUCCESS), which is exactly the paper's MSA-0
behaviour applied to a single home tile -- the hybrid library falls
back to software synchronization for those addresses while every other
tile keeps its accelerator.

Declaring a tile dead must not break mutual exclusion: a core may hold
a lock through a *hardware* grant recorded only in the dead slice's
entry array, while the lock's software word still reads "free".  The
plane therefore scans every sync unit for hardware-held locks homed at
the dead tile (``surrender_tile``) and parks them in a recovery table.
Software fallback acquires consult the table and wait on a *gate*
future until the hardware holder releases; the holder's UNLOCK (which
now FAILs locally) is translated by the library into
:meth:`transfer_release`, which retires the orphaned grant and opens
the gate.  The lock word itself is never patched behind the coherence
protocol's back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from repro.common.stats import StatSet
from repro.common.types import Address, CoreId, TileId
from repro.sim.kernel import Future


class FaultPlane:
    """Degradation state shared by sync units, slices, and the library."""

    def __init__(self, sim):
        self.sim = sim
        self.probe = None
        self.stats = StatSet("fault_plane")
        self.stats.counter("degraded_tiles")
        self.degraded: Set[TileId] = set()
        self._recovery: Dict[Address, CoreId] = {}
        self._gates: Dict[Address, List[Future]] = {}
        self._units = ()
        self._transport = None

    def attach(self, units, transport) -> None:
        self._units = tuple(units)
        self._transport = transport

    # ------------------------------------------------------------------
    def is_degraded(self, tile: TileId) -> bool:
        return tile in self.degraded

    def declare_dead(self, tile: TileId) -> None:
        """Degrade ``tile``: harvest orphaned hardware lock grants into
        the recovery table, fail every request still pending against the
        tile, and stop the transport from retransmitting into it."""
        if tile in self.degraded:
            return
        self.degraded.add(tile)
        self.stats["degraded_tiles"].inc()
        if self.probe is not None and self.probe.trace_active:
            self.probe.emit("degrade", tile=tile, aux=("declare_dead", {}))
        if self._transport is not None:
            self._transport.abandon_tile(tile)
        # Harvest before failing: a FAILed UNLOCK must find its lock in
        # the recovery table so the library retires it via
        # transfer_release instead of unlocking a free software word.
        for unit in self._units:
            for addr in unit.surrender_tile(tile):
                self._recovery[addr] = unit.core_id
                if self.probe is not None and self.probe.trace_active:
                    self.probe.emit(
                        "degrade", addr=addr, tile=unit.core_id,
                        aux=("orphan_lock", {}),
                    )
        for unit in self._units:
            unit.fail_pending_to(tile)

    # ------------------------------------------------------------------
    # Recovery table / gate
    # ------------------------------------------------------------------
    def recovery_held(self, addr: Address) -> bool:
        """The lock is still held through an orphaned hardware grant."""
        return addr in self._recovery

    def recovery_holder(self, addr: Address) -> Optional[CoreId]:
        return self._recovery.get(addr)

    def gate_future(self, addr: Address) -> Optional[Future]:
        """A future completing when the orphaned grant on ``addr`` is
        released; ``None`` when no orphaned grant exists (software may
        proceed immediately)."""
        if addr not in self._recovery:
            return None
        fut = Future(self.sim)
        self._gates.setdefault(addr, []).append(fut)
        return fut

    def transfer_release(self, addr: Address) -> bool:
        """Retire an orphaned hardware grant (called from the holder's
        failed UNLOCK).  Returns False when ``addr`` has none -- the
        caller then performs a normal software release."""
        if addr not in self._recovery:
            return False
        holder = self._recovery.pop(addr)
        if self.probe is not None and self.probe.trace_active:
            self.probe.emit(
                "degrade", addr=addr, tile=holder,
                aux=("transfer_release", {}),
            )
        for fut in self._gates.pop(addr, []):
            fut.complete()
        return True
