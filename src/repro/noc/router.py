"""Per-link FIFO arbitration model.

Rather than simulating router microarchitecture flit-by-flit, each
directed link is a serial resource: a message occupies the link for
``flits_per_message`` cycles and contending messages queue FIFO.  This
captures the two NoC effects that matter for synchronization studies --
hop-proportional latency and hot-spot queuing -- at a small fraction of
the event cost of a flit-accurate model (the paper used Booksim; see
DESIGN.md for the substitution rationale).

Traversal is the single hottest code path in the whole simulator (one
event per hop per message), so the per-hop handler built by
:meth:`LinkFabric._make_cross` carries its state in a plain list
scheduled with the kernel's ``(callback, arg)`` form -- no per-hop
closures, no copy of the hop list -- performs the link reservation
inline rather than through :meth:`Link.reserve` /
:attr:`Link.queue_delay` (both kept for tests and occasional callers),
and appends the next hop straight into the kernel's calendar.
"""

from __future__ import annotations

from heapq import heappush
from typing import Callable, Dict, Tuple

from repro.common.params import NocParams
from repro.common.stats import StatSet
from repro.common.types import TileId
from repro.sim.kernel import NO_ARG, Simulator


class Link:
    """A directed inter-tile link with FIFO serialization."""

    __slots__ = ("sim", "occupancy_cycles", "_free_at", "busy_cycles")

    def __init__(self, sim: Simulator, occupancy_cycles: int):
        self.sim = sim
        self.occupancy_cycles = occupancy_cycles
        self._free_at = 0
        self.busy_cycles = 0

    def reserve(self) -> int:
        """Reserve the link for one message; returns the cycle at which
        the message *finishes* crossing (its head may proceed then)."""
        start = max(self.sim.now, self._free_at)
        finish = start + self.occupancy_cycles
        self._free_at = finish
        self.busy_cycles += self.occupancy_cycles
        return finish

    @property
    def queue_delay(self) -> int:
        """Cycles a message arriving now would wait before crossing."""
        return max(0, self._free_at - self.sim.now)


class LinkFabric:
    """All directed links of the mesh, plus traversal accounting.

    The network asks the fabric to carry a message across an ordered
    list of links; the fabric chains per-link reservations, adding the
    router pipeline latency at each hop, and invokes the delivery
    callback when the final link releases the message.
    """

    def __init__(self, sim: Simulator, params: NocParams, stats: StatSet):
        self.sim = sim
        self.params = params
        self.stats = stats
        self._links: Dict[Tuple[TileId, TileId], Link] = {}
        occupancy = params.link_latency + params.flits_per_message - 1
        self._occupancy = max(1, occupancy)
        # Lazily registered on first stall so an uncontended run's
        # counter set matches the pre-optimization network exactly.
        self._stall_cycles = None
        self._router_latency = params.router_latency
        self._injection_latency = params.injection_latency
        # Hop events dominate the event mix (60-80% on the headline
        # workloads), so the per-hop handler is compiled once as a
        # closure over the kernel's calendar.
        self._cross = self._make_cross()

    def link(self, src: TileId, dst: TileId) -> Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = Link(self.sim, self._occupancy)
        return link

    def route(self, hops) -> Tuple[Link, ...]:
        """Resolve directed ``(src, dst)`` hop pairs to their Link
        objects (callers cache the result per route so traversal never
        touches the link dictionary)."""
        return tuple(self.link(src, dst) for src, dst in hops)

    def traverse(
        self,
        links: Tuple[Link, ...],
        deliver: Callable,
        deliver_arg=NO_ARG,
        extra_delay: int = 0,
    ) -> None:
        """Send a message across ``links`` (from :meth:`route`, in hop
        order).

        Local delivery (no links) still pays the injection latency.
        ``deliver`` is invoked as ``deliver(deliver_arg)`` (or bare when
        no argument is given).  ``extra_delay`` models a fault-injected
        stall at the NIC before the message enters the fabric.
        """
        delay = self._injection_latency + extra_delay
        if not links:
            self.sim.schedule(delay, deliver, deliver_arg)
            return
        # The hop state is a mutable list reused across the whole
        # traversal (only the index advances), not a fresh tuple per
        # hop: exactly one in-flight hop event holds it at a time.
        self.sim.schedule(delay, self._cross, [links, 0, deliver, deliver_arg])

    def _make_cross(self):
        """Compile the per-hop handler: reserve ``links[index]``, then
        chain to the next hop or the delivery callback.  The calendar
        push (:meth:`Simulator.schedule` without the delay check, which
        holds by construction) is inlined, and the simulator, bucket
        table, and latencies are closure cells.  The stall counter keeps
        its lazy first-stall registration (via ``self``, so tests that
        read ``fabric._stall_cycles`` still see it)."""
        sim = self.sim
        buckets = sim._buckets
        times = sim._times
        router_latency = self._router_latency
        # Every link is built with the same serialized occupancy, so it
        # is a per-fabric constant -- a cell load here, not a per-hop
        # attribute read.
        occupancy = self._occupancy
        push = heappush

        def cross(state):
            links, index, deliver, deliver_arg = state
            link = links[index]
            now = sim.now
            free_at = link._free_at
            if free_at > now:
                stall = self._stall_cycles
                if stall is None:
                    stall = self._stall_cycles = self.stats.counter(
                        "link_stall_cycles"
                    )
                stall.value += free_at - now
                start = free_at
            else:
                start = now
            finish = start + occupancy
            link._free_at = finish
            link.busy_cycles += occupancy
            when = finish + router_latency
            index += 1
            if index < len(links):
                state[1] = index
                entry = (cross, state)
            else:
                entry = (deliver, deliver_arg)
            bucket = buckets.get(when)
            if bucket is None:
                buckets[when] = [entry]
                push(times, when)
            else:
                bucket.append(entry)

        return cross
