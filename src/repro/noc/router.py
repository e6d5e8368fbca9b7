"""Per-link FIFO arbitration model.

Rather than simulating router microarchitecture flit-by-flit, each
directed link is a serial resource: a message occupies the link for
``flits_per_message`` cycles and contending messages queue FIFO.  This
captures the two NoC effects that matter for synchronization studies --
hop-proportional latency and hot-spot queuing -- at a small fraction of
the event cost of a flit-accurate model (the paper used Booksim; see
DESIGN.md for the substitution rationale).

Traversal is the single hottest code path in the whole simulator (one
event per hop per message), so a hop is not a callback here: the
network queues it as a :data:`repro.sim.kernel.HOP` event whose
argument is the mutable state ``[links, index, deliver, deliver_arg]``,
and the simulator's drain loop performs the link reservation and the
next-hop (or delivery) push inline.  The fabric owns the links and
registers the per-hop timing with its simulator.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.params import NocParams
from repro.common.stats import StatSet
from repro.common.types import TileId
from repro.sim.kernel import Simulator


class Link:
    """A directed inter-tile link with FIFO serialization: a hop
    reserves it for one message at a time (``_free_at``)."""

    __slots__ = ("_free_at",)

    def __init__(self):
        self._free_at = 0


class LinkFabric:
    """All directed links of the mesh.

    Every link is held for ``link_latency + flits_per_message - 1``
    cycles (at least one) per message, and each hop adds the router
    pipeline latency.  The fabric hands both to its simulator, with
    ``stats`` for the ``link_stall_cycles`` counter (registered on the
    first stall, so an uncontended run has no such counter).
    """

    def __init__(self, sim: Simulator, params: NocParams, stats: StatSet):
        self._links: Dict[Tuple[TileId, TileId], Link] = {}
        occupancy = params.link_latency + params.flits_per_message - 1
        sim.attach_links(max(1, occupancy), params.router_latency, stats)

    def link(self, src: TileId, dst: TileId) -> Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = Link()
        return link

    def route(self, hops) -> Tuple[Link, ...]:
        """Resolve directed ``(src, dst)`` hop pairs to their Link
        objects (callers cache the result per route so traversal never
        touches the link dictionary)."""
        return tuple(self.link(src, dst) for src, dst in hops)
