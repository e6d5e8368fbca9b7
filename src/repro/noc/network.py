"""The network fabric connecting tiles.

Components at each tile register a handler per message-kind prefix; the
network routes messages over the link fabric and dispatches them to the
destination tile's handler.  Delivery is exactly-once and per-link FIFO.

Hot-path layout: every message pays ``inject`` + one ``_dispatch``, so
the per-call stat lookups (dict hit + f-string per counter) are hoisted
into attributes bound at construction, handler dispatch is a per-tile
dict indexed by the message's precomputed ``prefix`` (no tuple key
allocation), and routes are memoized per (src, dst) pair.  Delivery
does only what every message needs: the delivered counter, the
latency histogram, and the optional checker probe.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.params import NocParams
from repro.common.stats import Counter, StatSet
from repro.common.types import TileId
from repro.noc.message import Message
from repro.noc.router import LinkFabric
from repro.noc.topology import MeshTopology
from repro.sim.kernel import Simulator

Handler = Callable[[Message], None]


class Network:
    """Routes :class:`Message` objects between tiles over the mesh."""

    def __init__(self, sim: Simulator, n_tiles: int, params: NocParams = None):
        self.sim = sim
        self.params = params or NocParams()
        self.topology = MeshTopology(n_tiles)
        self.stats = StatSet("noc")
        self.fabric = LinkFabric(sim, self.params, self.stats)
        self._tile_handlers: List[Dict[str, Handler]] = [
            {} for _ in range(self.topology.n_tiles)
        ]
        # Route memo as nested lists (src row -> dst slot) rather than a
        # (src, dst)-keyed dict: two C-level list indexes per message,
        # no key-tuple allocation, no hashing.  Rows are lazy so large
        # meshes only pay for pairs that actually communicate.
        self._route_rows: List[Optional[List]] = [
            None for _ in range(self.topology.n_tiles)
        ]
        self._messages_sent = self.stats.counter("messages_sent")
        self._messages_delivered = self.stats.counter("messages_delivered")
        self._latency = self.stats.histogram("latency")
        self._sent_by_prefix: Dict[str, Counter] = {}

        self._injector = None
        self._transport = None
        # The callback handed to the fabric as the final-hop target.
        # Fault-free machines skip the _deliver/_arrive funnel entirely
        # and land straight in _dispatch; arming an injector or a
        # transport (property setters below) rebinds it.  ``send`` is
        # rebound the same way: without a transport it *is* ``inject``
        # (instance attribute, so senders skip the coverage-check frame
        # per message).
        self._delivery = self._dispatch
        self.send = self.inject

        self.probe = None
        """Optional checker event bus (:mod:`repro.verify`): every
        dispatched message is reported so the NoC-conservation monitor
        can check per-channel delivery order online."""

    @property
    def injector(self):
        """Optional :class:`repro.faults.FaultInjector` consulted at
        injection (extra delay) and final-hop delivery (drop/duplicate).
        ``None`` on fault-free machines: the hot path then matches the
        original network bit-for-bit."""
        return self._injector

    @injector.setter
    def injector(self, value) -> None:
        self._injector = value
        self._rebind_delivery()

    @property
    def transport(self):
        """Optional :class:`repro.faults.ReliableTransport` carrying
        ``msa.*``/``msa_cpu.*`` traffic exactly-once and in order."""
        return self._transport

    @transport.setter
    def transport(self, value) -> None:
        self._transport = value
        self._rebind_delivery()

    def _rebind_delivery(self) -> None:
        """Bind the tightest final-hop target the armed fault machinery
        allows: injector set -> the full verdict funnel; transport only
        -> sequencing without verdicts; neither -> straight dispatch.
        Each elided stage is one call frame per delivered message."""
        if self._injector is not None:
            self._delivery = self._deliver
        elif self._transport is not None:
            self._delivery = self._arrive
        else:
            self._delivery = self._dispatch
        self.send = self.inject if self._transport is None else self._send_covered

    def register(self, tile: TileId, prefix: str, handler: Handler) -> None:
        """Register the receiver for messages whose kind starts with
        ``prefix`` (e.g. ``"coh"`` or ``"msa"``) at ``tile``."""
        handlers = self._tile_handlers[tile]
        if prefix in handlers:
            raise SimulationError(
                f"handler already registered for {(tile, prefix)}"
            )
        handlers[prefix] = handler

    def _send_covered(self, message: Message) -> None:
        """``send`` with a reliable transport armed: accelerator traffic
        detours through it for exactly-once, in-order delivery.  On
        fault-free machines ``send`` is bound directly to ``inject``
        (see ``_rebind_delivery``); either way, a message is delivered
        to the destination tile's handler after routing latency plus
        contention."""
        transport = self._transport
        if message.prefix in transport.covered:
            transport.send(message)
            return
        self.inject(message)

    def inject(self, message: Message) -> None:
        """Put a message on the wire (no reliability layering; the
        transport's own sends and retransmissions come through here)."""
        message.injected_at = self.sim.now
        self._messages_sent.value += 1
        prefix = message.prefix
        sent = self._sent_by_prefix.get(prefix)
        if sent is None:
            sent = self._sent_by_prefix[prefix] = self.stats.counter(
                "sent." + prefix
            )
        sent.value += 1
        probe = self.probe
        if probe is not None and probe.noc_active:
            probe.emit(
                "noc_send", tid=message.src, tile=message.dst,
                aux=message.kind,
            )
        src = message.src
        row = self._route_rows[src]
        if row is None:
            row = self._route_rows[src] = [None] * len(self._route_rows)
        links = row[message.dst]
        if links is None:
            links = row[message.dst] = self.fabric.route(
                self.topology.links_on_route(src, message.dst)
            )
        injector = self._injector
        if injector is None:
            self.fabric.traverse(links, self._delivery, message)
        else:
            self.fabric.traverse(
                links, self._delivery, message, injector.send_delay(message)
            )

    def _deliver(self, message: Message) -> None:
        """Final-hop arrival: apply delivery faults, then hand covered
        traffic to the transport for ordering/deduplication."""
        if self._injector is not None:
            deliver, dup_after = self._injector.deliver_verdict(message)
            if dup_after is not None:
                # The duplicate skips the verdict (no fractal re-rolls).
                self.sim.schedule(dup_after, self._arrive, message)
            if not deliver:
                return
        self._arrive(message)

    def _arrive(self, message: Message) -> None:
        if self._transport is not None and message.rel_seq is not None:
            self._transport.receive(message, self._dispatch)
        else:
            self._dispatch(message)

    def _dispatch(self, message: Message) -> None:
        handler = self._tile_handlers[message.dst].get(message.prefix)
        if handler is None:
            raise SimulationError(
                f"no handler for {message.prefix!r} messages at tile "
                f"{message.dst} (message: {message})"
            )
        self._messages_delivered.value += 1
        latency = self.sim.now - message.injected_at
        self._latency.add(latency)
        if self.probe is not None:
            self.probe.emit(
                "noc_deliver",
                tid=message.src,
                tile=message.dst,
                aux=(message.kind, message.rel_seq),
            )
        handler(message)

    def round_trip_estimate(self, src: TileId, dst: TileId) -> int:
        """Uncontended request+response latency estimate (for docs/tests)."""
        hops = self.topology.hops(src, dst)
        one_way = self.params.injection_latency + hops * (
            self.params.router_latency
            + self.params.link_latency
            + self.params.flits_per_message
            - 1
        )
        return 2 * one_way
