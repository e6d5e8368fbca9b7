"""Reliable, ordered delivery for accelerator traffic under NoC faults.

When a machine is armed with a fault plan, every ``msa.*`` /
``msa_cpu.*`` message rides a per-(src, dst) reliable channel layered
over the lossy fabric:

* the sender stamps each message with a channel sequence number
  (``Message.rel_seq``), keeps it buffered, and retransmits the oldest
  unacknowledged message on a timeout with bounded exponential backoff;
* the receiver delivers strictly in sequence order (a small reorder
  buffer absorbs delay-induced reordering), acknowledges cumulatively
  (``rel.ack``), and discards duplicates.

The upper protocols therefore keep the exactly-once, per-channel-FIFO
delivery contract they were designed against (docs/PROTOCOLS.md), even
while the fault injector drops, duplicates, or delays wire traffic.
What the transport deliberately does *not* hide is a dead endpoint: a
killed MSA slice still has a live tile transport (delivery succeeds,
the slice ignores the payload), so end-to-end liveness is the job of
the sync units' timeout/retry machinery (see ``repro.msa.isa``).

Acks themselves are unsequenced fire-and-forget messages; a lost ack
merely causes a retransmission, which the receiver re-acks.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.common.params import FaultParams
from repro.common.stats import StatSet
from repro.common.types import TileId
from repro.noc.message import Message

#: Kind prefixes carried reliably.  Coherence traffic stays on the raw
#: fabric (fault plans may not target it; see plan.validate()).
COVERED_PREFIXES = ("msa", "msa_cpu")

Channel = Tuple[TileId, TileId]


class _SendState:
    __slots__ = (
        "next_seq",
        "unacked",
        "attempts",
        "sent_at",
        "rto",
        "timer_armed",
    )

    def __init__(self, base_rto: int):
        self.next_seq = 0
        self.unacked: Dict[int, Message] = {}
        self.attempts: Dict[int, int] = {}
        self.sent_at: Dict[int, int] = {}
        self.rto = base_rto
        self.timer_armed = False


class _RecvState:
    __slots__ = ("expected", "buffer")

    def __init__(self):
        self.expected = 1
        self.buffer: Dict[int, Message] = {}


class ReliableTransport:
    """Sequencing, acknowledgment, and retransmission for MSA traffic."""

    #: Prefix set the network's send() hot path probes directly (one
    #: frozenset hit against Message.prefix, no string splitting).
    covered = frozenset(COVERED_PREFIXES)

    def __init__(self, sim, network, params: FaultParams, tracer=None):
        self.sim = sim
        self.network = network
        self.params = params
        self.tracer = tracer
        self.stats = StatSet("transport")
        for name in (
            "sent",
            "retransmits",
            "abandoned",
            "dup_suppressed",
            "reordered",
            "acks_sent",
        ):
            self.stats.counter(name)
        self._send: Dict[Channel, _SendState] = {}
        self._recv: Dict[Channel, _RecvState] = {}
        self._dead_dsts: set = set()
        for tile in range(network.topology.n_tiles):
            network.register(tile, "rel", self._on_ack)

    # ------------------------------------------------------------------
    @classmethod
    def covers(cls, kind: str) -> bool:
        return kind.split(".", 1)[0] in cls.covered

    def _trace(self, what: str, *detail) -> None:
        if self.tracer is not None and self.tracer.active:
            self.tracer.record("fault", "transport", what, *detail)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def abandon_tile(self, tile: TileId) -> None:
        """Stop retransmitting into a tile declared dead; subsequent
        sends to it go out fire-and-forget (the dead slice ignores them
        anyway, and the pending timers must not keep the event calendar
        alive forever)."""
        self._dead_dsts.add(tile)
        for (_, dst), state in self._send.items():
            if dst == tile:
                state.unacked.clear()
                state.attempts.clear()
                state.sent_at.clear()

    def send(self, message: Message) -> None:
        """Stamp, buffer, and inject a covered message."""
        if message.dst in self._dead_dsts:
            self.network.inject(message)
            return
        chan = (message.src, message.dst)
        state = self._send.get(chan)
        if state is None:
            state = self._send[chan] = _SendState(self.params.retransmit_timeout)
        state.next_seq += 1
        message.rel_seq = state.next_seq
        state.unacked[message.rel_seq] = message
        state.sent_at[message.rel_seq] = self.sim.now
        self.stats.counter("sent").inc()
        self.network.inject(message)
        if not state.timer_armed:
            state.timer_armed = True
            self.sim.schedule(state.rto, lambda: self._on_timer(chan))

    def _on_timer(self, chan: Channel) -> None:
        state = self._send[chan]
        while state.unacked:
            oldest = min(state.unacked)
            tries = state.attempts.get(oldest, 0) + 1
            if tries <= self.params.max_retransmits:
                break
            # Give up on this message (dead or pathologically lossy
            # endpoint); end-to-end recovery is the sync units' job.
            del state.unacked[oldest]
            state.attempts.pop(oldest, None)
            state.sent_at.pop(oldest, None)
            self.stats.counter("abandoned").inc()
            self._trace("abandon", f"chan={chan}", f"seq={oldest}")
        if not state.unacked:
            state.timer_armed = False
            state.rto = self.params.retransmit_timeout
            return
        oldest = min(state.unacked)
        # The timer is per channel, not per message: when it was armed
        # for an earlier (since-acked) message, the current oldest may
        # not have aged a full RTO yet -- wait out the remainder rather
        # than retransmitting a message whose ack is still in flight.
        elapsed = self.sim.now - state.sent_at.get(oldest, self.sim.now)
        if elapsed < state.rto:
            self.sim.schedule(
                state.rto - elapsed, lambda: self._on_timer(chan)
            )
            return
        state.attempts[oldest] = state.attempts.get(oldest, 0) + 1
        state.sent_at[oldest] = self.sim.now
        self.stats.counter("retransmits").inc()
        self._trace("retransmit", f"chan={chan}", f"seq={oldest}")
        self.network.inject(state.unacked[oldest])
        state.rto = min(state.rto * 2, self.params.retransmit_timeout_max)
        self.sim.schedule(state.rto, lambda: self._on_timer(chan))

    def _on_ack(self, msg: Message) -> None:
        # The ack's (src, dst) is the reverse of the data channel.
        chan = (msg.dst, msg.src)
        state = self._send.get(chan)
        if state is None:
            return
        upto = msg.payload["upto"]
        progressed = False
        for seq in [s for s in state.unacked if s <= upto]:
            del state.unacked[seq]
            state.attempts.pop(seq, None)
            state.sent_at.pop(seq, None)
            progressed = True
        if progressed:
            state.rto = self.params.retransmit_timeout

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def receive(self, message: Message, dispatch) -> None:
        """Order, deduplicate, and acknowledge an arriving message;
        ``dispatch(msg)`` is called for each in-sequence delivery."""
        chan = (message.src, message.dst)
        state = self._recv.get(chan)
        if state is None:
            state = self._recv[chan] = _RecvState()
        seq = message.rel_seq
        if seq < state.expected:
            self.stats.counter("dup_suppressed").inc()
        elif seq == state.expected:
            state.expected += 1
            dispatch(message)
            while state.expected in state.buffer:
                queued = state.buffer.pop(state.expected)
                state.expected += 1
                dispatch(queued)
        elif seq in state.buffer:
            self.stats.counter("dup_suppressed").inc()
        else:
            self.stats.counter("reordered").inc()
            state.buffer[seq] = message
        self.stats.counter("acks_sent").inc()
        self.network.inject(
            Message(
                src=message.dst,
                dst=message.src,
                kind="rel.ack",
                payload={"upto": state.expected - 1},
            )
        )
