"""The fault injector: turns a :class:`FaultPlan` into run-time verdicts.

The injector is purely decision-making -- it never touches the network
or slices itself.  The NoC asks it for a verdict at injection time
(extra delay) and at final-hop delivery time (drop / duplicate); slices
ask it whether to misbehave on a request during a flaky window; sync
units ask it for issue-latency jitter.  All randomness comes from
per-purpose :class:`~repro.sim.rng.DeterministicRng` streams derived
from ``machine seed ^ plan seed``, so a given (machine, plan) pair
replays the identical fault sequence.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.stats import StatSet
from repro.noc.message import Message
from repro.sim.rng import DeterministicRng

from repro.faults.plan import FLAKY_ABORT, FLAKY_DROP, KILL, FaultPlan, SliceFault


class FaultInjector:
    """Evaluates a plan's rules against live machine events."""

    def __init__(self, sim, plan: FaultPlan, machine_seed: int):
        self.sim = sim
        self.plan = plan
        self.probe = None
        self.stats = StatSet("faults")
        root = DeterministicRng(machine_seed ^ (plan.seed * 0x9E3779B1), "faults")
        self._msg_rng = root.derive("messages")
        self._slice_rng = root.derive("slices")
        self._lat_rng = root.derive("latency")
        # Counters exist from cycle 0 so reports are uniform.
        for name in ("msgs_dropped", "msgs_duplicated", "msgs_delayed",
                     "flaky_drops", "flaky_aborts", "latency_perturbed"):
            self.stats.counter(name)

    # ------------------------------------------------------------------
    # NoC faults
    # ------------------------------------------------------------------
    def _rule_for(self, message: Message):
        now = self.sim.now
        for rule in self.plan.messages:
            if rule.matches(message.kind, message.src, message.dst, now):
                return rule
        return None

    def send_delay(self, message: Message) -> int:
        """Extra injection delay (cycles) for this message, usually 0."""
        rule = self._rule_for(message)
        if rule is None or rule.delay_prob <= 0.0:
            return 0
        if self._msg_rng.random() >= rule.delay_prob:
            return 0
        self.stats["msgs_delayed"].inc()
        if self.probe is not None and self.probe.trace_active:
            self.probe.emit(
                "fault", tile=message.dst,
                aux=("delay", {"kind": message.kind, "src": message.src,
                               "cycles": rule.delay_cycles}),
            )
        return rule.delay_cycles

    def deliver_verdict(self, message: Message) -> Tuple[bool, Optional[int]]:
        """(deliver?, duplicate-after-cycles) for a message at its last hop."""
        rule = self._rule_for(message)
        if rule is None:
            return True, None
        if rule.drop_prob > 0.0 and self._msg_rng.random() < rule.drop_prob:
            self.stats["msgs_dropped"].inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "fault", tile=message.dst,
                    aux=("drop", {"kind": message.kind, "src": message.src}),
                )
            return False, None
        if rule.dup_prob > 0.0 and self._msg_rng.random() < rule.dup_prob:
            self.stats["msgs_duplicated"].inc()
            if self.probe is not None and self.probe.trace_active:
                self.probe.emit(
                    "fault", tile=message.dst,
                    aux=("dup", {"kind": message.kind, "src": message.src}),
                )
            return True, rule.dup_delay
        return True, None

    # ------------------------------------------------------------------
    # Slice faults
    # ------------------------------------------------------------------
    def kill_schedule(self) -> List[SliceFault]:
        return [f for f in self.plan.slices if f.mode == KILL]

    def flaky_verdict(self, tile: int, entry_hit: bool) -> Optional[str]:
        """What a flaky slice should do with an incoming request.

        Returns ``None`` (behave), ``"drop"`` (ignore the request), or
        ``"abort"`` (answer ABORT).  Aborts are only offered for
        requests *missing* in the entry array -- the caller must still
        check the request is an acquire-type op it can safely abort.
        """
        now = self.sim.now
        for rule in self.plan.slices:
            if rule.tile != tile or rule.mode == KILL:
                continue
            if now < rule.at or (rule.until is not None and now >= rule.until):
                continue
            if self._slice_rng.random() >= rule.prob:
                continue
            if rule.mode == FLAKY_DROP:
                self.stats["flaky_drops"].inc()
                if self.probe is not None and self.probe.trace_active:
                    self.probe.emit("fault", tile=tile, aux=("flaky_drop", {}))
                return "drop"
            if rule.mode == FLAKY_ABORT and not entry_hit:
                self.stats["flaky_aborts"].inc()
                if self.probe is not None and self.probe.trace_active:
                    self.probe.emit("fault", tile=tile, aux=("flaky_abort", {}))
                return "abort"
        return None

    # ------------------------------------------------------------------
    # Latency faults
    # ------------------------------------------------------------------
    def issue_delay(self, core: int) -> int:
        """Extra sync-instruction fence latency for this issue, usually 0."""
        now = self.sim.now
        for rule in self.plan.latencies:
            if not rule.matches(core, now):
                continue
            if rule.prob < 1.0 and self._lat_rng.random() >= rule.prob:
                continue
            self.stats["latency_perturbed"].inc()
            return self._lat_rng.randint(1, rule.extra_max)
        return 0
