"""The collector: turns Probe events into spans and aggregates.

:class:`Collector` subscribes to the machine's checker event bus
(:class:`repro.verify.events.Probe`) and assembles the span forest
described in :mod:`repro.obs.spans`: one ``run`` root, optional
``phase`` children, per-thread synchronization episodes, MSA entry
residencies, and (sampled) NoC message lifetimes.  It also folds every
closed span into per-name duration histograms, so cycle *attribution*
stays exact even after span retention is capped.

Observation is passive and synchronous: attaching a collector never
schedules simulator events, so cycle counts, event counts, and every
counter are bit-for-bit identical to an unobserved run (the same
contract :mod:`repro.verify` honours; ``tests/test_obs.py`` pins it).
A machine with no collector (and no checkers) has ``machine.probe is
None`` and pays exactly one attribute test per call site -- the
end-to-end benchmark's untraced runs measure it in that state.

Usage::

    from repro import api
    from repro.obs import Collector

    machine = api.build("msa-omu-2", cores=16)
    collector = Collector.attach(machine)
    with collector.phase("main"):
        result = api.run(machine, "streamcluster", scale=0.5)
    obs = collector.finalize()
    obs.registry.to_prometheus("metrics.prom")
    obs.to_chrome_trace("trace.json")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

from repro.common.stats import Histogram
from repro.obs.registry import MetricsRegistry, summarize_histogram
from repro.obs.spans import Span
from repro.verify.events import TRACE_KINDS

#: Per-name cap on *retained* spans (aggregation stays exact beyond it).
DEFAULT_SPAN_LIMIT = 20_000

#: Sync-episode span names by the probe kinds that open/close them.
_ACQUIRE = {"lock_req": "lock.acquire"}
_PAIRS = {
    "barrier_enter": ("barrier_exit", "barrier.wait"),
    "cond_wait_begin": ("cond_wait_end", "cond.wait"),
}


class ObsResult:
    """What one observed run produced: the span forest, the unified
    metrics registry, and the OMU transition timeline."""

    def __init__(
        self,
        spans: List[Span],
        registry: MetricsRegistry,
        omu_timeline: List[Tuple[int, int, str, int]],
        dropped_spans: Dict[str, int],
    ):
        self.spans = spans
        self.registry = registry
        self.omu_timeline = omu_timeline
        """(cycle, tile, event, value) OMU state transitions, where
        ``event`` is ``inc``/``dec``/``steer`` and ``value`` is the
        charge amount (1 for steer)."""

        self.dropped_spans = dropped_spans
        """Per-name count of spans not retained (cap exceeded); their
        durations are still in the ``obs.span.cycles`` histograms."""

    # Convenience re-exports so callers need only the result object.
    def to_jsonl(self, path=None) -> str:
        from repro.obs.export import spans_to_jsonl

        return spans_to_jsonl(self.spans, path, dropped=self.dropped_spans)

    def to_chrome_trace(self, path=None) -> str:
        from repro.obs.export import spans_to_chrome_trace

        return spans_to_chrome_trace(self.spans, path)

    def attribution(self) -> Dict[str, Dict[str, float]]:
        """Per-span-name cycle attribution: {name: {count, cycles,
        mean, max}} -- the paper-style 'where did the sync cycles go'
        table, exact over every span ever closed."""
        out: Dict[str, Dict[str, float]] = {}
        for metric in self.registry.metrics():
            if metric.name != "obs.span.cycles" or metric.kind != "histogram":
                continue
            name = metric.labels.get("span", "?")
            s = metric.summary or {}
            out[name] = {
                "count": s.get("count", 0),
                "cycles": s.get("sum", 0),
                "mean": (s.get("sum", 0) / s.get("count", 1)) if s.get("count") else 0.0,
                "max": s.get("max", 0),
            }
        return out

    def describe(self) -> str:
        lines = [
            f"obs: {len(self.spans)} spans retained, "
            f"{len(self.registry)} metrics, "
            f"{len(self.omu_timeline)} OMU transitions"
        ]
        attribution = self.attribution()
        for name in sorted(attribution):
            a = attribution[name]
            lines.append(
                f"  {name:<14} n={int(a['count']):<8} "
                f"cycles={int(a['cycles']):<12} mean={a['mean']:.1f}"
            )
        if self.dropped_spans:
            drops = ", ".join(
                f"{k}={v}" for k, v in sorted(self.dropped_spans.items())
            )
            lines.append(f"  (span retention cap hit: {drops})")
        return "\n".join(lines)


class Collector:
    """Builds spans and metrics from one machine's probe events.

    Create through :meth:`attach` (wires the probe in, reusing a
    checker suite's probe when one is already attached).  Finalize
    exactly once, after the run, with :meth:`finalize`.
    """

    def __init__(self, machine, span_limit: int = DEFAULT_SPAN_LIMIT):
        self.machine = machine
        self.span_limit = span_limit
        self.spans: List[Span] = []
        self.omu_timeline: List[Tuple[int, int, str, int]] = []
        self._next_sid = 1
        self._dropped: Dict[str, int] = {}
        self._durations: Dict[str, Histogram] = {}
        self._counts: Dict[str, int] = {}
        # Open-span state, keyed by what matches an open to its close.
        self._open_sync: Dict[Tuple[str, int, int], Span] = {}
        self._held: Dict[Tuple[int, int], Span] = {}
        self._entries: Dict[Tuple[int, int], Span] = {}
        self._inflight: Dict[Tuple[int, int, str], List[Span]] = {}
        self._phases: List[Span] = []
        self._omu_limit = 4 * span_limit
        self.root: Optional[Span] = None
        self._finalized = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    @classmethod
    def attach(cls, machine, span_limit: int = DEFAULT_SPAN_LIMIT) -> "Collector":
        """Wire a collector into ``machine``.

        Attach *before* spawning threads (thread contexts pick the
        probe up when spawned).  Shares the probe with an already (or
        later) attached :class:`repro.verify.CheckerSuite`; only one
        collector per machine.
        """
        if machine.collector is not None:
            raise ValueError("a collector is already attached to this machine")
        collector = cls(machine, span_limit=span_limit)
        collector._subscribe(machine.attach_probe())
        machine.collector = collector
        collector.root = collector._span("run", "run", machine.sim.now)
        return collector

    def _subscribe(self, probe) -> None:
        sub = probe.subscribe
        sub("lock_req", self._on_lock_req)
        sub("lock_acq", self._on_lock_acq)
        sub("lock_rel", self._on_lock_rel)
        for open_kind, (close_kind, name) in _PAIRS.items():
            sub(open_kind, self._make_opener(name))
            sub(close_kind, self._make_closer(name))
        sub("msa_alloc", self._on_msa_alloc)
        sub("msa_free", self._on_msa_free)
        sub("omu_inc", self._on_omu("inc"))
        sub("omu_dec", self._on_omu("dec"))
        sub("omu_steer", self._on_omu("steer"))
        sub("noc_send", self._on_noc_send)
        sub("noc_deliver", self._on_noc_deliver)
        sub("req_done", self._on_req_done)
        sub("req_shed", self._on_req_shed)
        for kind in TRACE_KINDS:
            sub(kind, self._on_trace)

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _span(
        self, name, cat, start, tid=None, tile=None, parent=None, attrs=None
    ) -> Span:
        span = Span(
            sid=self._next_sid,
            name=name,
            cat=cat,
            start=start,
            tid=tid,
            tile=tile,
            parent=parent,
            attrs=attrs,
        )
        self._next_sid += 1
        return span

    def _retain(self, span: Span) -> None:
        count = self._counts.get(span.name, 0) + 1
        self._counts[span.name] = count
        if count <= self.span_limit:
            self.spans.append(span)
        else:
            self._dropped[span.name] = self._dropped.get(span.name, 0) + 1

    def _close(self, span: Span, now: int) -> None:
        span.close(now)
        hist = self._durations.get(span.name)
        if hist is None:
            hist = self._durations[span.name] = Histogram(span.name)
        hist.add(span.duration)
        self._retain(span)

    def _parent_sid(self) -> Optional[int]:
        if self._phases:
            return self._phases[-1].sid
        return self.root.sid if self.root is not None else None

    # ------------------------------------------------------------------
    # Phases
    # ------------------------------------------------------------------
    @contextmanager
    def phase(self, name: str):
        """Open an explicit workload-phase span (nested phases nest)."""
        span = self._span(
            "phase",
            "phase",
            self.machine.sim.now,
            parent=self._parent_sid(),
            attrs={"label": name},
        )
        self._phases.append(span)
        try:
            yield span
        finally:
            self._phases.pop()
            self._close(span, self.machine.sim.now)

    # ------------------------------------------------------------------
    # Probe handlers
    # ------------------------------------------------------------------
    def _on_lock_req(self, e) -> None:
        self._open_sync[("lock.acquire", e.tid, e.addr)] = self._span(
            "lock.acquire",
            "sync",
            e.t,
            tid=e.tid,
            parent=self._parent_sid(),
            attrs={"addr": e.addr},
        )

    def _on_lock_acq(self, e) -> None:
        acquire = self._open_sync.pop(("lock.acquire", e.tid, e.addr), None)
        if acquire is not None:
            self._close(acquire, e.t)
        self._held[(e.tid, e.addr)] = self._span(
            "lock.held",
            "sync",
            e.t,
            tid=e.tid,
            parent=acquire.parent if acquire is not None else self._parent_sid(),
            attrs={"addr": e.addr},
        )

    def _on_lock_rel(self, e) -> None:
        held = self._held.pop((e.tid, e.addr), None)
        if held is not None:
            self._close(held, e.t)

    def _make_opener(self, name: str):
        def handler(e, _name=name):
            self._open_sync[(_name, e.tid, e.addr)] = self._span(
                _name,
                "sync",
                e.t,
                tid=e.tid,
                parent=self._parent_sid(),
                attrs={"addr": e.addr},
            )

        return handler

    def _make_closer(self, name: str):
        def handler(e, _name=name):
            span = self._open_sync.pop((_name, e.tid, e.addr), None)
            if span is not None:
                self._close(span, e.t)

        return handler

    def _on_msa_alloc(self, e) -> None:
        sync_type, live = e.aux if isinstance(e.aux, tuple) else (e.aux, None)
        self._entries[(e.tile, e.addr)] = self._span(
            "msa.entry",
            "msa",
            e.t,
            tile=e.tile,
            parent=self.root.sid if self.root is not None else None,
            attrs={"addr": e.addr, "type": sync_type, "live": live},
        )

    def _on_msa_free(self, e) -> None:
        span = self._entries.pop((e.tile, e.addr), None)
        if span is not None:
            span.attrs["reason"] = e.aux
            self._close(span, e.t)

    def _on_omu(self, event: str):
        def handler(e, _event=event):
            if len(self.omu_timeline) < self._omu_limit:
                amount = e.aux if isinstance(e.aux, int) else 1
                self.omu_timeline.append((e.t, e.tile, _event, amount))

        return handler

    def _on_noc_send(self, e) -> None:
        queue = self._inflight.setdefault((e.tid, e.tile, e.aux), [])
        queue.append(
            self._span(
                "noc.msg",
                "noc",
                e.t,
                tid=e.tid,
                tile=e.tile,
                parent=self.root.sid if self.root is not None else None,
                attrs={"kind": e.aux},
            )
        )

    def _on_noc_deliver(self, e) -> None:
        kind = e.aux[0] if isinstance(e.aux, tuple) else e.aux
        queue = self._inflight.get((e.tid, e.tile, kind))
        if queue:
            # Same (src, dst, kind) messages take the same route, and
            # links are FIFO, so first-sent is first-delivered.  Fault
            # plans (drops/dups) can desynchronize the match; leftovers
            # are discarded at finalize, never mis-closed backwards.
            self._close(queue.pop(0), e.t)

    def _request_span(self, e, shape, outcome) -> None:
        """Request lifetimes arrive as single terminal events carrying
        their own start cycle (the scheduled arrival), so the span is
        born already closed; its duration is the *sojourn* time."""
        arrival = e.aux[0]
        span = self._span(
            f"request.{outcome}",
            "traffic",
            arrival,
            tid=e.tid,
            parent=self.root.sid if self.root is not None else None,
            attrs={"rid": e.addr, "shape": shape},
        )
        self._close(span, e.t)

    def _on_req_done(self, e) -> None:
        self._request_span(e, shape=e.aux[1], outcome=e.aux[2])

    def _on_req_shed(self, e) -> None:
        self._request_span(e, shape=e.aux[1], outcome="shed")

    def _on_trace(self, e) -> None:
        """A protocol decision (``aux = (what, detail)``) becomes a
        zero-length span named ``<kind>.<what>``, born closed."""
        what, detail = e.aux
        attrs = dict(detail)
        if e.addr is not None:
            attrs["addr"] = e.addr
        span = self._span(
            f"{e.kind}.{what}",
            e.kind,
            e.t,
            tid=e.tid,
            tile=e.tile,
            parent=self.root.sid if self.root is not None else None,
            attrs=attrs,
        )
        self._close(span, e.t)

    # ------------------------------------------------------------------
    # Finalize
    # ------------------------------------------------------------------
    def finalize(self) -> ObsResult:
        """Close the run span, drop still-open episode state, and build
        the unified registry (machine stats + span aggregates)."""
        if self._finalized:
            raise ValueError("collector already finalized")
        self._finalized = True
        now = self.machine.sim.now
        while self._phases:
            self._close(self._phases.pop(), now)
        for span in self._open_sync.values():
            span.attrs["unfinished"] = True
            self._close(span, now)
        self._open_sync.clear()
        for span in list(self._held.values()) + list(self._entries.values()):
            span.attrs["unfinished"] = True
            self._close(span, now)
        self._held.clear()
        self._entries.clear()
        unmatched = sum(len(q) for q in self._inflight.values())
        self._inflight.clear()
        if self.root is not None:
            self._close(self.root, now)
        self.spans.sort(key=lambda s: (s.start, s.sid))

        registry = MetricsRegistry.from_machine(self.machine)
        for name, hist in sorted(self._durations.items()):
            registry.histogram(
                "obs.span.cycles", summarize_histogram(hist), span=name
            )
            registry.counter("obs.span.count", hist.count, span=name)
        for name, dropped in self._dropped.items():
            registry.counter("obs.span.dropped", dropped, span=name)
        if unmatched:
            registry.counter("obs.noc_unmatched_sends", unmatched)
        registry.gauge(
            "obs.events_observed", self.machine.probe.events_observed
        )
        return ObsResult(
            spans=self.spans,
            registry=registry,
            omu_timeline=self.omu_timeline,
            dropped_spans=dict(self._dropped),
        )
