"""Tracing for the benchmark's traced runs: a stdlib sampling profiler
that attributes CPU time to ``repro`` packages, and in-memory spans
around the benchmark's calls into each layer.

Sampler
    A sampling thread wakes every millisecond (backing off to 16 ms
    while every other thread is idle), walks
    ``sys._current_frames()`` and charges every thread's CPU time since
    the previous sample (its ``pthread_getcpuclockid`` clock) to the
    nearest ``repro.<package>`` frame on that thread's stack.  Stdlib
    and benchmark frames count toward their ``repro`` caller; a stack
    with no ``repro`` frame counts as ``other``.  Weighting by CPU time
    means idle threads, and time a process spends waiting, count for
    nothing.  A thread rather than ``setitimer(ITIMER_PROF)``: the
    kernel fires CPU-time timers only at its scheduler tick (often
    4 ms), and Python runs signal handlers only on the main thread,
    which a server keeps blocked while other threads do the work.

Spans
    ``Spans.span(name)`` records name, start, end, the enclosing span,
    and the outermost span (the request it belongs to).  Spans stay in
    memory and are written out when the run ends.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

LAYERS = (
    "sim", "noc", "mem", "msa", "runtime", "workloads", "traffic",
    "machine", "common", "harness", "resilience", "serve", "client",
    "other",
)
INTERVAL_S = 0.001
IDLE_INTERVAL_S = 0.016
IDLE_NS = 20_000


def layer_of(module: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside ``repro``.
    ``repro`` modules outside the named layers count as ``other``."""
    parts = module.split(".")
    if parts[0] != "repro":
        return None
    return parts[1] if len(parts) > 1 and parts[1] in LAYERS else "other"


class Sampler:
    """CPU-time sampling profiler folded by ``repro`` layer (see the
    module docstring).  ``samples`` counts the wake-ups that found some
    thread had used CPU time."""

    def __init__(self):
        self.weights_ns: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        self.samples = 0
        self.sampler_cpu_ns = 0
        self.process_cpu_ns = 0
        self._layer_by_code: Dict[object, Optional[str]] = {}
        self._clocks: Dict[int, List[int]] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._previous_switch = sys.getswitchinterval()
        self._process_t0 = 0

    def start(self) -> "Sampler":
        for ident in sys._current_frames():
            self._clock(ident, since_start=False)
        # The sampling thread needs the interpreter lock to take a
        # sample; a switch interval equal to the sampling interval lets
        # it in once per interval.
        sys.setswitchinterval(INTERVAL_S)
        self._process_t0 = time.process_time_ns()
        self._thread = threading.Thread(
            target=self._loop, name="e2e-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.process_cpu_ns = time.process_time_ns() - self._process_t0
        sys.setswitchinterval(self._previous_switch)

    def _clock(self, ident: int,
               since_start: bool = True) -> Optional[List[int]]:
        """``[clock id, CPU ns at the last sample]`` for a thread.  A
        thread first seen after ``start`` was created after it, so all
        of its CPU time falls inside the sampled interval."""
        entry = self._clocks.get(ident)
        if entry is None:
            try:
                clock = time.pthread_getcpuclockid(ident)
                now = 0 if since_start else time.clock_gettime_ns(clock)
                entry = [clock, now]
            except OSError:
                return None
            self._clocks[ident] = entry
        return entry

    def _loop(self) -> None:
        me = threading.get_ident()
        cpu0 = time.thread_time_ns()
        others = 0
        delay = INTERVAL_S
        while not self._stop.is_set():
            time.sleep(delay)
            # The other threads' CPU time.  (Read with two clocks, so it
            # carries a little of this thread's time.)  Next to no change
            # means all of them were idle: there is nothing to attribute
            # yet, and the sampler backs off until one of them runs.
            now = time.process_time_ns() - time.thread_time_ns()
            if now - others < IDLE_NS:
                delay = min(2 * delay, IDLE_INTERVAL_S)
                continue
            others = now
            delay = INTERVAL_S
            self.samples += self._sample(me)
        self.sampler_cpu_ns = time.thread_time_ns() - cpu0

    def _sample(self, me: int) -> bool:
        busy = False
        for ident, frame in sys._current_frames().items():
            if ident == me:
                continue
            entry = self._clock(ident)
            if entry is None:
                continue
            try:
                now = time.clock_gettime_ns(entry[0])
            except OSError:  # the thread ended
                del self._clocks[ident]
                continue
            delta, entry[1] = now - entry[1], now
            if delta > 0:
                busy = True
                self.weights_ns[self._fold(frame)] += delta
        return busy

    def _fold(self, frame) -> str:
        cache = self._layer_by_code
        while frame is not None:
            code = frame.f_code
            layer = cache.get(code, False)
            if layer is False:
                layer = cache[code] = layer_of(
                    frame.f_globals.get("__name__", "")
                )
            if layer is not None:
                return layer
            frame = frame.f_back
        return "other"

    def to_dict(self) -> Dict:
        return {
            "weights_ns": dict(self.weights_ns),
            "samples": self.samples,
            "sampler_cpu_ns": self.sampler_cpu_ns,
            "process_cpu_ns": self.process_cpu_ns,
        }


class Spans:
    """In-memory spans; with ``enabled=False`` every span is a no-op."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.records: List[Dict] = []
        self._stack: List[int] = []
        self._ids = itertools.count(1)

    def span(self, name: str, **tags):
        """Context manager timing one call; yields a dict of tags the
        caller may extend (e.g. with a count known only afterwards)."""
        if not self.enabled:
            return nullcontext({})
        return self._record(name, tags)

    @contextmanager
    def _record(self, name: str, tags: Dict):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else None
        root = self._stack[0] if self._stack else sid
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield tags
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.records.append(
                {
                    "id": sid,
                    "parent": parent,
                    "root": root,
                    "name": name,
                    "start_ns": start,
                    "end_ns": end,
                    **tags,
                }
            )

    def find(self, name: str) -> List[Dict]:
        return [r for r in self.records if r["name"] == name]

    def durations_s(self, name: str) -> List[float]:
        return [(r["end_ns"] - r["start_ns"]) / 1e9 for r in self.find(name)]
