"""The host-speed yardstick: a fixed piece of pure-Python work that
imports nothing from ``repro``, timed throughout a run, so that measured
times can be scaled to one host speed.

Host speed on a shared machine drifts by tens of percent, in episodes
from under a second to minutes (contention for the shared hardware; the
guest sees no steal time, so CPU time stretches with wall time).  The
drift slows the unit and the program alike, and no change to the
program moves the unit.  ``Yardstick`` times a unit right before each
measured step and, from a ``SIGALRM`` interval timer, every
``PERIOD_S`` during it, in thread CPU time (so a unit that waits for a
CPU behind the engine's workers does not read as slow).  A step's
slowdown is the median of the units timed during it over
``REFERENCE_S``.

The unit reads a small JSON file, decodes it, encodes it again and
hashes it.  On a 2-vCPU Intel Xeon virtual machine, against loops of
integer arithmetic, object allocation into dicts and a heap, generator
events and function calls, it tracked the simulator as well as the best
of them (spread of pass times over 24 sets: 17-20 % raw, 5-8 % scaled)
and cache reads far better: after a large simulation a cache read slows
in proportion to this unit (log-log slope 1.08, correlation 0.96) but by
the square of the arithmetic loop's slowdown.

    python3 benchmarks/e2e/reference.py      # time some units here
"""

from __future__ import annotations

import hashlib
import json
import signal
import statistics
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import List

REFERENCE_S = 0.00030
"""Thread CPU seconds one unit takes at the host speed times are scaled
to: about the median unit while the benchmark runs on a 2-vCPU Intel
Xeon virtual machine in a quiet hour (CPython 3.11)."""

PERIOD_S = 0.04
"""Interval between units timed during a step (under 1 % of the run)."""

DOCUMENT = {
    "rows": [
        {"name": f"row-{i}", "values": list(range(i, i + 12)), "x": i / 8}
        for i in range(40)
    ]
}
"""What the unit reads: about 3 KB of JSON."""


def reference_unit(path: Path) -> str:
    data = json.loads(path.read_text())
    return hashlib.sha256(
        json.dumps(data, sort_keys=True).encode()
    ).hexdigest()


class Yardstick:
    """Times reference units on request and, between ``start`` and
    ``stop``, from a ``SIGALRM`` interval timer.  Disabled, it times
    nothing and every slowdown reads 1.

    Forked children inherit the handler but not the timer, and
    ``exec`` resets both, so only this process ever runs a unit.  The
    handler runs on the main thread between bytecodes; system calls it
    interrupts are retried (PEP 475)."""

    def __init__(self, work: Path, enabled: bool = True):
        self.enabled = enabled
        self.document = Path(work) / "reference.json"
        self.document.write_text(json.dumps(DOCUMENT))
        self.units_s: List[float] = []
        """Thread CPU seconds of every unit, in the order timed."""
        self.wall_s = 0.0
        self.cpu_s = 0.0
        """Wall and process CPU seconds spent on units so far: measured
        intervals subtract them."""
        self._previous = None

    def sample(self, *_signal) -> None:
        if not self.enabled:
            return
        wall0, cpu0 = time.perf_counter(), time.process_time()
        t0 = time.thread_time()
        reference_unit(self.document)
        self.units_s.append(time.thread_time() - t0)
        self.cpu_s += time.process_time() - cpu0
        self.wall_s += time.perf_counter() - wall0

    def start(self) -> "Yardstick":
        if self.enabled:
            self._previous = signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @contextmanager
    def measuring(self):
        """Times a unit on entry; yields a function returning the
        block's slowdown so far: the median of the units timed since
        entry over ``REFERENCE_S``, or 1 if none was timed."""
        first = len(self.units_s)
        self.sample()

        def slowdown() -> float:
            units = self.units_s[first:]
            return statistics.median(units) / REFERENCE_S if units else 1.0

        yield slowdown


def main() -> int:
    with tempfile.TemporaryDirectory() as work:
        stick = Yardstick(Path(work))
        with stick.measuring() as slowdown:
            for _ in range(499):
                stick.sample()
        units = stick.units_s
        print(f"reference unit: median {statistics.median(units) * 1e6:.0f} "
              f"us, min {min(units) * 1e6:.0f} us over {len(units)}; "
              f"slowdown {slowdown():.3f} against "
              f"REFERENCE_S = {REFERENCE_S * 1e6:.0f} us")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
