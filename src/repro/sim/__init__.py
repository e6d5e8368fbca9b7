"""Discrete-event simulation kernel.

The whole machine model is built on three primitives:

* :class:`~repro.sim.kernel.Simulator` -- the event calendar (per-cycle
  buckets drained in scheduling order) and clock,
* :class:`~repro.sim.kernel.Future` -- a one-shot completion token that
  hardware models fulfil and coroutine processes wait on,
* :class:`~repro.sim.kernel.Process` -- a generator-based coroutine
  driven by the simulator (threads, cores, routers are processes or
  callback-driven components).
"""

from repro.sim.kernel import Simulator, Future, Process, Delay
from repro.sim.rng import DeterministicRng

__all__ = ["Simulator", "Future", "Process", "Delay", "DeterministicRng"]
