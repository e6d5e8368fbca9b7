"""Event calendar, simulation clock, futures, and coroutine processes.

Design notes
------------
The machine model mixes two styles:

* *Callback-driven* hardware components (caches, MSA slices) schedule
  plain callbacks with :meth:`Simulator.schedule`.  A NoC hop is a
  kernel event kind instead (:data:`HOP`, below).
* *Coroutine* processes (simulated threads, workload kernels) are Python
  generators that ``yield`` either an ``int``/:class:`Delay` (advance the
  clock) or a :class:`Future` (block until some hardware event fulfils
  it).  Sub-routines compose with ``yield from``.

Events at the same timestamp fire in scheduling order (each cycle's
events queue in one bucket, appended as scheduled and drained front to
back), which makes runs bit-for-bit deterministic for a given seed and
configuration.

Hot-path conventions (this module carries every simulated cycle; see
docs/PERF.md for the determinism contract and where the time goes):

* :meth:`Simulator.schedule` takes an optional ``arg`` so call sites
  can pass a bound method plus its argument instead of allocating a
  closure per event; the event loop applies the argument itself.
* :class:`Process` caches its bound ``_step`` once, so resuming a
  coroutine (including via :meth:`Future.complete`) never re-creates a
  bound-method object, and dispatches the common ``int`` yield inline.
* Live processes are tracked in a dict keyed by ``id`` so releasing a
  finished process is O(1); releasing one twice is a kernel bug and
  raises instead of being swallowed.
* A NoC link traversal is a kernel event kind, not a callback: an
  event whose callback is the :data:`HOP` sentinel carries a message's
  hop state, and :meth:`Simulator._drain` reserves the link and pushes
  the next hop (or the delivery) inline.  Hops are 65-72% of the
  events on the headline workloads, so each one saves a Python call.
  The link fabric (:mod:`repro.noc.router`) registers its timing with
  :meth:`Simulator.attach_links`; one simulator carries one fabric.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Dict, Generator, List, Optional

from repro.common.errors import SimulationError

#: Sentinel for "scheduled without an argument": the event loop calls
#: ``callback()`` when it sees this, ``callback(arg)`` otherwise.  A
#: sentinel (not ``None``) so ``None`` remains a passable argument.
NO_ARG = object()

_NO_ARG = NO_ARG

#: Callback sentinel of a link-traversal event.  Its argument is the
#: mutable hop state ``[links, index, deliver, deliver_arg]``: the drain
#: loop reserves ``links[index]`` and then either queues the next hop
#: (same state, index advanced) or ``deliver(deliver_arg)`` after the
#: last link.  ``index`` counts up from ``-len(links)``, so the loop
#: knows the last link by ``index`` reaching 0, without a ``len`` call
#: per hop, and the ``(HOP, state)`` entry itself is queued again for
#: the next hop: one state, one entry per traversal.  See
#: :meth:`Simulator.attach_links`.
HOP = object()


@dataclass(frozen=True)
class Delay:
    """Explicit delay request a process may yield (equivalent to yielding
    the plain integer, but self-documenting at call sites)."""

    cycles: int


class Future:
    """A one-shot completion token.

    Hardware fulfils a future with :meth:`complete`; at most one process
    may wait on it (the machine's request/response protocols are all
    point-to-point), plus any number of callbacks may observe it.
    """

    __slots__ = ("sim", "_done", "_value", "_cb")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._done = False
        self._value: Any = None
        # None | a single callable | a list of callables.  Nearly every
        # future has exactly one waiter (the issuing process), so the
        # common case never allocates a list.
        self._cb: Any = None

    @property
    def done(self) -> bool:
        return self._done

    @property
    def value(self) -> Any:
        if not self._done:
            raise SimulationError("Future read before completion")
        return self._value

    def complete(self, value: Any = None) -> None:
        """Fulfil the future *now*; waiters resume at the current cycle."""
        if self._done:
            raise SimulationError("Future completed twice")
        self._done = True
        self._value = value
        cb = self._cb
        if cb is not None:
            self._cb = None
            if type(cb) is list:
                for callback in cb:
                    callback(value)
            else:
                cb(value)

    def complete_at(self, delay: int, value: Any = None) -> None:
        """Fulfil the future ``delay`` cycles from now."""
        self.sim.schedule(delay, self.complete, value)

    def add_callback(self, callback: Callable[[Any], None]) -> None:
        if self._done:
            callback(self._value)
            return
        cb = self._cb
        if cb is None:
            self._cb = callback
        elif type(cb) is list:
            cb.append(callback)
        else:
            self._cb = [cb, callback]


ProcessBody = Generator[Any, Any, Any]


class Process:
    """Drives a generator coroutine through the simulator.

    The generator may yield:

    * ``int`` or :class:`Delay` -- resume after that many cycles,
    * :class:`Future` -- resume (with the future's value sent in) when
      the future completes.

    When the generator returns, :attr:`finished` becomes true and
    :attr:`result` holds its return value; :attr:`on_exit` (a Future)
    completes so parents can join.
    """

    __slots__ = (
        "sim",
        "body",
        "name",
        "finished",
        "result",
        "on_exit",
        "_waiting_on",
        "_step_cb",
        "_buckets",
        "_times",
    )

    def __init__(self, sim: "Simulator", body: ProcessBody, name: str = "?"):
        self.sim = sim
        self.body = body
        self.name = name
        self.finished = False
        self.result: Any = None
        self.on_exit = Future(sim)
        self._waiting_on: Optional[Future] = None
        # One bound method for the process's whole life: every resume
        # (timer or future completion) reuses it instead of re-binding.
        self._step_cb = self._step
        # The calendar, for the inline push of int yields in _step.
        self._buckets = sim._buckets
        self._times = sim._times

    def start(self, delay: int = 0) -> "Process":
        self.sim.schedule(delay, self._step_cb, None)
        return self

    @property
    def blocked_on(self) -> Optional[Future]:
        """The future this process is currently waiting on, if any
        (used by deadlock diagnostics)."""
        return self._waiting_on

    def _step(self, send_value: Any) -> None:
        self._waiting_on = None
        try:
            yielded = self.body.send(send_value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            self.on_exit.complete(stop.value)
            self.sim._release(self)
            return
        cls = type(yielded)
        if cls is int and yielded >= 0:
            # Simulator.schedule inlined (a negative delay takes the
            # slow path, which raises): most resumes are int yields.
            when = self.sim.now + yielded
            bucket = self._buckets.get(when)
            if bucket is None:
                self._buckets[when] = [(self._step_cb, None)]
                heappush(self._times, when)
            else:
                bucket.append((self._step_cb, None))
        elif cls is Future:
            self._waiting_on = yielded
            if yielded._cb is None and not yielded._done:
                yielded._cb = self._step_cb  # add_callback's common case
            else:
                yielded.add_callback(self._step_cb)
        else:
            self._dispatch(yielded)

    def _dispatch(self, yielded: Any) -> None:
        # Slow path: Delay objects plus int/Future subclasses (bools,
        # test doubles); exact types were fast-pathed in _step.
        if isinstance(yielded, int):
            self.sim.schedule(yielded, self._step_cb, None)
        elif isinstance(yielded, Delay):
            self.sim.schedule(yielded.cycles, self._step_cb, None)
        elif isinstance(yielded, Future):
            self._waiting_on = yielded
            yielded.add_callback(self._step_cb)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value "
                f"{yielded!r}; yield an int, Delay, or Future"
            )


class Simulator:
    """The event calendar and clock.

    Pending events live in a calendar of per-cycle buckets: a dict from
    cycle to the list of ``(callback, arg)`` pairs due then, plus an
    int-heap of the cycles that have a bucket.  Events cluster heavily
    on shared timestamps (about 5 per distinct cycle at 64 cores and 12
    at 256 on the headline workloads), so the heap is paid once per
    distinct cycle rather than once per event, and each bucket drains
    in a tight loop.

    Buckets are appended in scheduling order and drained front to back,
    so the event total order is ``(time, scheduling order)``.  The
    drain *pops* each bucket out of the table before running it: a
    callback that schedules more work for the current cycle creates a
    fresh bucket under the same cycle, which drains next -- those
    events were scheduled last, so running them after the popped
    bucket keeps the total order.
    """

    def __init__(self):
        self.now: int = 0
        self._buckets: Dict[int, List] = {}
        self._times: List[int] = []
        self._events_processed = 0
        self._processes: Dict[int, Process] = {}
        # Link-traversal timing, set by attach_links (a simulator
        # without a network never sees a HOP event).
        self._link_stats = None
        self._link_occupancy = 0
        self._router_latency = 0
        self._link_stall = None
        """The ``link_stall_cycles`` counter, registered on the first
        stall so an uncontended run's counter set has no such entry."""

    def attach_links(self, occupancy: int, router_latency: int, stats) -> None:
        """Register the link fabric whose :data:`HOP` events this
        simulator runs: every link holds a message for ``occupancy``
        cycles, each hop adds ``router_latency``, and stalls count into
        ``stats``' ``link_stall_cycles``.  One fabric per simulator."""
        if self._link_stats is not None:
            raise SimulationError("a simulator carries one link fabric")
        if occupancy < 1 or router_latency < 0:
            raise SimulationError(
                f"bad link timing: occupancy {occupancy}, "
                f"router latency {router_latency}"
            )
        self._link_stats = stats
        self._link_occupancy = occupancy
        self._router_latency = router_latency

    def schedule(
        self, delay: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` ``delay`` cycles from now (0 = this cycle,
        after currently executing events).

        With ``arg``, the loop calls ``callback(arg)`` -- pass a bound
        method and its operand instead of wrapping them in a lambda."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        when = self.now + delay
        bucket = self._buckets.get(when)
        if bucket is None:
            self._buckets[when] = [(callback, arg)]
            heappush(self._times, when)
        else:
            bucket.append((callback, arg))

    def _requeue(self, when: int, remainder: List) -> None:
        """Put unexecuted events back under ``when`` (cold path: a
        raising callback or a bucket that straddles the event budget).
        A bucket already queued at ``when`` (so ``when`` is already on
        the time-heap) holds newer events: the remainder goes first."""
        if not remainder:
            return
        fresh = self._buckets.get(when)
        if fresh is not None:
            remainder.extend(fresh)
        else:
            heappush(self._times, when)
        self._buckets[when] = remainder

    def future(self) -> Future:
        return Future(self)

    def process(self, body: ProcessBody, name: str = "?", delay: int = 0) -> Process:
        """Create and start a coroutine process."""
        proc = Process(self, body, name=name)
        self._processes[id(proc)] = proc
        return proc.start(delay)

    def _drain(self, budget: int) -> int:
        """Run up to ``budget`` events in total order; return how many
        ran.  A bucket that fits the remaining budget (the common case)
        runs with no per-event budget compare; one that straddles it
        has its tail requeued before the prefix runs.  A callback that
        raises leaves the unexecuted rest of its bucket queued, in
        order, so a later drain resumes exactly where this one
        stopped.

        A :data:`HOP` event runs inline: reserve the link (a busy link
        delays the message to when it frees, counted as stall cycles),
        then queue the next hop or the delivery ``occupancy +
        router_latency`` cycles after the reservation starts.  Every
        uncontended hop of one cycle lands on the same later cycle, so
        the loop remembers the last bucket a hop of the current bucket
        appended to (``hop_at``, ``hop_bucket``) and appends there again
        while the target cycle repeats.  The memo stays valid: a later
        cycle's bucket is only ever appended to until its own turn, and
        events scheduled there by callbacks in between land on the same
        list, so the order is unchanged."""
        buckets = self._buckets
        times = self._times
        pop_time = heappop
        push_time = heappush
        pop_bucket = buckets.pop
        no_arg = _NO_ARG
        hop = HOP
        occupancy = self._link_occupancy
        router_latency = self._router_latency
        stall = self._link_stall
        count = 0
        try:
            while times and count < budget:
                when = pop_time(times)
                self.now = when
                bucket = pop_bucket(when)
                room = budget - count
                if len(bucket) > room:
                    # Requeued before any callback runs, so events the
                    # prefix schedules for this cycle land behind it.
                    self._requeue(when, bucket[room:])
                    del bucket[room:]
                events = iter(bucket)
                hop_at = -1
                hop_bucket = None
                try:
                    for entry in events:
                        callback, arg = entry
                        if callback is hop:
                            links, index, deliver, deliver_arg = arg
                            link = links[index]
                            start = link._free_at
                            if start > when:
                                if stall is None:
                                    stall = self._link_stall = (
                                        self._link_stats.counter(
                                            "link_stall_cycles"
                                        )
                                    )
                                stall.value += start - when
                            else:
                                start = when
                            finish = start + occupancy
                            link._free_at = finish
                            index += 1
                            if index:
                                # The same (HOP, state) entry moves on.
                                arg[1] = index
                            else:
                                entry = (deliver, deliver_arg)
                            # schedule() inlined; the next event is at
                            # least one cycle out (occupancy >= 1).
                            at = finish + router_latency
                            if at == hop_at:
                                hop_bucket.append(entry)
                            else:
                                hop_bucket = buckets.get(at)
                                if hop_bucket is None:
                                    hop_bucket = buckets[at] = [entry]
                                    push_time(times, at)
                                else:
                                    hop_bucket.append(entry)
                                hop_at = at
                        elif arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                except BaseException:
                    # The iterator has consumed the raising event, so
                    # what it still holds is exactly the unexecuted rest.
                    rest = list(events)
                    count += len(bucket) - len(rest)
                    self._requeue(when, rest)
                    raise
                count += len(bucket)
        finally:
            self._events_processed += count
        return count

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the calendar and return the final simulation time.

        ``max_events`` bounds work (guards against livelock in tests)
        and applies per invocation, not cumulatively across ``run()``
        calls: exactly ``max_events`` events run, and if any remain
        queued the call raises :class:`SimulationError`.
        """
        self._drain(sys.maxsize if max_events is None else max_events)
        if self._times:
            raise SimulationError(
                f"exceeded max_events={max_events} at cycle {self.now}"
            )
        return self.now

    def run_chunk(self, max_events: int) -> int:
        """Drain up to ``max_events`` events and return how many ran.

        Unlike :meth:`run`, exhausting the budget is *not* an error --
        the caller (the :class:`repro.resilience.watchdog.Watchdog`)
        owns the policy.  Chunks may end mid-bucket, and consecutive
        chunks run events in exactly the order one :meth:`run` would.
        """
        return self._drain(max_events)

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return sum(map(len, self._buckets.values()))

    def _release(self, proc: Process) -> None:
        """Drop a finished process so long runs don't accumulate them."""
        if self._processes.pop(id(proc), None) is None:
            raise SimulationError(
                f"process {proc.name!r} released twice (or never "
                f"registered via Simulator.process)"
            )

    def unfinished_processes(self) -> List[Process]:
        return [p for p in self._processes.values() if not p.finished]
