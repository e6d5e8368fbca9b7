"""Machine assembly: one object owning the simulator, NoC, memory
hierarchy, MSA slices, sync units, scheduler, and runtime services.

Build one with :class:`MachineParams` plus a synchronization
configuration (which sync unit mode and which library), or more
conveniently through :func:`repro.harness.configs.build_machine`.
Every machine runs on the one event kernel,
:class:`repro.sim.kernel.Simulator`; its size does not change how
events are queued or ordered.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import ConfigError
from repro.common.params import MachineParams
from repro.common.stats import merge_counters
from repro.faults import FaultInjector, FaultPlane, ReliableTransport
from repro.mem.address import AddressAllocator
from repro.mem.memsys import MemoryFabric
from repro.msa.ideal import IdealSyncOracle
from repro.msa.isa import MODE_ALWAYS_FAIL, MODE_HW, MODE_IDEAL, SyncUnit
from repro.msa.slice import MSASlice
from repro.noc.network import Network
from repro.runtime.futex import FutexService
from repro.runtime.scheduler import Scheduler
from repro.runtime.swsync.registry import SwStateRegistry
from repro.runtime.syncapi import make_library
from repro.sim.kernel import Simulator
from repro.sim.rng import DeterministicRng


class Machine:
    """A fully wired simulated tiled many-core."""

    def __init__(
        self,
        params: MachineParams,
        library: str = "hybrid",
        fault_plan=None,
    ):
        params.validate()
        self.params = params
        self.library_name = library
        self.sim = Simulator()
        self.probe = None
        """The event bus (:class:`repro.verify.events.Probe`); ``None``
        until :meth:`attach_probe` wires one in for a checker suite or
        a collector, so the unobserved hot path pays one attribute test
        per call site."""

        self.checker_suite = None
        self.collector = None
        """Observability collector (:class:`repro.obs.Collector`);
        ``None`` unless :meth:`repro.obs.Collector.attach` wired one in.
        Shares :attr:`probe` with the checker suite when both attach."""

        self.rng = DeterministicRng(params.seed, "machine")
        self.network = Network(self.sim, params.n_cores, params.noc)

        self.fault_plan = fault_plan
        self.fault_injector: Optional[FaultInjector] = None
        self.fault_plane: Optional[FaultPlane] = None
        self.transport: Optional[ReliableTransport] = None
        if fault_plan is not None:
            if params.ideal_sync or params.msa is None:
                raise ConfigError(
                    "fault plans target the MSA message protocol; build "
                    "the machine with an MSA (not ideal_sync/software-only)"
                )
            fault_plan.validate(n_tiles=params.n_cores)
            self.fault_injector = FaultInjector(
                self.sim, fault_plan, params.seed
            )
            self.fault_plane = FaultPlane(self.sim)
            self.transport = ReliableTransport(
                self.sim, self.network, params.faults
            )
            self.network.injector = self.fault_injector
            self.network.transport = self.transport

        self.memory = MemoryFabric(self.sim, self.network, params)
        self.allocator = AddressAllocator(self.memory.amap)
        self.futex = FutexService(self.sim)
        self.sw_state = SwStateRegistry(self.allocator)

        line_shift = params.l1.line_size.bit_length() - 1
        self.ideal_oracle: Optional[IdealSyncOracle] = None
        self.msa_slices: List[MSASlice] = []

        if params.ideal_sync:
            mode = MODE_IDEAL
            self.ideal_oracle = IdealSyncOracle(self.sim)
        elif params.msa is None:
            mode = MODE_ALWAYS_FAIL
        else:
            mode = MODE_HW
            self.msa_slices = [
                MSASlice(
                    self.sim,
                    self.network,
                    tile,
                    params.msa,
                    params.omu,
                    self.memory.amap.home_of,
                    line_shift,
                    hw_threads=params.core.hw_threads,
                )
                for tile in range(params.n_cores)
            ]
        self.sync_mode = mode
        self.sync_units: List[SyncUnit] = [
            SyncUnit(
                self.sim,
                self.network,
                core,
                params.core,
                params.msa,
                self.memory.amap.home_of,
                mode=mode,
                ideal_oracle=self.ideal_oracle,
            )
            for core in range(params.n_cores)
        ]
        if self.fault_plane is not None:
            for sl in self.msa_slices:
                sl.arm_faults(self.fault_injector, self.fault_plane, params.faults)
            for unit in self.sync_units:
                unit.arm_faults(
                    self.fault_plane, self.fault_injector, params.faults
                )
            self.fault_plane.attach(self.sync_units, self.transport)
            for fault in self.fault_injector.kill_schedule():
                self.sim.schedule(
                    fault.at, lambda t=fault.tile: self.msa_slices[t].kill()
                )
        self.scheduler = Scheduler(self)
        self.sync_library = make_library(library, self)
        if library == "hybrid" and mode not in (
            MODE_HW,
            MODE_ALWAYS_FAIL,
            MODE_IDEAL,
        ):
            raise ConfigError(f"hybrid library incompatible with mode {mode}")

    # ------------------------------------------------------------------
    # Component accessors used by the runtime
    # ------------------------------------------------------------------
    def sync_unit(self, core: int) -> SyncUnit:
        return self.sync_units[core]

    def msa_slice(self, tile: int) -> MSASlice:
        return self.msa_slices[tile]

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def attach_probe(self):
        """Create the machine's :attr:`probe` (or reuse the one already
        wired) and point every probe-aware component at it: MSA slices,
        network, sync units and the fault components.  The scheduler
        and thread contexts read :attr:`probe` directly.  Checker
        suites and collectors both attach through here, in either
        order, so they always share one bus.  Call before spawning
        threads."""
        if self.probe is None:
            from repro.verify.events import Probe

            self.probe = Probe(self.sim)
        for component in (
            *self.msa_slices,
            *self.sync_units,
            self.network,
            self.fault_injector,
            self.fault_plane,
            self.transport,
        ):
            if component is not None:
                component.probe = self.probe
        return self.probe

    def attach_checkers(self, monitors=True, fail_fast: bool = False):
        """Attach a :class:`repro.verify.CheckerSuite` (all monitors by
        default) to this machine; see :func:`repro.verify.attach_checkers`."""
        from repro.verify import attach_checkers

        return attach_checkers(self, monitors, fail_fast=fail_fast)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the simulation; raises DeadlockError if threads hang."""
        cycles = self.sim.run(max_events=max_events)
        self.scheduler.check_for_deadlock()
        return cycles

    def check_invariants(self) -> None:
        self.memory.check_invariants()
        for msa in self.msa_slices:
            if msa.dead:
                continue  # Fail-stop: its state is gone, not invariant.
            msa.check_invariants()

    # ------------------------------------------------------------------
    # Aggregated statistics
    # ------------------------------------------------------------------
    def stat_sets(self):
        """Yield ``(prefix, StatSet, labels)`` for every stats-bearing
        component: the NoC, each MSA slice and sync unit, the futex
        service, and (via :meth:`MemoryFabric.stat_sets`) each cache
        and directory.  This is the single enumeration the unified
        :class:`repro.obs.MetricsRegistry` ingests -- a new subsystem
        with a ``StatSet`` only needs a line here to appear in every
        exporter and report."""
        yield "noc.", self.network.stats, {}
        for sl in self.msa_slices:
            yield "msa.", sl.stats, {"tile": sl.tile}
        for core, unit in enumerate(self.sync_units):
            yield "sync.", unit.stats, {"core": core}
        yield "futex.", self.futex.stats, {}
        if self.ideal_oracle is not None:
            yield "ideal.", self.ideal_oracle.stats, {}
        for prefix, stats, labels in self.memory.stat_sets():
            yield prefix, stats, labels
        if self.fault_injector is not None:
            yield "fault.injector.", self.fault_injector.stats, {}
        if self.transport is not None:
            yield "fault.transport.", self.transport.stats, {}
        if self.fault_plane is not None:
            yield "fault.plane.", self.fault_plane.stats, {}

    def msa_counters(self) -> Dict[str, int]:
        return merge_counters(s.stats for s in self.msa_slices)

    def sync_unit_counters(self) -> Dict[str, int]:
        return merge_counters(u.stats for u in self.sync_units)

    def msa_coverage(self) -> Optional[float]:
        """Fraction of synchronization operations serviced in hardware
        (the paper's Figure 7 metric).  None when no MSA is present."""
        if not self.msa_slices:
            return None
        counters = self.msa_counters()
        hw = counters.get("ops_hw", 0)
        sw = counters.get("ops_sw", 0) + counters.get("ops_aborted", 0)
        total = hw + sw
        return hw / total if total else None

    def omu_totals(self) -> int:
        return sum(s.omu.total for s in self.msa_slices if not s.dead)

    # ------------------------------------------------------------------
    # Fault-plane introspection
    # ------------------------------------------------------------------
    def degraded_tiles(self) -> set:
        """Home tiles permanently routed to software by the fault plane."""
        if self.fault_plane is None:
            return set()
        return set(self.fault_plane.degraded)

    def msa_tile_coverage(self, tile: int) -> Optional[float]:
        """Hardware-coverage fraction for ops *homed* at one tile."""
        if not self.msa_slices:
            return None
        stats = self.msa_slices[tile].stats
        hw = stats.counter("ops_hw").value
        sw = stats.counter("ops_sw").value + stats.counter("ops_aborted").value
        total = hw + sw
        return hw / total if total else None

    def noc_ledger(self) -> Dict[str, int]:
        """Where every wire copy of a NoC message went::

            sent + duplicated == delivered + dropped + suppressed
                               + stuck + in_flight

        ``dropped``/``duplicated`` are the fault injector's, ``suppressed``
        the transport's discarded duplicates, and ``stuck`` the messages
        parked behind an abandoned sequence number in a reorder buffer.
        ``in_flight`` is what is left: 0 once a run has drained."""
        noc = self.network.stats
        sent = noc["messages_sent"].value
        delivered = noc["messages_delivered"].value
        dropped = duplicated = suppressed = stuck = 0
        if self.fault_injector is not None:
            dropped = self.fault_injector.stats["msgs_dropped"].value
            duplicated = self.fault_injector.stats["msgs_duplicated"].value
        if self.transport is not None:
            suppressed = self.transport.stats["dup_suppressed"].value
            stuck = sum(
                len(state.buffer) for state in self.transport._recv.values()
            )
        return {
            "sent": sent,
            "duplicated": duplicated,
            "delivered": delivered,
            "dropped": dropped,
            "suppressed": suppressed,
            "stuck": stuck,
            "in_flight": sent + duplicated - delivered - dropped
            - suppressed - stuck,
        }

    def fault_counters(self) -> Dict[str, int]:
        """Merged injector + transport + plane + recovery counters."""
        sets = []
        if self.fault_injector is not None:
            sets.append(self.fault_injector.stats)
        if self.transport is not None:
            sets.append(self.transport.stats)
        if self.fault_plane is not None:
            sets.append(self.fault_plane.stats)
        merged = merge_counters(sets)
        for name in ("retries", "pings", "timeouts", "degraded_fails"):
            merged[name] = sum(
                u.stats.counter(name).value for u in self.sync_units
            )
        return merged
