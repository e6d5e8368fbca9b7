"""Workload framework.

A :class:`Workload` owns a setup hook (allocate synchronization
variables and data), a factory producing one generator body per thread,
an optional controller process (for scenarios that drive scheduler
events such as suspensions), and a validation hook that checks
functional correctness after the run (critical-section counts, barrier
episode integrity, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional

from repro.common.errors import WorkloadError
from repro.sim.rng import DeterministicRng

if TYPE_CHECKING:
    from repro.machine import Machine


class WorkloadEnv:
    """Per-run context handed to every workload hook."""

    def __init__(self, machine: Machine):
        self.machine = machine
        self.allocator = machine.allocator
        self.rng = DeterministicRng(machine.params.seed, "workload")
        self.shared: Dict = {}
        """Workload-private shared state (addresses, Python-side
        verification mirrors, ...)."""

        self.metrics: Dict[str, float] = {}
        """Metrics the workload wants reported (latency samples etc.)."""

    @property
    def n_cores(self) -> int:
        return self.machine.params.n_cores

    def record(self, name: str, value: float) -> None:
        self.metrics[name] = value

    def expect(self, condition: bool, message: str) -> None:
        if not condition:
            raise WorkloadError(message)


ThreadBody = Callable[["ThreadCtx"], Generator]


@dataclass
class Workload:
    name: str
    n_threads: int
    make_threads: Callable[[WorkloadEnv], List[ThreadBody]]
    setup_fn: Optional[Callable[[WorkloadEnv], None]] = None
    validate_fn: Optional[Callable[[WorkloadEnv], None]] = None
    controller: Optional[Callable[[WorkloadEnv], Generator]] = None
    tags: tuple = field(default_factory=tuple)

    def setup(self, env: WorkloadEnv) -> None:
        capacity = env.n_cores * env.machine.params.core.hw_threads
        if self.n_threads > capacity:
            raise WorkloadError(
                f"{self.name} needs {self.n_threads} threads but the "
                f"machine has {capacity} hardware thread contexts"
            )
        if self.setup_fn is not None:
            self.setup_fn(env)

    def thread_bodies(self, env: WorkloadEnv) -> List[ThreadBody]:
        bodies = self.make_threads(env)
        if len(bodies) != self.n_threads:
            raise WorkloadError(
                f"{self.name}: expected {self.n_threads} bodies, got {len(bodies)}"
            )
        return bodies

    def validate(self, env: WorkloadEnv) -> None:
        if self.validate_fn is not None:
            self.validate_fn(env)
