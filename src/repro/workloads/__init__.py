"""Workloads: Figure-5 latency microbenchmarks and the synthetic
application kernels whose synchronization signatures mirror the
Splash-2/PARSEC applications highlighted in the paper's evaluation.

``Workload`` and ``WorkloadEnv`` resolve on first access, so reading
the kernel names (:data:`repro.workloads.kernels.KERNEL_NAMES`) loads
no part of the simulator."""

__all__ = ["Workload", "WorkloadEnv"]


def __getattr__(name):
    if name in __all__:
        from repro.workloads import base

        return getattr(base, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
