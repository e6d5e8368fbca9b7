"""Synthetic application kernels.

Each kernel reproduces the *synchronization signature* of one of the
Splash-2/PARSEC applications the paper's evaluation highlights: the mix
of primitives, the number of distinct synchronization variables, their
contention level, and thread/data affinity.  DESIGN.md documents the
substitution rationale; headline shapes to reproduce:

* streamcluster -- barrier-dominated, biggest MSA win (paper: 7.59x)
* radiosity / raytrace -- lock-heavy (task stealing / one hot lock)
* fluidanimate -- thousands of low-contention same-thread locks
  (the HWSync-bit showcase, Figure 8)
* ocean / ocean-nc -- barrier-heavy stencil phases
* water-sp, cholesky -- mixed, moderate
* barnes, lu, fmm, volrend -- little synchronization (they pull the
  suite geomean toward the paper's 1.43x average)
* dedup, ferret -- bounded-queue pipelines (condvar-heavy)
* bodytrack -- thread pool dispatched through a condition variable
* canneal, swaptions -- near-zero synchronization (the ~1.0x tail of
  the paper's 26-application suite)
"""

from importlib import import_module

#: Every kernel name, in registry order.  Kernel ``water-sp`` is module
#: ``water_sp`` of this package, and that module's ``make`` is its
#: factory (``factory(n_threads, scale=1.0) -> Workload``).  Code that
#: needs only the names reads this table; a kernel's module is imported
#: when its factory is first asked for.
KERNEL_NAMES = (
    "radiosity",
    "raytrace",
    "water-sp",
    "ocean",
    "ocean-nc",
    "cholesky",
    "fluidanimate",
    "streamcluster",
    "barnes",
    "lu",
    "fmm",
    "volrend",
    "bodytrack",
    "dedup",
    "ferret",
    "canneal",
    "swaptions",
)


def kernel_factory(name: str):
    """The factory of kernel ``name`` (its module's ``make``), importing
    only that module; ``None`` when ``name`` is not a kernel.  Once
    :data:`KERNELS` is loaded it is the registry, entries added to it
    included."""
    loaded = globals().get("KERNELS")
    if loaded is not None:
        return loaded.get(name)
    if name not in KERNEL_NAMES:
        return None
    return import_module(f"{__name__}.{name.replace('-', '_')}").make


def __getattr__(name):
    # ``KERNELS`` (name -> factory) imports every kernel, so it is built
    # on first access and kept: later accesses return the same dict.
    if name == "KERNELS":
        kernels = {kernel: kernel_factory(kernel) for kernel in KERNEL_NAMES}
        globals()["KERNELS"] = kernels
        return kernels
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: The applications shown individually in Figures 6 and 9 (the rest of
#: the suite still contributes to the GeoMean, like the paper's
#: clutter-reduction rule).
FIGURE_APPS = (
    "radiosity",
    "raytrace",
    "water-sp",
    "ocean",
    "ocean-nc",
    "cholesky",
    "fluidanimate",
    "streamcluster",
)

__all__ = ["KERNELS", "KERNEL_NAMES", "FIGURE_APPS", "kernel_factory"]
