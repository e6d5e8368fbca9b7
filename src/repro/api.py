"""High-level facade: build machines, run workloads, sweep grids.

One import gives the whole reproduction workflow with consistent
keyword names (``cores``, ``seed``, ``scale``) everywhere::

    from repro import api

    machine = api.build("msa-omu-2", cores=16)
    result = api.run("msa-omu-2", "streamcluster", cores=16, scale=0.5)
    points = api.sweep(
        configs=("pthread", "msa-omu-2"),
        workloads=("canneal", "swaptions"),
        cores=(16,),
        workers=4,                  # fan out across processes
        cache_dir="~/.cache/repro", # repeat runs are free
    )

Everything here is re-exported from the package root, so
``repro.build(...)`` / ``repro.run(...)`` / ``repro.sweep(...)`` work
too.  The lower-level modules (:mod:`repro.harness.jobs`,
:mod:`repro.harness.configs`, :mod:`repro.harness.runner`) remain the
extension points; this module only composes them.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.harness.configs import CONFIG_NAMES, build_machine
from repro.harness.jobs import (
    Engine,
    EngineStats,
    JobResult,
    JobSpec,
    resolve_factory,
)
from repro.harness.runner import RunResult, run_workload
from repro.harness.sweep import SweepPoint, add_speedups, to_csv
from repro.harness.sweep import sweep as _sweep_impl

if TYPE_CHECKING:
    from repro.machine import Machine
    from repro.workloads.base import Workload

__all__ = [
    "build",
    "run",
    "sweep",
    "traffic",
    "observe",
    "report",
    "fsck",
    "chaos_harness",
    "serve",
    "submit",
    "status",
    "wait",
    "fetch",
    "Machine",
    "RunResult",
    "SweepPoint",
    "Engine",
    "EngineStats",
    "JobSpec",
    "JobResult",
    "add_speedups",
    "to_csv",
    "CONFIG_NAMES",
]

DEFAULT_SEED = 2015


def __getattr__(name):
    # ``Machine`` is re-exported on first access: a facade call that
    # never simulates (a served sweep, a cache read) loads no simulator.
    if name == "Machine":
        from repro.machine import Machine

        return Machine
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def build(
    config: str,
    cores: int = 16,
    seed: int = DEFAULT_SEED,
    fault_plan=None,
    **params,
) -> Machine:
    """Build a ready-to-run machine for a named configuration.

    Extra keyword arguments override top-level :class:`MachineParams`
    fields (e.g. ``msa=MSAParams(entries_per_tile=4)``,
    ``ideal_sync=True``)."""
    return build_machine(
        config, n_cores=cores, seed=seed, fault_plan=fault_plan, **params
    )


def run(
    machine_or_config: Union[Machine, str],
    workload: Union[Workload, str, Callable],
    cores: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    max_events: Optional[int] = 50_000_000,
    check: bool = True,
    fault_plan=None,
    checkers=(),
    raise_violations: bool = True,
    **params,
) -> RunResult:
    """Run one workload to completion and return its :class:`RunResult`.

    ``machine_or_config`` is either a prebuilt :class:`Machine` or a
    configuration name (which is built here with ``cores``/``seed``/
    parameter overrides).  ``workload`` is a :class:`Workload` instance,
    a registry name (kernels or microbenches), or a factory callable
    ``factory(cores[, scale])``.

    ``checkers`` attaches :mod:`repro.verify` invariant monitors
    (``True`` = all, or a sequence of monitor names); the finalized
    report lands on ``result.check_report`` and violations raise
    :class:`~repro.common.errors.InvariantViolation` unless
    ``raise_violations`` is false.
    """
    from repro.machine import Machine
    from repro.workloads.base import Workload

    if isinstance(machine_or_config, Machine):
        machine = machine_or_config
        config = machine.library_name
        if cores is not None and cores != machine.params.n_cores:
            raise ValueError(
                f"cores={cores} conflicts with the prebuilt machine's "
                f"{machine.params.n_cores} cores"
            )
    else:
        config = machine_or_config
        machine = build(
            config,
            cores=cores if cores is not None else 16,
            seed=seed,
            fault_plan=fault_plan,
            **params,
        )
    if not isinstance(workload, Workload):
        from repro.harness.jobs import _instantiate

        factory = (
            resolve_factory(workload) if isinstance(workload, str) else workload
        )
        workload = _instantiate(factory, machine.params.n_cores, scale)
    return run_workload(
        machine,
        workload,
        max_events=max_events,
        check=check,
        config=config if isinstance(machine_or_config, str) else "",
        checkers=checkers,
        raise_violations=raise_violations,
    )


def traffic(
    scenario: str = "traffic.poisson",
    configs: Sequence[str] = None,
    loads: Sequence[float] = None,
    cores: int = 16,
    seed: int = DEFAULT_SEED,
    checkers: Sequence[str] = (),
    fault_plan=None,
    workers: Optional[int] = None,
    cache_dir=None,
    progress: bool = False,
    return_stats: bool = False,
) -> List[SweepPoint]:
    """Run an open-loop load sweep: offered load vs tail latency.

    ``scenario`` names a :data:`repro.traffic.TRAFFIC` workload
    (``traffic.poisson``/``bursty``/``diurnal``/``pareto``); ``loads``
    are offered-load multipliers (each becomes a cached ``JobSpec``
    with that ``scale``); ``configs`` are the sync backends to compare.
    Returns :class:`SweepPoint` rows with the request-latency SLO
    extras (p50/p99/p999, goodput, shed/timeout) annotated for
    :func:`to_csv` and the HTML report.  ``fault_plan`` runs the whole
    sweep under fault injection (overload plus failures).  With
    ``return_stats`` the engine's :class:`EngineStats` (cache hits,
    executions, retries) come back as a second value.  See
    docs/TRAFFIC.md and ``python -m repro traffic``.
    """
    from repro.traffic import DEFAULT_CONFIGS, DEFAULT_LOADS, load_sweep

    engine = Engine(workers=workers, cache_dir=cache_dir, progress=progress)
    points = load_sweep(
        scenario=scenario,
        configs=tuple(configs) if configs else DEFAULT_CONFIGS,
        loads=tuple(loads) if loads else DEFAULT_LOADS,
        cores=cores,
        seed=seed,
        checkers=checkers,
        fault_plan=fault_plan,
        engine=engine,
    )
    if return_stats:
        return points, engine.stats
    return points


def observe(
    machine_or_config: Union[Machine, str],
    workload: Union[Workload, str, Callable],
    cores: Optional[int] = None,
    seed: int = DEFAULT_SEED,
    scale: float = 1.0,
    span_limit: Optional[int] = None,
    checkers=(),
    **run_kwargs,
):
    """Run one workload with the observability collector attached.

    Same signature spirit as :func:`run`, returning ``(result, obs)``
    where ``obs`` is the finalized :class:`repro.obs.ObsResult` (span
    forest, unified metrics registry, OMU timeline).  Observation is
    passive: ``result`` is bit-for-bit identical to an unobserved
    :func:`run` of the same point.

    >>> result, obs = observe("msa-omu-2", "streamcluster",
    ...                       cores=4, scale=0.05)
    >>> result.cycles == run("msa-omu-2", "streamcluster",
    ...                      cores=4, scale=0.05).cycles
    True
    >>> sorted(obs.attribution())[:2]
    ['barrier.wait', 'lock.acquire']
    """
    from repro.machine import Machine
    from repro.obs import DEFAULT_SPAN_LIMIT, Collector

    if isinstance(machine_or_config, Machine):
        machine = machine_or_config
    else:
        machine = build(machine_or_config, cores=cores or 16, seed=seed)
    collector = Collector.attach(
        machine,
        span_limit=span_limit if span_limit is not None else DEFAULT_SPAN_LIMIT,
    )
    result = run(
        machine,
        workload,
        scale=scale,
        checkers=checkers,
        **run_kwargs,
    )
    if isinstance(machine_or_config, str):
        result.config = machine_or_config
    return result, collector.finalize()


def report(cache_dir, out, baseline: Optional[str] = None, title=None):
    """Render the cross-sweep HTML report from a result cache -- pure
    deserialization, nothing is re-simulated.  Returns the output path.
    See :func:`repro.obs.report_from_cache` (and ``python -m repro
    report`` for the CLI form)."""
    from repro.obs import report_from_cache

    return report_from_cache(cache_dir, out, baseline=baseline, title=title)


def fsck(cache_dir, repair: bool = True):
    """Scan (and by default repair) a result cache and its job store:
    torn writes, checksum mismatches, schema drift, expired leases.  Corrupt entries are evicted (a
    corrupt entry is a cache miss by contract -- the point re-runs).
    Returns a :class:`repro.resilience.FsckReport`; see ``python -m
    repro fsck`` for the CLI form."""
    from repro.resilience import fsck as _fsck_impl

    return _fsck_impl(cache_dir, repair=repair)


def chaos_harness(**kwargs):
    """Run the harness-level chaos gauntlet (worker SIGKILLs, cache
    corruption, simulated disk-full) and verify the sweep still
    converges byte-identically to an undisturbed serial run.  Returns a
    :class:`repro.resilience.ChaosHarnessResult`; see ``python -m repro
    chaos-harness`` and docs/HARNESS.md."""
    from repro.resilience import chaos_harness as _chaos_impl

    return _chaos_impl(**kwargs)


def serve(
    cache_dir=None,
    host: str = "127.0.0.1",
    port: int = 8765,
    workers: Optional[int] = None,
    **kwargs,
):
    """Run the experiment service until SIGTERM/SIGINT: an HTTP/JSON
    server over the durable job store, the supervised worker fleet, and
    the result cache, so many clients share one execution backend.  See
    :mod:`repro.serve`, :mod:`repro.client`, and docs/SERVICE.md; the
    CLI form is ``python -m repro serve``."""
    from repro.serve import serve as _serve_impl

    return _serve_impl(
        cache_dir=cache_dir, host=host, port=port, workers=workers, **kwargs
    )


def submit(
    configs: Union[str, Sequence[str]],
    workloads: Union[str, Sequence[str]],
    cores: Union[int, Sequence[int]] = (16,),
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    server: Optional[str] = None,
    **kwargs,
) -> str:
    """Submit a sweep grid to a running service (``server`` or
    ``REPRO_SERVER``) without waiting; returns the content-addressed
    sweep id for :func:`status` / :func:`wait` / :func:`fetch`.
    Same grid keywords as :func:`sweep`."""
    from repro.client import Client

    with Client(server) as client:
        return client.submit(
            configs=configs,
            workloads=workloads,
            cores=cores,
            scale=scale,
            seed=seed,
            **kwargs,
        )


def status(sweep_id: str, server: Optional[str] = None) -> Dict:
    """A submitted sweep's status document (per-job statuses, counts,
    ``done``/``ok`` rollups) from the service."""
    from repro.client import Client

    with Client(server) as client:
        return client.status(sweep_id)


def wait(
    sweep_id: str,
    server: Optional[str] = None,
    timeout_s: Optional[float] = None,
) -> Dict:
    """Block (long-polling the service) until every job of the sweep is
    terminal; returns the final status document, raising
    :class:`~repro.common.errors.ServiceError` on failures/timeout."""
    from repro.client import Client

    with Client(server) as client:
        return client.wait(sweep_id, timeout_s=timeout_s)


def fetch(sweep_id: str, server: Optional[str] = None) -> List[SweepPoint]:
    """Fetch a finished sweep's points from the service -- byte-identical
    to running the same grid locally."""
    from repro.client import Client

    with Client(server) as client:
        return client.fetch(sweep_id)


def _sweep_remote(server, configs, workloads, cores, scale, seed, checkers,
                  params, return_stats, rejected):
    """The ``server=`` path of :func:`sweep`: submit, wait, fetch."""
    from repro.client import Client
    from repro.common.errors import ConfigError

    for name, value in rejected.items():
        if value:
            raise ConfigError(
                f"sweep({name}=...) does not combine with server=: the "
                "service owns its own engine; set that up server-side"
            )
    if isinstance(workloads, dict):
        raise ConfigError(
            "explicit workload factories do not cross the wire; pass "
            "registry workload names when sweeping through a server"
        )
    with Client(server) as client:
        sid = client.submit(
            configs=configs,
            workloads=workloads,
            cores=cores,
            scale=scale,
            seed=seed,
            params=params,
            checkers=tuple(checkers),
        )
        client.wait(sid)
        points = client.fetch(sid)
    if return_stats:
        created = client.submissions[sid]["created_jobs"]
        stats = EngineStats(
            total=len(points),
            cache_hits=len(points) - created,
            executed=created,
        )
        return points, stats
    return points


def sweep(
    configs: Sequence[str],
    workloads: Union[Dict[str, Callable], Sequence[str], str],
    cores: Sequence[int] = (16,),
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    workers: Optional[int] = None,
    cache_dir=None,
    progress=False,
    return_stats: bool = False,
    checkers: Sequence[str] = (),
    server: Optional[str] = None,
    params: Optional[Dict] = None,
    fault_plan=None,
) -> Union[List[SweepPoint], Tuple[List[SweepPoint], EngineStats]]:
    """Run a (config x workload x cores) grid through the engine.

    ``workloads`` may be registry names (string or sequence of strings)
    or an explicit ``{name: factory}`` mapping.  ``workers`` > 1 fans
    points out across processes; ``cache_dir`` serves repeated points
    from the on-disk result cache, which also makes the sweep resumable
    (a rerun skips every cached point).  With ``return_stats`` the engine's
    :class:`EngineStats` (cache hits, retries, failures) ride along.

    ``params`` applies machine-parameter overrides to every point of
    the grid -- top-level :class:`MachineParams` fields or dotted
    scalar paths like ``{"msa.entries_per_tile": 4}``; ``fault_plan``
    runs the grid under fault injection.  Both fold into each point's cache key.

    With ``server`` (a ``repro serve`` URL), the grid is submitted to
    that service instead of running locally -- the call blocks until the
    service finishes and returns the same points, byte-identical; the
    engine knobs (``workers``/``cache_dir``/...) then belong to the
    server, not this call.  Dotted ``params`` cross the wire; fault
    plans are process-local and do not.
    """
    if server is not None:
        if fault_plan is not None:
            from repro.common.errors import ConfigError

            raise ConfigError(
                "fault_plan does not combine with server=: fault plans "
                "are process-local; run chaos sweeps locally"
            )
        return _sweep_remote(
            server, configs, workloads, cores, scale, seed, checkers,
            params, return_stats,
            rejected={"workers": workers, "cache_dir": cache_dir},
        )
    engine = Engine(workers=workers, cache_dir=cache_dir, progress=progress)
    points = _sweep_impl(
        configs,
        workloads,
        cores,
        scale=scale,
        seed=seed,
        engine=engine,
        checkers=checkers,
        params=params,
        fault_plan=fault_plan,
    )
    if return_stats:
        return points, engine.stats
    return points
