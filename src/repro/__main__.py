"""Unified command-line entry point: ``python -m repro <command>``.

One dispatcher for every experiment driver plus ad-hoc grids through
the parallel engine::

    python -m repro fig6 --cores 16 64 --scale 0.5 --workers 8
    python -m repro chaos --cores 16 --check
    python -m repro run --config msa-omu-2 --workload streamcluster --check \\
        --trace trace.json --metrics metrics.prom --html run.html
    python -m repro run --workload traffic.bursty --scale 2 --html run.html
    python -m repro verify --selftest
    python -m repro verify --differential
    python -m repro sweep --configs pthread msa-omu-2 \\
        --workloads canneal swaptions --workers 4 --csv out.csv
    python -m repro traffic --loads 0.5 1 2 4 \\
        --csv load.csv --html load.html --cache-dir ~/.cache/repro
    python -m repro describe
    python -m repro report --cache-dir ~/.cache/repro \\
        --baseline pthread --out report.html
    python -m repro serve --cache-dir ~/.cache/repro --workers 4
    python -m repro submit --configs pthread msa-omu-2 \\
        --workloads canneal --server http://127.0.0.1:8765
    python -m repro status <sweep-id> --server http://127.0.0.1:8765
    python -m repro fetch <sweep-id> --csv out.csv
    python -m repro all --workers 8 --cache-dir ~/.cache/repro

The ``serve``/``submit``/``status``/``fetch`` quartet runs sweeps as a
service: one long-lived server owns the cache and the worker fleet, any
number of clients submit grids and fetch byte-identical results over
HTTP (``--server`` or ``REPRO_SERVER``).  See docs/SERVICE.md.

``run`` is the one verb that runs one point and prints its summary.
``--check [MONITOR ...]`` attaches :mod:`repro.verify` invariant
monitors (all of them when none is named; a violation prints the report
and exits 1), and ``--spans``/``--trace``/``--metrics``/
``--metrics-jsonl``/``--html`` observe the run and write those exports.
``--check`` on sweep/traffic/chaos attaches every monitor to each point;
``verify`` runs the checker selftest or the differential oracle.

Engine flags are shared by every grid command: ``--workers`` fans grid
points out across processes, ``--cache-dir`` enables the
content-addressed result cache (repeat runs are free, and rerunning
with the same ``--cache-dir`` resumes a sweep after a crash or ^C), and
``--progress`` prints per-point completion lines with an ETA.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.harness import experiments

FIGURES = ("fig5", "fig6", "fig7", "fig8", "fig9")
SERVICE_VERBS = ("serve", "submit", "status", "fetch")
def _engine_kwargs(args) -> dict:
    return {
        "workers": args.workers,
        "cache_dir": args.cache_dir,
        "progress": args.progress,
    }


def _dispatch(name: str, args) -> object:
    engine = _engine_kwargs(args)
    if name == "table1":
        return experiments.table1()
    if name == "fig5":
        return experiments.fig5(cores=args.cores, **engine)
    if name == "fig6":
        result = experiments.fig6(cores=args.cores, scale=args.scale, **engine)
        if args.csv:
            experiments.export_fig6_csv(result, args.csv)
            print(f"\nwrote {args.csv}")
        return result
    if name == "fig7":
        return experiments.fig7(cores=args.cores, scale=args.scale, **engine)
    if name == "fig8":
        return experiments.fig8(cores=args.cores, scale=args.scale, **engine)
    if name == "fig9":
        return experiments.fig9(
            n_cores=max(args.cores), scale=args.scale, **engine
        )
    if name == "headline":
        return experiments.headline(
            n_cores=max(args.cores), scale=args.scale, **engine
        )
    if name == "chaos":
        from repro.verify import DEFAULT_MONITORS

        return experiments.chaos(
            n_cores=min(args.cores),
            scale=args.scale,
            checkers=DEFAULT_MONITORS if getattr(args, "check", False) else (),
            **engine,
        )
    raise ValueError(f"unknown command {name!r}")


def _run_point(args) -> int:
    from repro import api

    kwargs = dict(
        cores=args.cores,
        seed=args.seed,
        scale=args.scale,
        checkers=() if args.check is None else tuple(args.check) or True,
        raise_violations=False,
    )
    observed = any(
        (args.spans, args.trace, args.metrics, args.metrics_jsonl, args.html)
    )
    if observed:
        result, obs = api.observe(
            args.config, args.workload, span_limit=args.span_limit, **kwargs
        )
    else:
        result = api.run(args.config, args.workload, **kwargs)
    print(result.describe())
    if observed:
        from repro.obs import render_run_report

        print(obs.describe())
        for path, write, what in (
            (args.spans, obs.to_jsonl, "spans"),
            (args.trace, obs.to_chrome_trace, "Chrome trace"),
            (args.metrics, obs.registry.to_prometheus, "Prometheus metrics"),
            (args.metrics_jsonl, obs.registry.to_jsonl, "metrics JSONL"),
        ):
            if path:
                write(path)
                print(f"wrote {what} to {path}")
        if args.html:
            with open(args.html, "w") as f:
                f.write(render_run_report(result, obs))
            print(f"wrote HTML run report to {args.html}")
    if result.check_report is not None and not result.check_report["ok"]:
        from repro.verify import CheckReport

        print(CheckReport.from_dict(result.check_report).describe())
        return 1
    return 0


def _run_verify(args) -> int:
    from repro.verify import differential, run_selftest

    if args.selftest:
        report = run_selftest(print_out=True)
        caught = any(
            v.invariant == "mutual-exclusion" for v in report.violations
        )
        return 0 if caught else 1
    diff = differential(
        workload=args.workload,
        cores=args.cores,
        scale=args.scale,
        seed=args.seed,
    )
    print(diff.describe())
    return 0 if diff.ok else 1


def _run_report(args) -> int:
    from repro.obs import report_from_cache

    out = report_from_cache(
        args.cache_dir, args.out, baseline=args.baseline, title=args.title
    )
    print(f"wrote {out}")
    return 0


def _run_fsck(args) -> int:
    from pathlib import Path

    from repro.resilience import fsck

    if not Path(args.cache_dir).is_dir():
        print(
            f"python -m repro fsck: error: no cache directory at "
            f"{args.cache_dir!r} (a clean bill for a typo'd path would "
            "be a lie)",
            file=sys.stderr,
        )
        return 2
    report = fsck(args.cache_dir, repair=not args.no_repair)
    print(report.describe())
    return 0 if report.ok else 1


def _run_chaos_harness(args) -> int:
    from repro.resilience import chaos_harness

    result = chaos_harness(
        workdir=args.workdir,
        workers=args.workers if args.workers is not None else 3,
        seed=args.seed,
        scale=args.scale,
        cores=args.cores,
        kill_interval_s=args.kill_interval,
        kill_first_leases=args.kill_leases,
        corrupt_first_entries=args.corrupt_entries,
        diskfull_puts=args.diskfull_puts,
        retries=args.retries,
        progress=args.progress,
    )
    print(result.describe())
    return 0 if result.ok else 1


def _run_sweep(args) -> int:
    from repro import api
    from repro.harness.sweep import add_request_metrics, add_speedups, to_csv

    checkers = ()
    if args.check:
        from repro.verify import DEFAULT_MONITORS

        checkers = DEFAULT_MONITORS
    points, stats = api.sweep(
        configs=args.configs,
        workloads=args.workloads,
        cores=tuple(args.cores),
        scale=args.scale,
        seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=args.progress,
        return_stats=True,
        checkers=checkers,
    )
    if args.baseline:
        add_speedups(points, baseline_config=args.baseline)
    add_request_metrics(points)  # no-op unless traffic points are present
    text = to_csv(points, path=args.csv)
    if args.csv:
        print(f"wrote {args.csv} ({len(points)} points)")
    else:
        print(text, end="")
    print(f"engine: {stats.describe()}", file=sys.stderr)
    return 0


def _run_traffic(args) -> int:
    from repro import api
    from repro.harness.sweep import to_csv
    from repro.traffic import TRAFFIC

    scenario = args.scenario
    if scenario not in TRAFFIC:
        scenario = f"traffic.{scenario}"
    if scenario not in TRAFFIC:
        print(
            f"python -m repro traffic: error: unknown scenario "
            f"{args.scenario!r}; options: {sorted(TRAFFIC)}",
            file=sys.stderr,
        )
        return 2
    checkers = ()
    if args.check:
        from repro.verify import DEFAULT_MONITORS

        checkers = DEFAULT_MONITORS
    fault_plan = None
    if args.chaos is not None:
        from repro.faults import drop_plan

        fault_plan = drop_plan(args.chaos, seed=args.seed)
    points, stats = api.traffic(
        scenario=scenario,
        configs=args.configs,
        loads=args.loads,
        cores=args.cores,
        seed=args.seed,
        checkers=checkers,
        fault_plan=fault_plan,
        workers=args.workers,
        cache_dir=args.cache_dir,
        progress=args.progress,
        return_stats=True,
    )
    configs = sorted({p.config for p in points})
    loads = sorted({p.scale for p in points})
    by_key = {(p.config, p.scale): p for p in points}
    header = "load    " + "".join(f"{c:>24}" for c in configs)
    print(header)
    for load in loads:
        cells = []
        for config in configs:
            p = by_key.get((config, load))
            if p is None:
                cells.append(f"{'-':>24}")
                continue
            m = p.result.workload_metrics
            cells.append(
                f"{m['traffic.p99']:>10.0f}cy {m['traffic.goodput_rpk']:>8.2f}rpk"
            )
        print(f"x{load:<7g}" + "".join(cells))
    print("(cells: p99 sojourn, goodput in requests/kilocycle)")
    if args.csv:
        to_csv(points, path=args.csv)
        print(f"wrote {args.csv} ({len(points)} points)")
    if args.html:
        from repro.obs import render_sweep_report

        with open(args.html, "w") as f:
            f.write(
                render_sweep_report(
                    points,
                    title=f"repro traffic load sweep: {scenario}",
                )
            )
        print(f"wrote HTML sweep report to {args.html}")
    print(f"engine: {stats.describe()}", file=sys.stderr)
    return 0


def _run_describe(args) -> int:
    from repro.harness.configs import CONFIG_NAMES
    from repro.traffic import ARRIVALS, TRAFFIC
    from repro.workloads import microbench
    from repro.workloads.kernels import KERNEL_NAMES

    sections = (
        ("machine configurations", CONFIG_NAMES),
        ("kernels", sorted(KERNEL_NAMES)),
        ("microbenches", sorted(microbench.MICROBENCHES)),
        ("traffic scenarios", sorted(TRAFFIC)),
        ("arrival processes", sorted(ARRIVALS)),
    )
    for title, names in sections:
        print(f"{title}:")
        for name in names:
            print(f"  {name}")
    return 0


def _run_serve(args) -> int:
    from repro.serve import Server

    server = Server(
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        workers=args.workers,
        retries=args.retries,
        lease_s=args.lease,
        point_timeout_s=args.point_timeout,
        seed=args.seed,
    )
    server.serve_forever(
        on_ready=lambda s: print(
            f"repro serve: listening on {s.url} "
            f"(cache: {s.cache_dir}, workers: {s.workers})",
            flush=True,
        )
    )
    served = {k: v for k, v in server.counters.items() if v}
    print(f"repro serve: stopped ({served or 'no requests'})")
    return 0


def _run_submit(args) -> int:
    from repro.client import Client

    with Client(args.server) as client:
        sid = client.submit(
            configs=args.configs,
            workloads=args.workloads,
            cores=args.cores,
            scale=args.scale,
            seed=args.seed,
            check=not args.no_check,
        )
        sub = client.submissions[sid]
        print(sid)
        print(
            f"submitted to {client.base}: {sub['created_jobs']} new, "
            f"{sub['deduped_jobs']} already known",
            file=sys.stderr,
        )
        if args.wait:
            client.wait(sid)
            print(f"sweep {sid} done", file=sys.stderr)
    return 0


def _run_status(args) -> int:
    import json as _json

    from repro.client import Client

    with Client(args.server) as client:
        doc = client.status(args.sweep_id)
    for job in doc["jobs"]:  # progress only: `repro fetch` prints results
        job.pop("result", None)
    print(_json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc["ok"] or not doc["done"] else 1


def _run_fetch(args) -> int:
    from repro.client import Client
    from repro.harness.sweep import add_speedups, to_csv

    with Client(args.server) as client:
        if args.wait:
            client.wait(args.sweep_id)
        points = client.fetch(args.sweep_id)
    if args.baseline:
        add_speedups(points, baseline_config=args.baseline)
    text = to_csv(points, path=args.csv)
    if args.csv:
        print(f"wrote {args.csv} ({len(points)} points)")
    else:
        print(text, end="")
    return 0


def _monitor(name: str) -> str:
    """``run --check`` argument type: a :data:`repro.verify.MONITORS`
    name, checked while parsing so a typo is a usage error."""
    from repro.verify import MONITORS

    if name not in MONITORS:
        raise argparse.ArgumentTypeError(
            f"unknown monitor {name!r} (choose from "
            f"{', '.join(sorted(MONITORS))})"
        )
    return name


class _Parser(argparse.ArgumentParser):
    """No flag abbreviations: a removed flag is an error, never a
    prefix of a live one (``--config`` for ``--configs``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(
        dest="command", required=True, parser_class=_Parser
    )

    def add_engine(p, cache_dir=True):
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (default: REPRO_WORKERS or serial)",
        )
        if cache_dir:
            p.add_argument(
                "--cache-dir",
                default=None,
                help="result-cache directory (default: REPRO_CACHE_DIR or "
                "off)",
            )
        p.add_argument(
            "--progress", action="store_true", help="per-point progress + ETA"
        )

    def add_common(p, cores_default=list(experiments.DEFAULT_CORES)):
        p.add_argument("--cores", type=int, nargs="+", default=cores_default)
        p.add_argument("--scale", type=float, default=1.0)
        add_engine(p)

    def add_point(p):
        p.add_argument(
            "--workload",
            default="streamcluster",
            help="kernel, microbench or traffic.<scenario> (see describe)",
        )
        p.add_argument("--cores", type=int, default=16)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=2015)

    for name in ("table1",) + FIGURES + ("headline", "chaos", "all"):
        p = sub.add_parser(name, help=f"run the {name} driver")
        add_common(p)
        if name in ("fig6", "all"):
            p.add_argument(
                "--csv", default=None, help="also write fig6 grid to this CSV"
            )
        if name in ("chaos", "all"):
            p.add_argument(
                "--check",
                action="store_true",
                help="attach every invariant monitor to each point",
            )

    p = sub.add_parser(
        "run",
        help="run one (config, workload) point and print its summary; "
        "optionally checked and observed (see docs/OBSERVABILITY.md)",
    )
    p.add_argument("--config", default="msa-omu-2")
    add_point(p)
    p.add_argument(
        "--check",
        nargs="*",
        type=_monitor,
        default=None,
        metavar="MONITOR",
        help="attach these invariant monitors (all when none is named); "
        "a violation prints the report and exits 1",
    )
    p.add_argument(
        "--span-limit",
        type=int,
        default=None,
        help="per-name retained-span cap (aggregates stay exact beyond it)",
    )
    p.add_argument("--spans", default=None, help="write span JSONL here")
    p.add_argument(
        "--trace", default=None, help="write Chrome trace-event JSON here"
    )
    p.add_argument(
        "--metrics", default=None, help="write Prometheus text format here"
    )
    p.add_argument(
        "--metrics-jsonl", default=None, help="write metrics JSONL here"
    )
    p.add_argument("--html", default=None, help="write the HTML run report here")

    p = sub.add_parser(
        "verify", help="checker selftest or differential oracle"
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--selftest",
        action="store_true",
        help="prove the checkers catch a deliberately broken lock",
    )
    mode.add_argument(
        "--differential",
        action="store_true",
        help="cross-check sync outcomes across MSA/pthread/ideal configs",
    )
    add_point(p)

    p = sub.add_parser(
        "report",
        help="render the cross-sweep HTML report from a result cache "
        "(no re-simulation)",
    )
    p.add_argument(
        "--cache-dir",
        required=True,
        help="result-cache root a sweep wrote (--cache-dir/REPRO_CACHE_DIR)",
    )
    p.add_argument("--out", default="report.html", help="output HTML path")
    p.add_argument(
        "--baseline",
        default=None,
        help="config name to compute speedups against (e.g. pthread)",
    )
    p.add_argument("--title", default=None, help="report title")

    p = sub.add_parser(
        "fsck",
        help="scan and repair a result cache and its job store (corrupt "
        "entries are evicted, expired leases reclaimed)",
    )
    p.add_argument(
        "--cache-dir",
        required=True,
        help="result-cache root to scan (the job store next to it is "
        "scanned automatically)",
    )
    p.add_argument(
        "--no-repair",
        action="store_true",
        help="report only; leave corrupt files in place",
    )

    p = sub.add_parser(
        "chaos-harness",
        help="crash-safety gauntlet: SIGKILL workers mid-point, corrupt "
        "cache entries, fake disk-full -- then assert byte-identical "
        "convergence with an undisturbed serial run (see docs/HARNESS.md)",
    )
    p.add_argument("--cores", type=int, default=4)
    p.add_argument("--scale", type=float, default=1.0)
    add_engine(p, cache_dir=False)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--workdir",
        default=None,
        help="where the chaotic cache and job store live (default: temp "
        "dir)",
    )
    p.add_argument(
        "--kill-interval",
        type=float,
        default=0.4,
        metavar="S",
        help="SIGKILL a random worker this often (seconds)",
    )
    p.add_argument(
        "--kill-leases",
        type=int,
        default=2,
        metavar="N",
        help="the workers running the first N claimed points SIGKILL "
        "themselves mid-point (independent of point speed)",
    )
    p.add_argument(
        "--corrupt-entries",
        type=int,
        default=2,
        metavar="N",
        help="bit-flip each of the first N cache entries as it lands",
    )
    p.add_argument(
        "--diskfull-puts",
        type=int,
        default=1,
        metavar="N",
        help="each worker's first N cache writes fail with ENOSPC",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=9,
        help="per-point attempt budget before quarantine",
    )

    p = sub.add_parser(
        "sweep", help="ad-hoc grid through the parallel engine"
    )
    add_common(p, cores_default=[16])
    p.add_argument(
        "--configs", nargs="+", required=True, help="machine configurations"
    )
    p.add_argument(
        "--workloads", nargs="+", required=True, help="kernel registry names"
    )
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--baseline", default=None, help="annotate speedups over this config"
    )
    p.add_argument("--csv", default=None, help="write results to this CSV path")
    p.add_argument(
        "--check",
        action="store_true",
        help="attach every invariant monitor to each point",
    )

    p = sub.add_parser(
        "traffic",
        help="open-loop load sweep: offered load vs p99 across sync "
        "backends, cached; one scenario runs through `run --workload "
        "traffic.<name>`; see docs/TRAFFIC.md",
    )
    p.add_argument(
        "--scenario",
        default="traffic.poisson",
        help="traffic scenario (poisson/bursty/diurnal/pareto, with or "
        "without the traffic. prefix)",
    )
    p.add_argument(
        "--configs",
        nargs="+",
        default=None,
        help="backends to compare (default: msa0 msa-omu-2 pthread ideal)",
    )
    p.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="offered-load multipliers (default: 0.5 1 2 4)",
    )
    p.add_argument("--cores", type=int, default=16)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--chaos",
        type=float,
        default=None,
        metavar="RATE",
        help="also inject NoC message drops at this rate (repro.faults)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="attach every invariant monitor to each point",
    )
    p.add_argument("--csv", default=None, help="write sweep results to this CSV")
    p.add_argument("--html", default=None, help="write the HTML sweep report here")
    add_engine(p)

    sub.add_parser(
        "describe",
        help="list machine configurations, workload registries, and "
        "traffic scenarios",
    )

    def add_server(p):
        p.add_argument(
            "--server",
            default=None,
            help="service URL (default: REPRO_SERVER)",
        )

    p = sub.add_parser(
        "serve",
        help="run the experiment service: HTTP sweep submission over "
        "the shared cache and worker fleet (see docs/SERVICE.md)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="the service's durable state: result cache + job store "
        "(default: REPRO_CACHE_DIR; required)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8765, help="0 picks a free port"
    )
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes (default: REPRO_WORKERS or in-process)",
    )
    p.add_argument(
        "--retries",
        type=int,
        default=1,
        help="per-point retry budget before quarantine",
    )
    p.add_argument(
        "--lease",
        type=float,
        default=30.0,
        metavar="S",
        help="per-claim lease duration; a killed server's in-flight "
        "points are reclaimable after this long",
    )
    p.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="S",
        help="per-point wall-clock watchdog (seconds)",
    )
    p.add_argument("--seed", type=int, default=0, help="worker PRNG seed")

    p = sub.add_parser(
        "submit", help="submit a sweep grid to a running service"
    )
    add_server(p)
    p.add_argument("--configs", nargs="+", required=True)
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--cores", type=int, nargs="+", default=[16])
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--no-check", action="store_true", help="skip workload self-checks"
    )
    p.add_argument(
        "--wait", action="store_true", help="block until the sweep is done"
    )

    p = sub.add_parser(
        "status",
        help="print a submitted sweep's status document (JSON); exit 1 "
        "if it finished with failures",
    )
    add_server(p)
    p.add_argument("sweep_id")

    p = sub.add_parser(
        "fetch",
        help="fetch a finished sweep's results as CSV (byte-identical "
        "to a local run of the same grid)",
    )
    add_server(p)
    p.add_argument("sweep_id")
    p.add_argument(
        "--wait", action="store_true", help="long-poll until done first"
    )
    p.add_argument(
        "--baseline", default=None, help="annotate speedups over this config"
    )
    p.add_argument("--csv", default=None, help="write results to this CSV path")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "run": _run_point,
        "verify": _run_verify,
        "sweep": _run_sweep,
        "traffic": _run_traffic,
        "describe": _run_describe,
        "report": _run_report,
        "fsck": _run_fsck,
        "chaos-harness": _run_chaos_harness,
        "serve": _run_serve,
        "submit": _run_submit,
        "status": _run_status,
        "fetch": _run_fetch,
    }.get(args.command)
    if args.command in SERVICE_VERBS:
        from repro.common.errors import ReproError

        try:
            return handler(args)
        except ReproError as exc:
            # Config/service errors are user-facing (bad flag, dead
            # server, unknown sweep): one line, not a traceback.
            print(
                f"python -m repro {args.command}: error: {exc}",
                file=sys.stderr,
            )
            return 2
    if handler is not None:
        return handler(args)
    names = (
        ("table1",) + FIGURES + ("headline", "chaos")
        if args.command == "all"
        else (args.command,)
    )
    for name in names:
        _dispatch(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
