"""Unified command-line entry point: ``python -m repro <command>``.

One dispatcher for every experiment driver plus ad-hoc grids through
the parallel engine::

    python -m repro fig6 --cores 16 64 --scale 0.5 --workers 8
    python -m repro chaos --cores 16 --check
    python -m repro run --config msa-omu-2 --workload streamcluster --check
    python -m repro verify --selftest
    python -m repro verify --workload fluidanimate --config msa-omu-2
    python -m repro sweep --configs pthread msa-omu-2 \\
        --workloads canneal swaptions --workers 4 --csv out.csv
    python -m repro traffic --scenario bursty --config msa-omu-2 --scale 2
    python -m repro traffic --sweep --loads 0.5 1 2 4 \\
        --csv load.csv --html load.html --cache-dir ~/.cache/repro
    python -m repro dse --axis msa.entries_per_tile=1,2,4 \\
        --axis omu.n_counters=2,4 --strategy halving --rungs 3 \\
        --cache-dir ~/.cache/repro --csv dse.csv
    python -m repro describe
    python -m repro obs --config msa-omu-2 --workload streamcluster \\
        --trace trace.json --metrics metrics.prom --html run.html
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

``--check`` (on run/sweep/chaos) attaches every :mod:`repro.verify`
invariant monitor to each simulation; ``verify`` is the checker-first
entry point (structured report, exit status by verdict).

Engine flags are shared by every command: ``--workers`` fans grid
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
COMMANDS = ("table1",) + FIGURES + (
    "headline", "chaos", "run", "verify", "sweep", "traffic", "dse",
    "describe", "perf", "obs", "report", "fsck", "chaos-harness", "serve",
    "submit", "status", "fetch", "all",
)


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


def _run_one(args) -> int:
    from repro import api

    result = api.run(
        args.config,
        args.workload,
        cores=args.cores[0] if isinstance(args.cores, list) else args.cores,
        seed=args.seed,
        scale=args.scale,
        checkers=True if args.check else (),
        raise_violations=False,
    )
    print(result.describe())
    if result.check_report is not None and not result.check_report["ok"]:
        from repro.verify import CheckReport

        print(CheckReport.from_dict(result.check_report).describe())
        return 1
    return 0


def _run_verify(args) -> int:
    from repro.verify import (
        CheckReport,
        DEFAULT_MONITORS,
        differential,
        run_selftest,
    )

    if args.selftest:
        report = run_selftest(print_out=True)
        caught = any(
            v.invariant == "mutual-exclusion" for v in report.violations
        )
        return 0 if caught else 1
    if args.differential:
        diff = differential(
            workload=args.workload or "streamcluster",
            cores=args.cores[0] if isinstance(args.cores, list) else args.cores,
            scale=args.scale,
            seed=args.seed,
        )
        print(diff.describe())
        return 0 if diff.ok else 1

    from repro import api

    machine = api.build(
        args.config,
        cores=args.cores[0] if isinstance(args.cores, list) else args.cores,
        seed=args.seed,
    )
    if args.trace:
        machine.tracer.enable("msa", "sched", "sync", "retry", "degrade")
    monitors = tuple(args.monitors) if args.monitors else DEFAULT_MONITORS
    result = api.run(
        machine,
        args.workload or "streamcluster",
        scale=args.scale,
        checkers=monitors,
        raise_violations=False,
    )
    report = CheckReport.from_dict(result.check_report)
    print(report.describe())
    if args.trace:
        machine.tracer.to_jsonl(args.trace)
        print(f"wrote trace to {args.trace}")
    return 0 if report.ok else 1


def _run_perf(args) -> int:
    from repro.perf import (
        SUITES,
        BenchPoint,
        compare,
        load_doc,
        render_table,
        run_suite,
        write_doc,
    )

    if args.points:
        try:
            points = [BenchPoint.parse(spec) for spec in args.points]
        except ValueError as exc:
            print(f"python -m repro perf: error: {exc}", file=sys.stderr)
            return 2
    else:
        points = SUITES[args.suite]
    doc = run_suite(
        points,
        repeat=args.repeat,
        seed=args.seed,
        label=args.label,
        profile=args.profile or 0,
        progress=args.progress,
    )
    baseline = load_doc(args.compare) if args.compare else None
    print(render_table(doc, baseline))
    if args.out:
        write_doc(doc, args.out)
        print(f"wrote {args.out}")
    if baseline is not None:
        result = compare(doc, baseline, threshold=args.threshold)
        print(result.describe())
        return 0 if result.ok else 1
    return 0


def _run_obs(args) -> int:
    from repro import api
    from repro.obs import render_run_report

    result, obs = api.observe(
        args.config,
        args.workload,
        cores=args.cores[0] if isinstance(args.cores, list) else args.cores,
        seed=args.seed,
        scale=args.scale,
        span_limit=args.span_limit,
        checkers=True if args.check else (),
        raise_violations=False,
    )
    print(result.describe())
    print(obs.describe())
    if args.spans:
        obs.to_jsonl(args.spans)
        print(f"wrote spans to {args.spans}")
    if args.trace:
        obs.to_chrome_trace(args.trace)
        print(f"wrote Chrome trace to {args.trace} (open in Perfetto)")
    if args.metrics:
        obs.registry.to_prometheus(args.metrics)
        print(f"wrote Prometheus metrics to {args.metrics}")
    if args.metrics_jsonl:
        obs.registry.to_jsonl(args.metrics_jsonl)
        print(f"wrote metrics JSONL to {args.metrics_jsonl}")
    if args.html:
        with open(args.html, "w") as f:
            f.write(render_run_report(result, obs))
        print(f"wrote HTML run report to {args.html}")
    if result.check_report is not None and not result.check_report["ok"]:
        return 1
    return 0


def _run_report(args) -> int:
    from repro.obs import report_from_cache

    bench_doc = None
    if args.bench:
        from repro.perf import load_doc

        bench_doc = load_doc(args.bench)
    out = report_from_cache(
        args.cache_dir,
        args.out,
        baseline=args.baseline,
        title=args.title,
        bench_doc=bench_doc,
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
        cores=args.cores[0] if isinstance(args.cores, list) else args.cores,
        kill_interval_s=args.kill_interval,
        kill_first_leases=args.kill_leases,
        corrupt_interval_s=args.corrupt_interval,
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
    from repro.traffic import TRAFFIC

    scenario = args.scenario
    if scenario in TRAFFIC:
        pass
    elif f"traffic.{scenario}" in TRAFFIC:
        scenario = f"traffic.{scenario}"
    else:
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
    cores = args.cores[0] if isinstance(args.cores, list) else args.cores

    if not args.sweep:
        result = api.run(
            args.config,
            scenario,
            cores=cores,
            seed=args.seed,
            scale=args.scale,
            fault_plan=fault_plan,
            checkers=checkers,
            raise_violations=False,
        )
        print(result.describe())
        m = result.workload_metrics
        print(
            f"  traffic: {int(m['traffic.done'])}/{int(m['traffic.offered'])} "
            f"done, {int(m['traffic.shed'])} shed, "
            f"{int(m['traffic.timeout'])} timed out; sojourn "
            f"p50={m['traffic.p50']:.0f} p99={m['traffic.p99']:.0f} "
            f"p999={m['traffic.p999']:.0f} cy; "
            f"goodput {m['traffic.goodput_rpk']:.2f} req/kcy "
            f"(offered {m['traffic.offered_rpk']:.2f})"
        )
        if args.html:
            from repro.obs import render_run_report

            with open(args.html, "w") as f:
                f.write(render_run_report(result))
            print(f"wrote HTML run report to {args.html}")
        if result.check_report is not None and not result.check_report["ok"]:
            return 1
        return 0

    from repro.harness.sweep import to_csv

    points, stats = api.traffic(
        scenario=scenario,
        configs=args.configs,
        loads=args.loads,
        cores=cores,
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


def _parse_axis_value(text: str):
    """One axis value from the CLI: JSON scalars with bare-word
    booleans/null accepted (``true``, ``False``, ``null``, ``none``)."""
    import json as _json

    lowered = text.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    try:
        return _json.loads(text)
    except _json.JSONDecodeError:
        return text


def _run_dse(args) -> int:
    import json as _json

    from repro import api
    from repro.common.errors import ConfigError
    from repro.dse import SpaceSpec

    if args.space:
        if args.axis:
            raise ConfigError(
                "--space and --axis are mutually exclusive: the space "
                "file already declares its axes"
            )
        with open(args.space) as f:
            spec = SpaceSpec.from_dict(_json.load(f))
    else:
        if not args.axis:
            raise ConfigError(
                "declare the space with --axis name=v1,v2,... (repeatable) "
                "or --space FILE"
            )
        axes = []
        for text in args.axis:
            name, sep, values = text.partition("=")
            if not sep or not values:
                raise ConfigError(
                    f"--axis {text!r}: expected name=v1,v2,..."
                )
            axes.append(
                (name, [_parse_axis_value(v) for v in values.split(",")])
            )
        spec = SpaceSpec.make(
            axes,
            config=args.config,
            workloads=args.workloads,
            cores=args.cores,
            scale=args.scale,
            seed=args.seed,
        )
    strategy_kwargs = {}
    if args.strategy == "random":
        strategy_kwargs = {"n": args.samples, "seed": args.seed}
    elif args.strategy == "halving":
        strategy_kwargs = {"eta": args.eta, "rungs": args.rungs}
    result = api.dse(
        spec,
        strategy=args.strategy,
        baseline=args.baseline,
        chaos_rate=args.chaos,
        chaos_seed=args.seed,
        workers=args.workers,
        cache_dir=args.cache_dir,
        server=args.server,
        progress=args.progress,
        **strategy_kwargs,
    )
    print(result.describe())
    if result.path:
        print(f"wrote DSE document to {result.path}")
    if args.csv:
        result.to_csv(path=args.csv)
        print(f"wrote {args.csv} ({len(result.records)} designs)")
    return 0


def _run_describe(args) -> int:
    from repro.harness.configs import CONFIG_NAMES
    from repro.traffic import ARRIVALS, TRAFFIC
    from repro.workloads import microbench
    from repro.workloads.kernels import KERNELS

    sections = (
        ("machine configurations", CONFIG_NAMES),
        ("kernels", sorted(KERNELS)),
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

    client = Client(args.server)
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

    doc = Client(args.server).status(args.sweep_id)
    print(_json.dumps(doc, indent=2, sort_keys=True))
    return 0 if doc["ok"] or not doc["done"] else 1


def _run_fetch(args) -> int:
    from repro.client import Client
    from repro.harness.sweep import add_speedups, to_csv

    client = Client(args.server)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, cores_default=list(experiments.DEFAULT_CORES)):
        p.add_argument("--cores", type=int, nargs="+", default=cores_default)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument(
            "--workers",
            type=int,
            default=None,
            help="worker processes (default: REPRO_WORKERS or serial)",
        )
        p.add_argument(
            "--cache-dir",
            default=None,
            help="result-cache directory (default: REPRO_CACHE_DIR or off)",
        )
        p.add_argument(
            "--progress", action="store_true", help="per-point progress + ETA"
        )

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
        "run", help="run one (config, workload) point and print its summary"
    )
    add_common(p, cores_default=[16])
    p.add_argument("--config", default="msa-omu-2")
    p.add_argument("--workload", default="streamcluster")
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--check",
        action="store_true",
        help="attach every invariant monitor; non-zero exit on violations",
    )

    p = sub.add_parser(
        "verify",
        help="invariant-checked run / checker selftest / differential oracle",
    )
    add_common(p, cores_default=[16])
    p.add_argument("--config", default="msa-omu-2")
    p.add_argument("--workload", default=None)
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--monitors",
        nargs="+",
        default=None,
        help="monitor names to attach (default: all)",
    )
    p.add_argument(
        "--selftest",
        action="store_true",
        help="prove the checkers catch a deliberately broken lock",
    )
    p.add_argument(
        "--differential",
        action="store_true",
        help="cross-check sync outcomes across MSA/pthread/ideal configs",
    )
    p.add_argument(
        "--trace",
        default=None,
        help="also write the machine trace (JSONL) to this path",
    )

    p = sub.add_parser(
        "perf",
        help="microbenchmark the simulator itself (events/sec, RSS, "
        "regression gate); see docs/PERF.md",
    )
    p.add_argument(
        "--suite",
        choices=("smoke", "headline"),
        default="smoke",
        help="benchmark point set (default: smoke)",
    )
    p.add_argument(
        "--points",
        nargs="+",
        default=None,
        metavar="CFG:WL[:CORES[:SCALE]]",
        help="explicit points instead of a named suite",
    )
    p.add_argument("--repeat", type=int, default=3, help="repeats per point")
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument("--label", default="", help="free-form label stored in the JSON")
    p.add_argument("--out", default=None, help="write BENCH_*.json here")
    p.add_argument(
        "--compare",
        default=None,
        metavar="OLD.json",
        help="gate against this baseline document (non-zero exit on "
        "regression or determinism break)",
    )
    p.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="allowed events/sec regression fraction (default 0.15)",
    )
    p.add_argument(
        "--profile",
        type=int,
        nargs="?",
        const=25,
        default=None,
        metavar="N",
        help="also cProfile each point and print the top N functions",
    )
    p.add_argument(
        "--progress", action="store_true", help="per-point progress lines"
    )

    p = sub.add_parser(
        "obs",
        help="run one observed point: spans, Chrome trace, Prometheus "
        "metrics, HTML run report; see docs/OBSERVABILITY.md",
    )
    add_common(p, cores_default=[16])
    p.add_argument("--config", default="msa-omu-2")
    p.add_argument("--workload", default="streamcluster")
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--span-limit",
        type=int,
        default=None,
        help="per-name retained-span cap (aggregates stay exact beyond it)",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="also attach every invariant monitor (shares the probe)",
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
    p.add_argument(
        "--bench",
        default=None,
        metavar="BENCH.json",
        help="also include a repro.perf benchmark document section",
    )

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
    add_common(p, cores_default=[4])
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
        help="SIGKILL the owners of the first N observed leases "
        "(guaranteed mid-point kills, independent of point speed)",
    )
    p.add_argument(
        "--corrupt-interval",
        type=float,
        default=0.7,
        metavar="S",
        help="byte-flip a random cache entry this often (seconds)",
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
        help="open-loop traffic: one scenario run, or a cached load "
        "sweep (offered load vs p99 across sync backends); see "
        "docs/TRAFFIC.md",
    )
    add_common(p, cores_default=[16])
    p.add_argument(
        "--scenario",
        default="traffic.poisson",
        help="traffic scenario (poisson/bursty/diurnal/pareto, with or "
        "without the traffic. prefix)",
    )
    p.add_argument(
        "--config",
        default="msa-omu-2",
        help="machine configuration for a single (non --sweep) run",
    )
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--sweep",
        action="store_true",
        help="run a load sweep (--loads x --configs) through the engine "
        "instead of a single scenario",
    )
    p.add_argument(
        "--configs",
        nargs="+",
        default=None,
        help="backends to compare in a sweep (default: msa0 msa-omu-2 "
        "pthread ideal)",
    )
    p.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="offered-load multipliers for a sweep (default: 0.5 1 2 4)",
    )
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
    p.add_argument(
        "--html", default=None, help="write the HTML report (run or sweep) here"
    )

    p = sub.add_parser(
        "dse",
        help="design-space exploration: search machine-parameter axes "
        "through the cached sweep stack and print the Pareto front "
        "(speedup vs hardware cost vs chaos tail); see docs/DSE.md",
    )
    add_common(p, cores_default=[16])
    p.add_argument(
        "--axis",
        action="append",
        default=None,
        metavar="NAME=V1,V2,...",
        help="one design axis: a MachineParams field or dotted path "
        "with its values (repeatable), e.g. msa.entries_per_tile=1,2,4",
    )
    p.add_argument(
        "--space",
        default=None,
        metavar="FILE.json",
        help="load the whole space from a JSON space file instead "
        "(SpaceSpec.to_dict format)",
    )
    p.add_argument(
        "--config",
        default="msa-omu-2",
        help="base configuration the axes override",
    )
    p.add_argument(
        "--workloads",
        nargs="+",
        default=["streamcluster"],
        help="workloads every design is scored on",
    )
    p.add_argument("--seed", type=int, default=2015)
    p.add_argument(
        "--strategy",
        choices=("grid", "random", "halving"),
        default="grid",
        help="search strategy (default: grid = exhaustive)",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=8,
        metavar="N",
        help="designs sampled by --strategy random",
    )
    p.add_argument(
        "--eta",
        type=int,
        default=2,
        help="halving reduction factor (survivor fraction 1/eta)",
    )
    p.add_argument(
        "--rungs",
        type=int,
        default=3,
        help="halving rung count (first rung runs at scale/eta^(rungs-1))",
    )
    p.add_argument(
        "--baseline",
        default="pthread",
        help="config speedups are measured against",
    )
    p.add_argument(
        "--chaos",
        type=float,
        default=0.02,
        metavar="RATE",
        help="message-drop rate for the resilience objective "
        "(0 skips the chaos pass; required with --server)",
    )
    p.add_argument(
        "--server",
        default=None,
        help="run the sweeps on this service URL (default: REPRO_SERVER)",
    )
    p.add_argument("--csv", default=None, help="write per-design CSV here")

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
    if args.command == "run":
        return _run_one(args)
    if args.command == "verify":
        return _run_verify(args)
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "traffic":
        return _run_traffic(args)
    if args.command == "describe":
        return _run_describe(args)
    if args.command == "perf":
        return _run_perf(args)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "report":
        return _run_report(args)
    if args.command == "fsck":
        return _run_fsck(args)
    if args.command == "chaos-harness":
        return _run_chaos_harness(args)
    if args.command in ("dse", "serve", "submit", "status", "fetch"):
        from repro.common.errors import ReproError

        handler = {
            "dse": _run_dse,
            "serve": _run_serve,
            "submit": _run_submit,
            "status": _run_status,
            "fetch": _run_fetch,
        }[args.command]
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
