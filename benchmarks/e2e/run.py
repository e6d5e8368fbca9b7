"""End-to-end benchmark of the MiSAR reproduction: host time a user
waits on, from one simulation point to a ``repro serve`` round trip.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload sim-msa --seed 2015 --seconds 20
    python3 benchmarks/e2e/run.py --trace 1              # per-layer metrics
    python3 benchmarks/e2e/run.py --runs 10 --out set1.json
    python3 benchmarks/e2e/run.py --quick                # smoke: seconds

Each run of a workload happens in its own child process
(``measure.py``) with the repository's ``src`` on ``PYTHONPATH``, so
the benchmark measures the tree it sits in.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` is a separate
traced run reporting its per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (with several runs, each metric is the median over runs and
named ``<workload>/<metric>``).  ``--out R.json`` also writes every run;
traced runs then write their spans and samples to ``R.trace.json``.
``compare.py`` compares two such files.

Seed 2016 is held out: use it to check a claim, never while tuning.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".e2e_work"
RUN_LIMIT_S = 170.0
"""A run that has not finished after this long is killed and failed."""


def load_spec() -> Dict:
    return json.loads(SPEC.read_text())


def child_env(work: Path) -> Dict[str, str]:
    """The environment of a measuring child: this tree's ``src`` first
    on the path, no ``REPRO_*`` settings from the caller's shell, and
    temporary files inside the run's work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(work)
    return env


def failed_run(workload: str, seed: int, trace: int, why: str) -> Dict:
    print(f"e2e: FAILED {workload} seed {seed}: {why}", file=sys.stderr)
    return {"workload": workload, "seed": seed, "trace": trace,
            "correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def run_one(workload: str, seed: int, seconds: float, trace: int,
            quick: bool, keep_spans: bool = False) -> Dict:
    """One run of one workload in a fresh child process.  With
    ``keep_spans`` the run's spans and samples come back under
    ``"spans"``."""
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    spans = work / "spans.json"
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace",
           str(trace), "--work", str(work)]
    if quick:
        cmd.append("--quick")
    if keep_spans:
        cmd += ["--spans", str(spans)]
    # A process group of its own, so a run that overstays its limit is
    # killed together with any server or worker it started.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=child_env(work), start_new_session=True)
    traced = None
    try:
        out, _ = proc.communicate(timeout=RUN_LIMIT_S)
        if spans.exists():
            traced = json.loads(spans.read_text())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return failed_run(workload, seed, trace,
                          f"did not finish within {RUN_LIMIT_S:g} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return failed_run(workload, seed, trace,
                          f"measuring process exited {proc.returncode}")
    run = json.loads(lines[-1])
    if traced is not None:
        run["spans"] = traced
    return run


def check_metrics(run: Dict, expected: List[Dict]) -> None:
    """A run must report exactly the metrics ``BENCHMARK.json`` names,
    each with its unit; anything else marks the run incorrect."""
    if not run["correct"]:
        return
    got = {name: m["unit"] for name, m in run["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if got != want:
        run["correct"] = False
        run["failed"] += 1
        print(f"e2e: FAILED {run['workload']}: metrics "
              f"{sorted(set(got.items()) ^ set(want.items()))} do not match "
              "BENCHMARK.json", file=sys.stderr)


def summary(runs: List[Dict]) -> Dict:
    """The final JSON line: one run as is, several as medians."""
    result = {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
    }
    if len(runs) == 1:
        result["metrics"] = runs[0]["metrics"]
        return result
    values: Dict[str, List[float]] = {}
    units: Dict[str, str] = {}
    for r in runs:
        for name, m in r["metrics"].items():
            key = f"{r['workload']}/{name}"
            values.setdefault(key, []).append(m["value"])
            units[key] = m["unit"]
    result["metrics"] = {
        key: {"value": statistics.median(v), "unit": units[key]}
        for key, v in values.items()
    }
    return result


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2e: no repro package under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", choices=names, action="append",
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2015,
                        help="workload seed (2016 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0,
                        help="1: traced run reporting per-layer metrics")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, at seeds seed, seed+1, ...")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: small points, one round")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write every run to this JSON file")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else args.seconds
    expected = spec["per_layer"] if args.trace else spec["end_to_end"]
    trace_doc = []

    runs = []
    for index in range(args.runs):
        for workload in args.workload or names:
            seed = args.seed + index
            t0 = time.perf_counter()
            run = run_one(workload, seed, seconds, args.trace, args.quick,
                          keep_spans=bool(args.trace) and args.out is not None)
            run["wall_s"] = time.perf_counter() - t0
            check_metrics(run, expected)
            if "spans" in run:
                trace_doc.append({"workload": workload, "seed": seed,
                                  **run.pop("spans")})
            runs.append(run)
            print(f"{workload} seed {seed}: "
                  f"{'ok' if run['correct'] else 'FAILED'} "
                  f"({run['failed']}/{run['attempted']} failed, "
                  f"{run['wall_s']:.1f} s)")
            for name, m in run["metrics"].items():
                print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
            sys.stdout.flush()

    if args.out is not None:
        args.out.write_text(json.dumps({
            "schema": "repro.e2e/1",
            "seconds": seconds,
            "trace": args.trace,
            "quick": args.quick,
            "runs": runs,
        }, indent=1))
        if trace_doc:
            args.out.with_suffix(".trace.json").write_text(
                json.dumps({"runs": trace_doc})
            )
    result = summary(runs)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
