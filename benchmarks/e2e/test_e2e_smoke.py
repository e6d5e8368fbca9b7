"""Smoke test of the end-to-end benchmark: every workload in ``--quick``
mode, untraced and traced (seconds in total).

    PYTHONPATH=src python3 -m pytest benchmarks/e2e/test_e2e_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: APIs the roadmap deletes (one simulation kernel, one engine path,
#: one event channel); the benchmark must keep working across those
#: changes, so it never touches them.
FORBIDDEN = (
    "sim_mode", "sharding_info", "REPRO_SIM_SHARDING", "manifest=",
    "machine.tracer", "_run_parallel",
)


def run_quick(tmp_path, *args):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--out", str(out),
         *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [
        w["name"] for w in SPEC["workloads"]
    ]
    return out, runs


@pytest.mark.parametrize("trace", [0, 1])
def test_every_workload_reports_every_metric(tmp_path, trace):
    out, runs = run_quick(tmp_path, "--trace", str(trace))
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    units = {m["name"]: m["unit"] for m in expected}
    for run in runs:
        assert run["failed"] == 0, run["workload"]
        assert {n: m["unit"] for n, m in run["metrics"].items()} == units
        values = {n: m["value"] for n, m in run["metrics"].items()}
        if trace:
            shares = sum(v for n, v in values.items()
                         if n.startswith("layer."))
            assert abs(shares - 100.0) < 1.0, run["workload"]
            assert values["trace.samples"] > 0
        else:
            assert all(v > 0 for v in values.values()), run["workload"]
    if trace:
        traced = json.loads(out.with_suffix(".trace.json").read_text())
        assert len(traced["runs"]) == len(runs)
        assert all(r["spans"] and r["samplers"] for r in traced["runs"])


def test_driver_avoids_apis_the_roadmap_removes():
    for path in HERE.glob("*.py"):
        if path.name == Path(__file__).name:
            continue
        text = path.read_text()
        for name in FORBIDDEN:
            assert name not in text, f"{path.name} uses {name}"


def test_fails_without_a_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--quick"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
