"""Tests for the repro.perf benchmark/regression subsystem.

The compare() gate is what CI trusts, so these tests pin its three
verdicts exactly: identical documents pass, an injected throughput
regression fails, and any change to simulated results (cycles/events)
is a hard determinism failure regardless of throughput.
"""

import copy
import json

import pytest

from repro.perf import (
    SUITES,
    BenchPoint,
    compare,
    load_doc,
    measure_point,
    render_table,
    write_doc,
)


def _doc(points, calibration=20_000.0, label="test"):
    return {
        "schema": "repro.perf/1",
        "label": label,
        "python": "3.x",
        "platform": "test",
        "calibration_kops": calibration,
        "points": points,
    }


def _point(key, cycles=1000, events=5000, eps=100_000.0):
    return {
        "key": key,
        "cycles": cycles,
        "events": events,
        "events_per_sec": eps,
        "wall_s": events / eps,
    }


class TestBenchPoint:
    def test_parse_full_spec(self):
        p = BenchPoint.parse("msa-omu-2:streamcluster:64:8.0")
        assert p == BenchPoint("msa-omu-2", "streamcluster", 64, 8.0)

    def test_parse_defaults(self):
        assert BenchPoint.parse("pthread:canneal") == BenchPoint(
            "pthread", "canneal", 16, 1.0
        )

    def test_parse_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            BenchPoint.parse("just-a-config")

    def test_key_roundtrips_through_suites(self):
        keys = {p.key for suite in SUITES.values() for p in suite}
        assert len(keys) == sum(len(s) for s in SUITES.values())


class TestCompareGate:
    def test_identical_documents_pass(self):
        doc = _doc([_point("a/b/c16/s1"), _point("x/y/c64/s2")])
        result = compare(doc, copy.deepcopy(doc))
        assert result.ok
        assert result.regressions == []
        assert result.determinism_breaks == []
        assert "ok: no events/sec regression" in result.describe()

    def test_injected_throughput_regression_fails(self):
        old = _doc([_point("a/b/c16/s1", eps=100_000.0)])
        new = _doc([_point("a/b/c16/s1", eps=50_000.0)])
        result = compare(new, old, threshold=0.15)
        assert not result.ok
        assert result.regressions == ["a/b/c16/s1"]
        assert "REGRESSION" in "\n".join(result.lines)

    def test_small_slowdown_within_threshold_passes(self):
        old = _doc([_point("a/b/c16/s1", eps=100_000.0)])
        new = _doc([_point("a/b/c16/s1", eps=90_000.0)])
        assert compare(new, old, threshold=0.15).ok

    def test_cycles_change_is_hard_determinism_failure(self):
        old = _doc([_point("a/b/c16/s1", cycles=1000)])
        new = _doc([_point("a/b/c16/s1", cycles=999, eps=1e9)])
        result = compare(new, old)
        assert not result.ok
        assert result.determinism_breaks == ["a/b/c16/s1"]
        assert "DETERMINISM" in result.describe()

    def test_events_change_is_hard_determinism_failure(self):
        old = _doc([_point("a/b/c16/s1", events=5000)])
        new = _doc([_point("a/b/c16/s1", events=5001)])
        assert compare(new, old).determinism_breaks == ["a/b/c16/s1"]

    def test_host_calibration_normalizes_baseline(self):
        # Same simulator speed on a 2x slower host: halved events/sec
        # must NOT read as a regression.
        old = _doc([_point("a/b/c16/s1", eps=100_000.0)], calibration=40_000)
        new = _doc([_point("a/b/c16/s1", eps=50_000.0)], calibration=20_000)
        result = compare(new, old)
        assert result.host_ratio == pytest.approx(0.5)
        assert result.ok

    def test_unmatched_points_reported_but_never_fail(self):
        old = _doc([_point("a/b/c16/s1")])
        new = _doc([_point("a/b/c16/s1"), _point("new/p/c16/s1")])
        result = compare(new, old)
        assert result.ok
        assert result.unmatched == ["new/p/c16/s1"]


class TestDocIO:
    def test_write_then_load_roundtrip(self, tmp_path):
        doc = _doc([_point("a/b/c16/s1")])
        path = str(tmp_path / "bench.json")
        write_doc(doc, path)
        assert load_doc(path)["points"] == doc["points"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "points": []}))
        with pytest.raises(ValueError):
            load_doc(str(path))

    def test_render_table_with_baseline_speedup_column(self):
        old = _doc([_point("a/b/c16/s1", eps=100_000.0)])
        new = _doc([_point("a/b/c16/s1", eps=200_000.0)])
        table = render_table(new, baseline=old)
        assert "speedup" in table
        assert "2.00x" in table


def test_old_documents_with_kernel_mode_stamps_still_compare():
    """BENCH_PR9.json and BENCH_PR9_LEGACY.json were recorded under two
    kernels that no longer both exist, and carry stamps saying so.
    Their fingerprints are equal, so they load and compare point by
    point, with no refusal and no determinism break."""
    import os

    bench = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
    new = load_doc(os.path.join(bench, "BENCH_PR9.json"))
    old = load_doc(os.path.join(bench, "BENCH_PR9_LEGACY.json"))
    result = compare(new, old)
    assert result.determinism_breaks == []
    assert result.unmatched == []
    assert result.ok
    assert "REFUSED" not in result.describe()


@pytest.mark.slow
def test_checked_in_headline_fingerprints_are_live(repo_root=None):
    """The committed BENCH_PR4.json must describe *this* simulator: re-run
    a cheap headline point and require the identical simulated results."""
    import os

    path = os.path.join(
        os.path.dirname(__file__), "..", "benchmarks", "BENCH_PR4.json"
    )
    doc = load_doc(path)
    key = "ideal/streamcluster/c64/s8"
    committed = next(p for p in doc["points"] if p["key"] == key)
    live = measure_point(BenchPoint("ideal", "streamcluster", 64, 8.0), repeat=1)
    assert (live["cycles"], live["events"]) == (
        committed["cycles"],
        committed["events"],
    )


class TestMeasurePoint:
    def test_tiny_point_measures_and_fingerprints(self):
        # Small enough for a unit test; repeat=2 exercises the built-in
        # determinism assertion across fresh machines.
        record = measure_point(
            BenchPoint("msa0", "streamcluster", 4, 0.1), repeat=2
        )
        assert record["cycles"] > 0
        assert record["events"] > 0
        assert record["events_per_sec"] > 0
        assert record["repeats"] == 2
        assert record["key"] == "msa0/streamcluster/c4/s0.1"
