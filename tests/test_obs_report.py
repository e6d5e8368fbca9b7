"""Report-from-cache tests: the HTML reports must render purely from
serialized results -- never by re-simulating -- and the CLI verbs must
produce self-contained files."""

from __future__ import annotations

import pytest

from repro import api
from repro.common.errors import ConfigError
from repro.harness import jobs
from repro.obs import load_cache_points, render_run_report, report_from_cache


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """A small real sweep, cached once for the whole module."""
    root = tmp_path_factory.mktemp("result-cache")
    api.sweep(
        configs=("pthread", "msa-omu-2"),
        workloads=("streamcluster", "lu"),
        cores=(4,),
        scale=0.05,
        cache_dir=str(root),
    )
    return str(root)


@pytest.fixture
def no_simulation(monkeypatch):
    """Make any attempt to simulate explode, proving cache-only paths."""

    def boom(spec):
        raise AssertionError(f"re-simulated {spec.describe()} from cache!")

    monkeypatch.setattr(jobs, "execute_spec", boom)


class TestLoadCachePoints:
    def test_loads_every_point_without_simulating(self, cache_dir, no_simulation):
        points = load_cache_points(cache_dir)
        assert len(points) == 4
        assert {(p.config, p.workload) for p in points} == {
            ("pthread", "streamcluster"), ("pthread", "lu"),
            ("msa-omu-2", "streamcluster"), ("msa-omu-2", "lu"),
        }
        for p in points:
            assert p.result.cycles > 0
            assert p.n_cores == 4

    def test_deterministic_order(self, cache_dir):
        first = [(p.config, p.workload) for p in load_cache_points(cache_dir)]
        second = [(p.config, p.workload) for p in load_cache_points(cache_dir)]
        assert first == second

    def test_missing_cache_is_empty(self, tmp_path):
        assert load_cache_points(tmp_path / "nope") == []

    def test_torn_entries_skipped(self, cache_dir, tmp_path):
        import shutil

        root = tmp_path / "copy"
        shutil.copytree(cache_dir, root)
        bad = root / "zz"
        bad.mkdir()
        (bad / "zz.json").write_text("{torn")
        assert len(load_cache_points(root)) == 4


class TestReportFromCache:
    def test_renders_html_without_simulating(
        self, cache_dir, tmp_path, no_simulation
    ):
        out = report_from_cache(
            cache_dir, tmp_path / "report.html", baseline="pthread"
        )
        html = out.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "msa-omu-2" in html and "pthread" in html
        assert "streamcluster" in html and "lu" in html
        assert "speedup over pthread" in html
        assert "1.00x" in html  # baseline vs itself
        # Self-contained: no external references.
        assert "http://" not in html and "https://" not in html
        assert "<script" not in html

    def test_empty_cache_is_an_error(self, tmp_path):
        with pytest.raises(ConfigError, match="no cached results"):
            report_from_cache(tmp_path / "empty", tmp_path / "out.html")

    def test_unknown_baseline_is_an_error(self, cache_dir, tmp_path):
        with pytest.raises(ConfigError, match="baseline"):
            report_from_cache(
                cache_dir, tmp_path / "out.html", baseline="nonesuch"
            )

    def test_cli_report_verb(self, cache_dir, tmp_path, capsys, no_simulation):
        from repro.__main__ import main

        out = tmp_path / "cli.html"
        rc = main([
            "report", "--cache-dir", cache_dir, "--out", str(out),
            "--baseline", "pthread",
        ])
        assert rc == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert str(out) in capsys.readouterr().out


class TestRunReport:
    def test_run_report_without_obs(self, cache_dir):
        points = load_cache_points(cache_dir)
        html = render_run_report(points[0].result)
        assert html.startswith("<!DOCTYPE html>")
        assert "Top counters" in html

    def test_run_report_with_obs_sections(self):
        result, obs = api.observe(
            "msa-omu-1", "fluidanimate", cores=4, scale=0.2
        )
        html = render_run_report(result, obs)
        assert "Cycle attribution" in html
        assert "OMU transitions" in html
        assert "<svg" in html  # timeline + share bars are inline SVG
        assert "lock.acquire" in html

    def test_cli_run_observed_exporters(self, tmp_path, capsys):
        from repro.__main__ import main

        html = tmp_path / "run.html"
        trace = tmp_path / "trace.json"
        rc = main([
            "run", "--config", "msa-omu-2", "--workload", "streamcluster",
            "--cores", "4", "--scale", "0.05",
            "--html", str(html), "--trace", str(trace),
        ])
        assert rc == 0
        assert html.read_text().startswith("<!DOCTYPE html>")
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        assert all("pid" in e and "tid" in e for e in events)
        assert "spans retained" in capsys.readouterr().out

    def test_cli_run_check_writes_chrome_trace(self, tmp_path, capsys):
        from repro.__main__ import main

        trace = tmp_path / "trace.json"
        rc = main([
            "run", "--config", "msa-omu-2", "--workload", "streamcluster",
            "--cores", "4", "--scale", "0.05", "--check",
            "--trace", str(trace),
        ])
        assert rc == 0
        import json

        events = json.loads(trace.read_text())["traceEvents"]
        assert all(
            isinstance(e["pid"], int) and isinstance(e["tid"], int)
            for e in events
        )
        assert any(e["name"].startswith("msa_respond.") for e in events)
        out = capsys.readouterr().out
        assert "wrote Chrome trace" in out
        assert "checkers             : ok" in out

    def test_cli_run_unobserved_writes_nothing(self, capsys):
        from repro.__main__ import main

        rc = main([
            "run", "--workload", "streamcluster", "--cores", "4",
            "--scale", "0.05", "--span-limit", "10",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "streamcluster on msa-omu-2" in out
        assert "spans retained" not in out and "wrote" not in out

    @pytest.mark.parametrize("exports", [[], ["--html"], ["--metrics"]])
    def test_cli_run_check_violation_exits_1(
        self, exports, tmp_path, capsys, monkeypatch
    ):
        """A violation prints the CheckReport and exits 1, observed or
        not; naming monitors attaches only those."""
        from repro import verify
        from repro.__main__ import main
        from repro.verify.monitors import Monitor

        class Planted(Monitor):
            name = "planted"

            def on_attach(self):
                pass

            def finalize(self):
                self.violation("planted violation")

        monkeypatch.setitem(verify.MONITORS, "planted", Planted)
        rc = main([
            "run", "--workload", "streamcluster", "--cores", "4",
            "--scale", "0.05", "--check", "planted", "mutex",
            *[arg for flag in exports
              for arg in (flag, str(tmp_path / "out"))],
        ])
        assert rc == 1
        out = capsys.readouterr().out
        assert "check: FAILED (2 monitors" in out
        assert "planted violation" in out
        assert "checkers             : VIOLATIONS (1 violations" in out
