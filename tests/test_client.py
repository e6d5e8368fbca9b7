"""The service client and the config/schema satellites.

Covers :mod:`repro.client` against an embedded server (including the
byte-identity contract with local runs), the ``repro.api`` service
verbs, the consolidated :mod:`repro.common.config` knob resolver, the
schema-version pins, and the new CLI subcommand parsers.
"""

from __future__ import annotations

import http.server
import json
import sys
import threading
import time

import pytest

from repro import api
from repro.client import Client, discover
from repro.common import config as repro_config
from repro.common.errors import ConfigError, SchemaError, ServiceError
from repro.serve import Server

POINT = dict(configs="pthread", workloads="canneal", cores=4, scale=0.1, seed=7)


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = Server(
        cache_dir=tmp_path_factory.mktemp("client-cache"), port=0
    ).start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def client(server):
    with Client(server.url) as c:
        yield c


class TestClient:
    def test_needs_endpoint(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVER", raising=False)
        with pytest.raises(ConfigError, match="REPRO_SERVER"):
            Client()

    def test_env_endpoint(self, server, monkeypatch):
        monkeypatch.setenv("REPRO_SERVER", server.url)
        with Client() as c:
            assert c.healthz()["ok"] is True

    def test_scheme_defaulted(self, server):
        bare = server.url[len("http://"):]
        assert Client(bare).base == server.url

    def test_submit_wait_fetch(self, client):
        sid = client.submit(**POINT)
        doc = client.wait(sid, timeout_s=180)
        assert doc["ok"] and doc["counts"] == {"done": 1}
        points = client.fetch(sid)
        assert len(points) == 1
        assert points[0].config == "pthread"
        assert points[0].workload == "canneal"
        assert points[0].result.cycles > 0

    def test_fetch_is_byte_identical_to_local(self, client):
        """The service changes where a sweep runs, never what it
        produces: the fetched RunResult serializes to the same bytes
        as a local run of the same point."""
        sid = client.submit(**POINT)
        client.wait(sid, timeout_s=180)
        [remote] = client.fetch(sid)
        [local] = api.sweep(
            configs=["pthread"],
            workloads=["canneal"],
            cores=(4,),
            scale=0.1,
            seed=7,
        )
        assert remote.result.to_json() == local.result.to_json()

    def test_resubmission_hits_cache(self, client):
        sid = client.submit(**POINT)
        client.wait(sid, timeout_s=180)
        assert client.submit(**POINT) == sid
        sub = client.submissions[sid]
        assert sub["created_jobs"] == 0 and sub["deduped_jobs"] == 1

    def test_wait_timeout(self, client):
        sid = client.submit(**POINT)
        client.wait(sid, timeout_s=180)
        # Already done: even a zero timeout returns immediately.
        assert client.wait(sid, timeout_s=0)["done"]

    def test_unknown_sweep_is_service_error(self, client):
        with pytest.raises(ServiceError, match="404"):
            client.status("feedfacefeedface")

    def test_metrics_and_report(self, client):
        assert "repro_serve_http_requests" in client.metrics()
        assert "<html" in client.report(baseline="pthread").lower()

    def test_unreachable_server(self):
        c = Client("http://127.0.0.1:9", timeout_s=2.0)
        with pytest.raises(ServiceError, match="cannot reach"):
            c.healthz()

    def test_discover(self, server, tmp_path):
        assert discover(server.cache_dir) == server.url
        assert discover(tmp_path) is None


def _served(server):
    """``(connections, requests)`` the server has seen so far."""
    return (
        server.counters["http_connections"],
        server.counters["http_requests"],
    )


class TestRequests:
    """One kept-alive connection per thread, and only the requests the
    answer needs."""

    def test_cached_round_trip_is_two_requests(self, server, client):
        sid = client.submit(**POINT)
        client.wait(sid, timeout_s=180)
        with Client(server.url) as c:
            before = _served(server)
            assert c.submit(**POINT) == sid
            done = c.wait(sid)  # the submit response already read done
            assert done["done"] and done["ok"] and done["id"] == sid
            assert "created_jobs" not in done
            [point] = c.fetch(sid)  # no status re-read: one job fetch
            assert point.result.cycles > 0
            assert _served(server) == (before[0] + 1, before[1] + 2)

    def test_fresh_round_trip_is_three_requests(self, server):
        with Client(server.url) as c:
            before = _served(server)
            sid = c.submit(**dict(POINT, seed=31))
            c.wait(sid, timeout_s=180)
            assert len(c.fetch(sid)) == 1
            connections, requests = _served(server)
        assert connections == before[0] + 1
        # submit, one or more long-polls, one job fetch
        assert requests >= before[1] + 3

    def test_round_trips_reuse_one_connection(self, server, client):
        client.wait(client.submit(**POINT), timeout_s=180)
        with Client(server.url) as c:
            before = _served(server)
            for _ in range(20):
                sid = c.submit(**POINT)
                c.wait(sid, timeout_s=180)
                assert len(c.fetch(sid)) == 1
            assert c.metrics() and c.healthz()["ok"]
            assert _served(server)[0] == before[0] + 1

    def test_shared_client_across_threads(self, server):
        """Eight threads share one client, each with its own sweep: one
        connection per thread at most, and every fetched result is
        byte-identical to a local run."""
        seeds = range(40, 48)
        shared = Client(server.url)
        before = _served(server)
        fetched, errors = {}, []

        def run(seed):
            try:
                sid = shared.submit(**dict(POINT, seed=seed))
                shared.wait(sid, timeout_s=180)
                [point] = shared.fetch(sid)
                fetched[seed] = point.result.to_json()
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)
            finally:
                shared.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(s,)) for s in seeds]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert _served(server)[0] - before[0] <= 8
        for seed in seeds:
            [local] = api.sweep(
                configs=["pthread"],
                workloads=["canneal"],
                cores=(4,),
                scale=0.1,
                seed=seed,
            )
            assert fetched[seed] == local.result.to_json()

    def test_reconnects_after_idle_close(self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "LONG_POLL_CAP_S", 0.2)
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            with Client(srv.url) as c:
                assert c.healthz()["ok"]
                time.sleep(0.6)  # the server closes the idle connection
                assert c.healthz()["ok"]
            assert _served(srv) == (2, 2)
        finally:
            srv.stop()

    def test_server_that_closes_each_connection(self):
        """Against a server that answers ``Connection: close`` (as the
        parent version of ``repro serve`` does), every request opens a
        fresh connection and succeeds."""
        connections = []

        class Handler(http.server.BaseHTTPRequestHandler):
            def do_GET(self):
                connections.append(self.client_address)
                body = json.dumps({"ok": True}).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(body)))
                self.send_header("Connection", "close")
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *_):
                pass

        httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            with Client(f"http://127.0.0.1:{httpd.server_port}") as c:
                for _ in range(3):
                    assert c.healthz() == {"ok": True}
            assert len(set(connections)) == 3
        finally:
            httpd.shutdown()
            httpd.server_close()


class TestApiVerbs:
    def test_sweep_routes_through_server(self, server):
        points, stats = api.sweep(
            configs=["pthread"],
            workloads="canneal",
            cores=(4,),
            scale=0.1,
            seed=7,
            server=server.url,
            return_stats=True,
        )
        assert len(points) == 1 and stats.total == 1
        # This grid already ran in this module: all hits, no execution.
        assert stats.hit_rate >= 0.9

    def test_submit_status_wait_fetch(self, server):
        sid = api.submit(**POINT, server=server.url)
        assert api.wait(sid, server=server.url, timeout_s=180)["ok"]
        assert api.status(sid, server=server.url)["done"]
        assert len(api.fetch(sid, server=server.url)) == 1

    def test_server_rejects_engine_kwargs(self, server):
        with pytest.raises(ConfigError, match="server"):
            api.sweep(
                configs=["pthread"],
                workloads="canneal",
                server=server.url,
                workers=4,
            )

    def test_server_rejects_factories(self, server):
        with pytest.raises(ConfigError, match="registry"):
            api.sweep(
                configs=["pthread"],
                workloads={"x": lambda n, s: None},
                server=server.url,
            )

    def test_package_exports(self):
        import repro

        for name in ("submit", "status", "wait", "fetch"):
            assert callable(getattr(repro, name))
        # ``repro.serve`` is the subpackage; the verb is api.serve.
        assert callable(api.serve)


class TestConfigResolver:
    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "3")
        assert repro_config.workers(8) == 8
        assert repro_config.workers(None) == 3

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        assert repro_config.workers(None) is None
        monkeypatch.setenv("REPRO_CACHE_DIR", "/tmp/x")
        assert repro_config.cache_dir(None) == "/tmp/x"
        monkeypatch.setenv("REPRO_SERVER", "http://h:1")
        assert repro_config.server(None) == "http://h:1"

    def test_bad_int_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_WORKERS", "lots")
        with pytest.raises(ConfigError, match="REPRO_WORKERS"):
            repro_config.workers(None)

    def test_unknown_knob_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            repro_config.get("no_such_knob")

    def test_describe_covers_every_knob(self):
        text = repro_config.describe()
        for env in ("REPRO_WORKERS", "REPRO_CACHE_DIR", "REPRO_SERVER",
                    "REPRO_BENCH_FULL"):
            assert env in text


class TestSchemaPins:
    def test_result_round_trip_carries_stamp(self):
        from repro.harness.runner import RunResult

        [point] = api.sweep(
            configs=["pthread"], workloads=["canneal"], cores=(4,),
            scale=0.1, seed=7,
        )
        data = json.loads(point.result.to_json())
        assert data["schema"] == "repro.result/1"
        again = RunResult.from_dict(data)
        assert again.to_json() == point.result.to_json()

    def test_result_future_major_rejected(self):
        from repro.harness.runner import RunResult

        with pytest.raises(SchemaError, match="repro.result/9"):
            RunResult.from_dict({"schema": "repro.result/9", "cycles": 1})

    def test_jobspec_future_major_rejected(self):
        from repro.harness.jobs import JobSpec

        wire = JobSpec(
            config="pthread", workload="canneal", cores=4
        ).to_wire()
        assert wire["schema"] == "repro.jobspec/1"
        wire["schema"] = "repro.jobspec/2"
        with pytest.raises(SchemaError):
            JobSpec.from_wire(wire)

    def test_legacy_unstamped_documents_accepted(self):
        """Pre-versioning cache entries (no stamp) must keep loading."""
        from repro.harness.runner import RunResult

        [point] = api.sweep(
            configs=["pthread"], workloads=["canneal"], cores=(4,),
            scale=0.1, seed=7,
        )
        data = json.loads(point.result.to_json())
        del data["schema"]
        assert RunResult.from_dict(data).cycles == point.result.cycles


class TestCliParsers:
    def test_serve_parser(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["serve", "--cache-dir", "/tmp/c", "--port", "0",
             "--workers", "2", "--lease", "5"]
        )
        assert args.command == "serve"
        assert args.port == 0 and args.workers == 2 and args.lease == 5.0

    def test_submit_parser(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(
            ["submit", "--server", "http://h:1", "--configs", "pthread",
             "--workloads", "canneal", "--cores", "4", "--wait"]
        )
        assert args.command == "submit"
        assert args.server == "http://h:1" and args.wait

    def test_status_fetch_parsers(self):
        from repro.__main__ import build_parser

        args = build_parser().parse_args(["status", "abc123"])
        assert args.command == "status" and args.sweep_id == "abc123"
        args = build_parser().parse_args(
            ["fetch", "abc123", "--baseline", "pthread", "--csv", "o.csv"]
        )
        assert args.command == "fetch" and args.baseline == "pthread"

    def test_cli_fetch_round_trip(self, server, capsys):
        from repro.__main__ import main

        with Client(server.url) as c:
            sid = c.submit(**POINT)
            c.wait(sid, timeout_s=180)
        assert main(["fetch", "--server", server.url, sid]) == 0
        out = capsys.readouterr().out
        assert out.startswith("config,workload")
        assert "pthread,canneal,4,0.1" in out
