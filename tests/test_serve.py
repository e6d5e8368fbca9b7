"""The experiment service: HTTP endpoints, dedup, crash recovery.

An embedded :class:`repro.serve.Server` on ``port=0`` backs most tests
(one real point: canneal/pthread/4 cores at 0.1 scale, ~a second); the
crash test SIGKILLs a real ``python -m repro serve`` subprocess
mid-sweep and proves a restarted server converges on the same cache
directory with a clean fsck.
"""

from __future__ import annotations

import http.client
import json
import logging
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.common.schema import SERVE_SCHEMA
from repro.resilience.store import JobStore, default_store_path
from repro.serve import Server, sweep_id
from repro.serve.wire import expand_sweep_request

POINT = {
    "configs": ["pthread"],
    "workloads": ["canneal"],
    "cores": [4],
    "scale": 0.1,
    "seed": 7,
}


def _post(url, path, doc):
    req = urllib.request.Request(
        url + path,
        data=json.dumps(doc).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=120) as resp:
        return resp.status, json.loads(resp.read().decode())


def _get(url, path, timeout=120):
    with urllib.request.urlopen(url + path, timeout=timeout) as resp:
        return resp.status, resp.read()


def _connect(server):
    return socket.create_connection((server.host, server.port), timeout=30)


def _exchange(sock, raw: bytes):
    """Send one raw request; returns (status, Connection header, body)."""
    sock.sendall(raw)
    resp = http.client.HTTPResponse(sock)
    resp.begin()
    return resp.status, resp.getheader("Connection"), resp.read()


def _read_answers(sock, n: int):
    """Read ``n`` responses off one socket, in order; returns a list of
    (status, Connection header, body)."""
    stream = sock.makefile("rb")
    answers = []
    for _ in range(n):
        status = int(stream.readline().split()[1])
        headers = {}
        while True:
            line = stream.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = stream.read(int(headers["content-length"]))
        answers.append((status, headers.get("connection"), body))
    return answers


def _closed_by_server(sock) -> bool:
    return sock.recv(1) == b""


HEALTHZ = b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n"


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    srv = Server(
        cache_dir=tmp_path_factory.mktemp("serve-cache"), port=0, lease_s=5.0
    ).start()
    yield srv
    srv.stop()


@pytest.fixture(scope="module")
def finished_sweep(server):
    """POINT submitted and run to completion; returns (sid, submit doc)."""
    status, doc = _post(
        server.url, "/v1/sweeps", dict(POINT, schema=SERVE_SCHEMA)
    )
    assert status == 202
    _get(server.url, f"/v1/sweeps/{doc['id']}?wait=120")
    return doc["id"], doc


class TestEndpoints:
    def test_healthz(self, server):
        status, body = _get(server.url, "/v1/healthz")
        doc = json.loads(body)
        assert status == 200
        assert doc["ok"] is True
        assert doc["schema"] == SERVE_SCHEMA
        assert doc["workers"] == 1

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url, "/v1/nope")
        assert exc.value.code == 404
        assert "error" in json.loads(exc.value.read())

    def test_submit_runs_point(self, server, finished_sweep):
        sid, doc = finished_sweep
        assert doc["created_jobs"] + doc["deduped_jobs"] == 1
        _, body = _get(server.url, f"/v1/sweeps/{sid}?wait=120")
        status_doc = json.loads(body)
        assert status_doc["done"] and status_doc["ok"]
        assert status_doc["counts"] == {"done": 1}

    def test_job_doc_carries_result(self, server, finished_sweep):
        sid, _ = finished_sweep
        _, body = _get(server.url, f"/v1/sweeps/{sid}")
        key = json.loads(body)["jobs"][0]["key"]
        _, body = _get(server.url, f"/v1/jobs/{key}")
        doc = json.loads(body)
        assert doc["status"] == "done"
        assert doc["result"]["cycles"] > 0
        assert doc["result"]["schema"] == "repro.result/1"

    def test_unknown_job_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url, "/v1/jobs/" + "0" * 64)
        assert exc.value.code == 404

    def test_resubmission_dedups_entirely(
        self, server, finished_sweep, monkeypatch
    ):
        """The >=90% cache-hit acceptance bar: resubmitting a finished
        sweep creates zero new executions (a 100% hit rate).  It neither
        pickles a spec nor touches the store, and its answer reads as
        the sweep's status does."""
        from repro.serve import server as server_module

        sid, _ = finished_sweep
        touched = []
        monkeypatch.setattr(server_module, "_spec_blob", touched.append)
        monkeypatch.setattr(server._front, "enqueue_many", touched.append)
        status, doc = _post(
            server.url, "/v1/sweeps", dict(POINT, schema=SERVE_SCHEMA)
        )
        assert status == 202
        assert doc["id"] == sid
        assert doc["created_jobs"] == 0
        assert doc["deduped_jobs"] == 1
        assert touched == []
        _, body = _get(server.url, f"/v1/sweeps/{sid}")
        assert json.loads(body)["jobs"] == doc["jobs"]

    def test_sweep_list(self, server, finished_sweep):
        sid, _ = finished_sweep
        _, body = _get(server.url, "/v1/sweeps")
        sweeps = json.loads(body)["sweeps"]
        assert any(s["id"] == sid and s["done"] for s in sweeps)
        assert b'"result"' not in body

    def test_done_status_carries_results(self, server, finished_sweep):
        """Every answer that reads done -- a resubmission, a plain and a
        long-polled status read -- carries each job's result as
        ``/v1/jobs`` serves it; the sweep record on disk does not."""
        sid, _ = finished_sweep
        _, resubmitted = _post(
            server.url, "/v1/sweeps", dict(POINT, schema=SERVE_SCHEMA)
        )
        docs = [resubmitted] + [
            json.loads(_get(server.url, f"/v1/sweeps/{sid}{query}")[1])
            for query in ("", "?wait=5")
        ]
        key = docs[0]["jobs"][0]["key"]
        _, body = _get(server.url, f"/v1/jobs/{key}")
        expected = json.loads(body)["result"]
        assert expected["schema"] == "repro.result/1"
        for doc in docs:
            assert doc["done"]
            assert [job["result"] for job in doc["jobs"]] == [expected]
        record = (server.sweeps_dir / f"{sid}.json").read_text()
        assert '"result"' not in record

    def test_metrics_prometheus(self, server, finished_sweep):
        _, body = _get(server.url, "/v1/metrics")
        text = body.decode()
        assert "# TYPE repro_serve_http_requests counter" in text
        assert "# TYPE repro_serve_http_connections counter" in text
        assert "repro_store_enqueued" in text
        assert "repro_serve_workers 1" in text

    def test_report_html(self, server, finished_sweep):
        _, body = _get(server.url, "/v1/report?baseline=pthread")
        assert b"<html" in body.lower()
        assert b"canneal" in body

    def test_sse_stream(self, server, finished_sweep):
        sid, _ = finished_sweep
        _, body = _get(server.url, f"/v1/sweeps/{sid}?stream=sse")
        text = body.decode()
        assert "event: progress" in text
        assert "event: done" in text
        assert '"result"' not in text


class TestValidation:
    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            server.url + "/v1/sweeps", data=b"not json"
        )
        with pytest.raises(urllib.error.HTTPError) as exc:
            urllib.request.urlopen(req, timeout=30)
        assert exc.value.code == 400

    def test_unknown_schema_major_400(self, server):
        """The wire-compat pin: a future-major envelope is refused with
        a clear error, never half-parsed."""
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(server.url, "/v1/sweeps", dict(POINT, schema="repro.serve/9"))
        assert exc.value.code == 400
        assert "repro.serve/9" in json.loads(exc.value.read())["error"]

    def test_unknown_config_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(
                server.url,
                "/v1/sweeps",
                dict(POINT, schema=SERVE_SCHEMA, configs=["no-such"]),
            )
        assert exc.value.code == 400
        assert "no-such" in json.loads(exc.value.read())["error"]

    def test_unknown_workload_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _post(
                server.url,
                "/v1/sweeps",
                dict(POINT, schema=SERVE_SCHEMA, workloads=["no-such"]),
            )
        assert exc.value.code == 400

    def test_unknown_sweep_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as exc:
            _get(server.url, "/v1/sweeps/feedfacefeedface")
        assert exc.value.code == 404


class TestHttpErrors:
    """Requests the server cannot read to their end are answered 400
    with an error document, and the connection is closed: under
    keep-alive an unread body would be parsed as the next request."""

    @pytest.mark.parametrize(
        "header, message",
        [
            (b"Content-Length: 99999999999", "exceeds"),
            (b"Content-Length: twelve", "not a non-negative integer"),
            (b"Content-Length: -5", "not a non-negative integer"),
            (b"Transfer-Encoding: chunked", "Transfer-Encoding"),
        ],
        ids=["oversized", "non-numeric", "negative", "transfer-encoding"],
    )
    def test_unreadable_body_400_then_close(self, server, header, message):
        with _connect(server) as sock:
            status, connection, body = _exchange(
                sock,
                b"POST /v1/sweeps HTTP/1.1\r\nHost: x\r\n"
                + header
                + b"\r\n\r\n",
            )
            assert (status, connection) == (400, "close")
            doc = json.loads(body)
            assert doc["schema"] == SERVE_SCHEMA
            assert message in doc["error"]
            assert _closed_by_server(sock)

    def test_head_past_stream_limit_400_then_close(self, server):
        with _connect(server) as sock:
            status, connection, body = _exchange(
                sock,
                b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\nX-Big: "
                + b"a" * (80 << 10)
                + b"\r\n\r\n",
            )
            assert (status, connection) == (400, "close")
            assert "too long" in json.loads(body)["error"]
            assert _closed_by_server(sock)

    def test_nan_wait_400(self, server, finished_sweep):
        """``?wait=nan`` would otherwise pass the 60 s cap as NaN."""
        sid, _ = finished_sweep
        with _connect(server) as sock:
            status, _, body = _exchange(
                sock,
                f"GET /v1/sweeps/{sid}?wait=nan HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode(),
            )
        assert status == 400
        assert "?wait=" in json.loads(body)["error"]


class TestKeepAlive:
    def test_requests_share_one_connection(self, server):
        before = server.counters["http_connections"]
        with _connect(server) as sock:
            for _ in range(3):
                status, connection, body = _exchange(sock, HEALTHZ)
                assert (status, connection) == (200, "keep-alive")
                assert json.loads(body)["ok"] is True
            status, connection, _ = _exchange(
                sock,
                b"GET /v1/nope HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\n\r\n",
            )
            assert (status, connection) == (404, "close")
            assert _closed_by_server(sock)
        assert server.counters["http_connections"] == before + 1

    def test_head_sent_byte_by_byte(self, server):
        with _connect(server) as sock:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            for byte in HEALTHZ[:-1]:
                sock.sendall(bytes([byte]))
                time.sleep(0.001)
            status, connection, body = _exchange(sock, HEALTHZ[-1:])
            assert (status, connection) == (200, "keep-alive")
            assert json.loads(body)["ok"] is True

    def test_pipelined_requests_answered_in_order(self, server):
        before = server.counters["http_connections"]
        with _connect(server) as sock:
            sock.sendall(HEALTHZ + b"GET /v1/nope HTTP/1.1\r\nHost: x\r\n\r\n")
            answers = _read_answers(sock, 2)
        assert [a[:2] for a in answers] == [
            (200, "keep-alive"), (404, "keep-alive")
        ]
        assert json.loads(answers[0][2])["ok"] is True
        assert server.counters["http_connections"] == before + 1

    def test_http10_closes(self, server):
        with _connect(server) as sock:
            status, connection, _ = _exchange(
                sock, b"GET /v1/healthz HTTP/1.0\r\n\r\n"
            )
            assert (status, connection) == (200, "close")
            assert _closed_by_server(sock)

    def test_sse_stream_closes(self, server, finished_sweep):
        sid, _ = finished_sweep
        with _connect(server) as sock:
            status, connection, body = _exchange(
                sock,
                f"GET /v1/sweeps/{sid}?stream=sse HTTP/1.1\r\n"
                "Host: x\r\n\r\n".encode(),
            )
            assert (status, connection) == (200, "close")
            assert b"event: done" in body

    def test_urllib_gets_one_response_per_connection(self, server):
        """A client that asks to close (``urllib``, as the parent
        version of :mod:`repro.client` did) gets ``Connection: close``."""
        with urllib.request.urlopen(server.url + "/v1/healthz") as resp:
            assert resp.headers["Connection"] == "close"
            assert json.loads(resp.read())["ok"] is True

    def test_idle_connection_closed(self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "LONG_POLL_CAP_S", 0.2)
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            with _connect(srv) as sock:
                assert _exchange(sock, HEALTHZ)[:2] == (200, "keep-alive")
                t0 = time.monotonic()
                assert _closed_by_server(sock)
                assert time.monotonic() - t0 < 10.0
        finally:
            srv.stop()

    def test_stop_closes_connections_cleanly(self, tmp_path, caplog):
        """An idle kept-alive connection does not hold up ``stop()``,
        and ending it logs nothing (no cancelled handler)."""
        srv = Server(cache_dir=tmp_path, port=0).start()
        with caplog.at_level(logging.ERROR, logger="asyncio"), _connect(
            srv
        ) as sock:
            assert _exchange(sock, HEALTHZ)[0] == 200
            t0 = time.monotonic()
            srv.stop()
            assert time.monotonic() - t0 < 10.0
            assert _closed_by_server(sock)
        assert not caplog.records


class TestWire:
    def test_grid_expansion_matches_local_walk(self):
        specs = expand_sweep_request(
            {
                "schema": SERVE_SCHEMA,
                "configs": ["pthread", "msa-omu-2"],
                "workloads": ["canneal", "swaptions"],
                "cores": [4, 8],
                "scale": 0.1,
            }
        )
        walk = [(s.cores, s.workload, s.config) for s in specs]
        assert walk == [
            (n, w, c)
            for n in (4, 8)
            for w in ("canneal", "swaptions")
            for c in ("pthread", "msa-omu-2")
        ]

    def test_sweep_id_is_order_independent(self):
        assert sweep_id(["b", "a"]) == sweep_id(["a", "b"])
        assert sweep_id(["a"]) != sweep_id(["a", "b"])

    def test_specs_key_like_local_sweeps(self):
        """Server-side keys must match local ``api.sweep`` keys (the
        shared-cache-namespace contract)."""
        from repro.harness.jobs import JobSpec, resolve_factory

        [spec] = expand_sweep_request(dict(POINT, schema=SERVE_SCHEMA))
        local = JobSpec(
            config="pthread",
            workload="canneal",
            cores=4,
            scale=0.1,
            seed=7,
            factory=resolve_factory("canneal"),
        )
        assert spec.key() == local.key()


def _post_raw(url, path, body: bytes):
    """POST ``body`` as is; returns (status, parsed answer)."""
    req = urllib.request.Request(url + path, data=body)
    try:
        with urllib.request.urlopen(req, timeout=120) as resp:
            return resp.status, json.loads(resp.read().decode())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read().decode())


class TestSubmitMemo:
    """A body submitted before is answered from the memo of what it
    expanded to, and a done point's result from its verified bytes."""

    def test_resubmissions_expand_once(self, server, finished_sweep,
                                       monkeypatch):
        from repro.serve import wire

        sid, _ = finished_sweep
        calls = []
        expand = wire.expand_sweep_request
        monkeypatch.setattr(
            wire, "expand_sweep_request",
            lambda data: calls.append(1) or expand(data),
        )
        # Other bytes than the fixture's body: not in the memo yet.
        body = json.dumps(dict(POINT, schema=SERVE_SCHEMA), indent=1)
        answers = [
            _post_raw(server.url, "/v1/sweeps", body.encode())
            for _ in range(5)
        ]
        assert len(calls) == 1
        for status, doc in answers:
            assert status == 202 and doc["id"] == sid
            assert (doc["created_jobs"], doc["deduped_jobs"]) == (0, 1)
        assert all(doc == answers[0][1] for _, doc in answers)

    def test_malformed_bodies_400_and_are_not_memoised(self, tmp_path,
                                                       monkeypatch):
        from repro.serve import wire

        calls = []
        expand = wire.expand_sweep_request
        monkeypatch.setattr(
            wire, "expand_sweep_request",
            lambda data: calls.append(1) or expand(data),
        )
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            bad = [
                b"{not json",
                b"\xff\xfe",
                json.dumps(dict(POINT, schema=SERVE_SCHEMA,
                                configs=["no-such"])).encode(),
                json.dumps(dict(POINT, schema=SERVE_SCHEMA,
                                params={"no.such": 1})).encode(),
            ]
            for _ in range(3):
                for body in bad:
                    status, doc = _post_raw(srv.url, "/v1/sweeps", body)
                    assert status == 400 and doc["error"], body
            # The two bodies that parse reach expansion every time.
            assert len(calls) == 2 * 3
            assert srv._expanded == {} and srv._expanded_points == 0
        finally:
            srv.stop()

    def test_memo_is_bounded_by_points(self, tmp_path, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "SUBMIT_MEMO_POINTS", 5)
        srv = Server(cache_dir=tmp_path)  # expansion needs no socket

        def body(configs, seed=7):
            return json.dumps(dict(
                POINT, schema=SERVE_SCHEMA, configs=configs, seed=seed,
            )).encode()

        bodies = [
            body(["pthread"], seed) for seed in range(4)
        ] + [
            body(["pthread", "msa-omu-2"]),
            body(["pthread", "msa-omu-2", "msa0"], 1),
            body(["pthread"], 0),
            body(["pthread", "msa-omu-2", "msa0", "msa-omu-1",
                  "ideal", "spinlock"]),
        ]
        for raw in bodies:
            specs, keys, sid, record = srv._expand(raw)
            assert sid == sweep_id(keys) and record["id"] == sid
            held = sum(len(found[0]) for found in srv._expanded.values())
            assert held == srv._expanded_points <= 5
        # Six points never fit; the last bodies in, most recent last.
        assert bodies[-1] not in srv._expanded
        assert list(srv._expanded)[-1] == bodies[-2]

    def test_cached_answer_matches_parsed_results(self, server,
                                                  finished_sweep):
        """A resubmission's answer reads as the parse-and-re-encode
        answer did: each result is the entry's result, statuses and
        counts are the sweep's, and the fetched RunResult serializes
        like a local run of the point."""
        from repro.client import Client
        from repro.harness.jobs import ResultCache, execute_spec

        sid, _ = finished_sweep
        status, doc = _post(
            server.url, "/v1/sweeps", dict(POINT, schema=SERVE_SCHEMA)
        )
        [job] = doc["jobs"]
        cache = ResultCache(server.cache_dir)
        stored = json.loads(cache.path(job["key"]).read_bytes())["result"]
        assert status == 202 and doc["id"] == sid
        assert (doc["created_jobs"], doc["deduped_jobs"]) == (0, 1)
        assert doc["done"] and doc["ok"] and doc["counts"] == {"done": 1}
        assert (job["status"], job["error"]) == ("done", None)
        assert job["result"] == stored
        _, body = _get(server.url, f"/v1/jobs/{job['key']}")
        assert json.loads(body)["result"] == stored

        client = Client(server.url)
        assert client.submit(**POINT) == sid
        [point] = client.fetch(sid)
        [spec] = expand_sweep_request(dict(POINT, schema=SERVE_SCHEMA))
        assert point.result.to_json() == execute_spec(spec).to_json()


class TestAnswerSplice:
    """``_json`` splices results held as bytes into the answer; what it
    sends parses to what dumping the parsed results would send."""

    RESULT = {"cycles": 12, "m": {"a": 1.5e-05, "b": [1, 2]}, "s": "x"}

    def old(self, doc):
        def parsed(value):
            return json.loads(value) if isinstance(value, bytes) else value

        return json.loads(json.dumps(doc, sort_keys=True, default=parsed))

    def raw(self):
        return json.dumps(self.RESULT, sort_keys=True,
                          separators=(",", ":")).encode()

    def test_sweep_document(self):
        from repro.serve.server import _json

        tricky = 'x", "result": null, "y": "\\"result": 1'
        doc = {
            "schema": SERVE_SCHEMA, "id": "s", "done": True,
            "counts": {"done": 2, "quarantined": 1},
            "jobs": [
                {"key": "a", "error": tricky, "result": self.raw()},
                {"key": "b", "status": "quarantined", "error": "boom"},
                {"key": "c", "error": None, "result": None},
                {"key": "d", "error": "result", "result": self.raw()},
            ],
            "created_jobs": 0, "deduped_jobs": 3,
        }
        status, payload, kind = _json(202, doc)
        assert (status, kind) == (202, "application/json")
        sent = json.loads(payload)
        assert sent == self.old(doc)
        assert sent["jobs"][0]["result"] == self.RESULT
        assert sent["jobs"][0]["error"] == tricky
        assert self.raw() in payload

    def test_job_document(self):
        from repro.serve.server import _json

        doc = {"schema": SERVE_SCHEMA, "key": "a", "describe": "result",
               "status": "done", "result": self.raw()}
        assert json.loads(_json(200, doc)[1]) == self.old(doc)

    def test_record_field_with_its_own_result_key(self):
        """A field that holds a ``result`` key of its own (a sweep
        record edited by hand) falls back to dumping parsed results."""
        from repro.serve.server import _json

        doc = {"id": "s", "jobs": [
            {"key": "a", "config": {"result": 3}, "result": self.raw()},
        ]}
        expected = self.old(doc)
        assert json.loads(_json(200, doc)[1]) == expected


class TestPushWakeups:
    """Waiting is pushed: with the status re-check and the executor's
    idle re-check both stretched to 30 s, a fresh point still finishes
    within seconds, because the submission wakes the executor and the
    completion wakes the long-poll or SSE stream."""

    @pytest.fixture
    def slow_backstops(self, monkeypatch):
        from repro.serve import server as server_module

        monkeypatch.setattr(server_module, "WATCH_POLL_S", 30.0)
        monkeypatch.setattr(server_module, "DEFAULT_POLL_S", 30.0)

    def _fresh_point(self, tmp_path, path_suffix, workers=1):
        srv = Server(cache_dir=tmp_path, port=0, workers=workers).start()
        try:
            t0 = time.monotonic()
            _, doc = _post(
                srv.url, "/v1/sweeps", dict(POINT, schema=SERVE_SCHEMA)
            )
            assert doc["created_jobs"] == 1
            _, body = _get(srv.url, f"/v1/sweeps/{doc['id']}{path_suffix}")
            return body.decode(), time.monotonic() - t0
        finally:
            srv.stop()

    def test_long_poll_woken_by_completion(self, tmp_path, slow_backstops):
        body, elapsed = self._fresh_point(tmp_path, "?wait=60")
        assert json.loads(body)["done"]
        assert elapsed < 10.0

    def test_sse_woken_by_completion(self, tmp_path, slow_backstops):
        body, elapsed = self._fresh_point(tmp_path, "?stream=sse")
        assert body.rstrip().endswith("event: done\ndata: {}")
        progress = [
            json.loads(line[len("data: "):])
            for line in body.splitlines()
            if line.startswith("data: {\"")
        ]
        assert progress[-1]["done"] and progress[-1]["ok"]
        assert elapsed < 10.0

    def test_pooled_long_poll_woken_by_completion(
        self, tmp_path, slow_backstops
    ):
        body, elapsed = self._fresh_point(tmp_path, "?wait=60", workers=2)
        assert json.loads(body)["done"]
        assert elapsed < 10.0

    def test_concurrent_long_polls_lose_no_wakeup(
        self, tmp_path, slow_backstops
    ):
        """Eight clients, each submitting and long-polling its own
        fresh point, with a tiny thread switch interval: every one is
        woken long before the 30 s backstop would fire."""
        srv = Server(cache_dir=tmp_path, port=0).start()
        results, errors = [], []

        def client(seed):
            try:
                t0 = time.monotonic()
                _, doc = _post(
                    srv.url,
                    "/v1/sweeps",
                    dict(POINT, schema=SERVE_SCHEMA, seed=seed),
                )
                _, body = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
                results.append(
                    (json.loads(body)["done"], time.monotonic() - t0)
                )
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=client, args=(100 + i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            srv.stop()
        assert not errors
        assert len(results) == 8
        assert all(done and elapsed < 20.0 for done, elapsed in results)


class TestConcurrentDedup:
    def test_two_clients_one_execution_per_point(self, tmp_path):
        """The single-execution acceptance bar: two clients racing the
        same two-point sweep produce exactly one store row and one
        execution per point -- proved by the store's lifetime counters,
        not by timing."""
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            body = {
                "schema": SERVE_SCHEMA,
                "configs": ["pthread", "msa-omu-2"],
                "workloads": ["canneal"],
                "cores": [4],
                "scale": 0.1,
                "seed": 7,
            }
            docs, errors = [], []

            def client():
                try:
                    docs.append(_post(srv.url, "/v1/sweeps", body)[1])
                except Exception as exc:  # pragma: no cover - diagnostic
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert not errors
            assert docs[0]["id"] == docs[1]["id"]
            # Between the two submissions: every point created once.
            created = sum(d["created_jobs"] for d in docs)
            deduped = sum(d["deduped_jobs"] for d in docs)
            assert created == 2 and deduped == 2

            _get(srv.url, f"/v1/sweeps/{docs[0]['id']}?wait=120")
            store = JobStore(default_store_path(tmp_path))
            try:
                counters = store.counters()
            finally:
                store.close()
            assert counters["enqueued"] == 2
            assert counters["done"] == 2
            assert counters.get("retries", 0) == 0
        finally:
            srv.stop()

    def test_point_repeated_in_one_submission_is_created_once(self, tmp_path):
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            body = dict(POINT, schema=SERVE_SCHEMA, configs=["pthread"] * 2)
            _, doc = _post(srv.url, "/v1/sweeps", body)
            assert (doc["created_jobs"], doc["deduped_jobs"]) == (1, 1)
            _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=120")
            _, doc = _post(srv.url, "/v1/sweeps", body)
            assert (doc["created_jobs"], doc["deduped_jobs"]) == (0, 2)
        finally:
            srv.stop()


class TestSweepRecords:
    def test_terminal_sweeps_are_evicted_and_reloaded(self, tmp_path):
        """Finished sweeps leave the server's memory; their records on
        disk still answer status requests."""
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            sids = []
            for seed in range(200, 250):
                _, doc = _post(
                    srv.url,
                    "/v1/sweeps",
                    dict(POINT, schema=SERVE_SCHEMA, seed=seed),
                )
                _, body = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
                assert json.loads(body)["done"]
                sids.append(doc["id"])
            assert len(srv._sweeps) == 0
            _, body = _get(srv.url, f"/v1/sweeps/{sids[0]}")
            doc = json.loads(body)
            assert doc["id"] == sids[0]
            assert doc["done"] and doc["ok"] and doc["total"] == 1
            assert doc["jobs"][0]["seed"] == 200
            assert len(srv._sweeps) == 0
            _, body = _get(srv.url, "/v1/sweeps")
            assert len(json.loads(body)["sweeps"]) == 50
            assert len(srv._sweeps) == 0
        finally:
            srv.stop()

    def test_byte_flipped_entry_is_requeued(self, tmp_path):
        """A resubmitted point whose cache entry fails its checksum is
        missing, not deduped: it runs again and its entry is whole."""
        from repro.harness.jobs import ResultCache

        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            body = dict(POINT, schema=SERVE_SCHEMA)
            _, doc = _post(srv.url, "/v1/sweeps", body)
            _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
            key = doc["jobs"][0]["key"]
            cache = ResultCache(tmp_path)
            path = cache.path(key)
            data = bytearray(path.read_bytes())
            at = re.search(rb'"cycles": ?', data).end()
            data[at] = ord("9") if data[at] != ord("9") else ord("8")
            path.write_bytes(bytes(data))
            assert cache.read(key) is None

            _, doc = _post(srv.url, "/v1/sweeps", body)
            assert (doc["created_jobs"], doc["deduped_jobs"]) == (1, 0)
            assert srv.counters["jobs_requeued"] == 1
            _, raw = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
            assert json.loads(raw)["ok"]
            assert cache.read(key) is not None
        finally:
            srv.stop()

    def test_resubmitted_quarantined_point_answers_pending(self, tmp_path):
        """Resubmission re-pends a quarantined row with a fresh attempt
        budget, and the submit answer says so without rereading it."""
        srv = Server(cache_dir=tmp_path, port=0).start()
        try:
            body = dict(POINT, schema=SERVE_SCHEMA)
            _, doc = _post(srv.url, "/v1/sweeps", body)
            _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
            key = doc["jobs"][0]["key"]
            store = JobStore(default_store_path(tmp_path))
            try:
                with store._transaction() as db:
                    db.execute(
                        "UPDATE jobs SET status='quarantined', attempts=3,"
                        " error='boom' WHERE key=?",
                        (key,),
                    )
            finally:
                store.close()

            _, doc = _post(srv.url, "/v1/sweeps", body)
            job = doc["jobs"][0]
            assert (job["status"], job["attempts"], job["error"]) == (
                "pending", 0, None
            )
            assert (doc["created_jobs"], doc["deduped_jobs"]) == (0, 1)
            _, raw = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
            assert json.loads(raw)["ok"]
        finally:
            srv.stop()


@pytest.mark.slow
class TestCrashRecovery:
    def test_sigkill_server_restart_converges(self, tmp_path):
        """SIGKILL ``python -m repro serve`` mid-sweep; a fresh server
        on the same cache directory finishes the sweep (expired leases
        are reclaimed) and fsck finds nothing to repair."""
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cache-dir", str(tmp_path), "--port", "0", "--lease", "2",
            ],
            cwd=Path(__file__).resolve().parents[1],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            discovery = tmp_path / "serve.json"
            deadline = time.time() + 30
            while not discovery.exists() and time.time() < deadline:
                time.sleep(0.1)
            url = json.loads(discovery.read_text())["url"]
            body = {
                "schema": SERVE_SCHEMA,
                "configs": ["pthread", "msa-omu-2", "msa-omu-4"],
                "workloads": ["canneal"],
                "cores": [4],
                "scale": 0.1,
                "seed": 7,
            }
            status, doc = _post(url, "/v1/sweeps", body)
            assert status == 202 and doc["created_jobs"] == 3
        finally:
            proc.kill()
            proc.wait(timeout=30)

        srv = Server(cache_dir=tmp_path, port=0, lease_s=2.0).start()
        try:
            _, raw = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=120")
            final = json.loads(raw)
            while not final["done"]:
                _, raw = _get(srv.url, f"/v1/sweeps/{doc['id']}?wait=60")
                final = json.loads(raw)
            assert final["ok"], final["jobs"]
        finally:
            srv.stop()

        from repro.resilience import fsck

        report = fsck(tmp_path)
        assert report.ok
        assert report.healthy_entries == 3
