"""The ``repro serve`` asyncio HTTP/JSON experiment service.

One long-running process owns a result cache, the durable SQLite job
store next to it, and a supervised execution fleet; any number of
clients (:mod:`repro.client`, dashboards, CI, ``curl``) submit sweeps
and read results over HTTP.  Everything below the HTTP layer is the
*existing* engine substrate: submissions become
:class:`~repro.harness.jobs.JobSpec` rows in the
:class:`~repro.resilience.store.JobStore`, execution runs through
:class:`~repro.resilience.supervise.WorkerLoop` /
:class:`~repro.resilience.supervise.WorkerPool` (leases, heartbeats,
watchdogs, quarantine -- all reused), and results land in the
content-addressed :class:`~repro.harness.jobs.ResultCache`, so a
result fetched over HTTP is byte-identical to the same point run
locally.

Endpoints (all JSON unless noted; see docs/SERVICE.md):

=====================  ====================================================
``POST /v1/sweeps``     submit a sweep (grid or explicit job list); 202
                        with the sweep's status document
``GET /v1/sweeps``      list known sweeps
``GET /v1/sweeps/{id}`` sweep status; ``?wait=S`` long-polls until done
                        (capped), ``?stream=sse`` streams progress as
                        Server-Sent Events
``GET /v1/jobs/{key}``  one job's status and (when done) its RunResult
``GET /v1/healthz``     liveness + job-status totals
``GET /v1/metrics``     Prometheus text format (server, store, cache)
``GET /v1/report``      the cache-only HTML sweep report (``?baseline=``)
=====================  ====================================================

Dedup is structural: a job's identity is its content hash
(:meth:`JobSpec.key`), a sweep's identity is a hash over its job keys,
and :meth:`JobStore.enqueue` is idempotent -- two clients submitting
the same sweep concurrently create each row exactly once and each
point executes exactly once.  Crash-safety is inherited from the
store/cache contracts: SIGKILL the server mid-sweep, restart it on the
same cache directory, and the sweep converges (expired leases are
reclaimed, finished points are already durable).

Waiting is pushed, not polled.  A submission that creates or re-pends
a job sets the executor's wake event, so an idle executor claims it at
once.  Each finished point wakes the event loop
(``loop.call_soon_threadsafe``), which releases every ``?wait``
long-poll and SSE stream to re-read the status.  The store is still the
only source of truth: a wake-up only says "look again", and the
``WATCH_POLL_S`` / ``DEFAULT_POLL_S`` re-checks stay as a backstop for
changes made outside this process (lease expiry, another server on the
same cache directory, pool children).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import pickle
import signal
import threading
import time
from pathlib import Path
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common import config as repro_config
from repro.common.errors import ConfigError, SchemaError, ServiceError
from repro.common.schema import SERVE_SCHEMA, check_schema
from repro.harness.jobs import ResultCache, _atomic_write_json
from repro.resilience.store import JobStore, default_store_path
from repro.resilience.supervise import DEFAULT_POLL_S, WorkerLoop, WorkerPool
from repro.serve import wire

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Largest accepted request body (a sweep submission is small).
MAX_BODY_BYTES = 8 << 20
#: ``?wait=`` long-polls are capped at this many seconds per request
#: (clients re-issue; an unbounded wait would pin a dead client's
#: connection forever).
LONG_POLL_CAP_S = 60.0
#: Longest a long-poll or SSE stream goes without re-reading status.
#: Completions in this process wake them at once; the re-check catches
#: changes made by other processes sharing the store.
WATCH_POLL_S = 0.1

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    500: "Internal Server Error",
}


class _NotFound(Exception):
    """Route-level 404 (unknown sweep/job/path)."""


class Server:
    """The experiment service (see module docstring).

    ``cache_dir`` (or ``REPRO_CACHE_DIR``) is mandatory: the cache and
    the job store next to it *are* the service's shared state --
    everything else (sweep records under ``<cache_dir>/sweeps/``,
    worker leases) hangs off it, which is what makes a SIGKILLed server
    resumable by simply starting a new one on the same directory.

    ``workers`` > 1 executes through a supervised multiprocess
    :class:`WorkerPool` per batch; otherwise a single in-process
    :class:`WorkerLoop` claims jobs continuously.  Either way an idle
    executor sleeps on a wake event that submissions set, re-checking
    the store every ``DEFAULT_POLL_S`` for work enqueued elsewhere.
    Use :meth:`start` / :meth:`stop` for embedding (tests),
    :meth:`serve_forever` for the CLI (installs SIGTERM/SIGINT handlers
    for a clean shutdown).
    """

    def __init__(
        self,
        cache_dir=None,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        workers: Optional[int] = None,
        retries: int = 1,
        lease_s: float = 30.0,
        point_timeout_s: Optional[float] = None,
        seed: int = 0,
    ):
        cache_dir = repro_config.cache_dir(cache_dir)
        if cache_dir is None:
            raise ConfigError(
                "repro serve needs a cache directory (--cache-dir or "
                "REPRO_CACHE_DIR): the result cache and job store are "
                "the service's durable state"
            )
        self.cache_dir = Path(cache_dir).expanduser()
        self.host = host
        self.port = port
        workers = repro_config.workers(workers)
        self.workers = max(1, workers if workers is not None else 1)
        self.retries = retries
        self.lease_s = lease_s
        self.point_timeout_s = point_timeout_s
        self.seed = seed

        #: Service-level counters, exported at ``/v1/metrics`` under
        #: the ``serve.`` prefix (the job store's lifetime counters --
        #: which prove dedup and reclamation -- ride under ``store.``).
        self.counters: Dict[str, int] = {
            "http_requests": 0,
            "http_errors": 0,
            "sweeps_submitted": 0,
            "sweeps_deduped": 0,
            "jobs_enqueued": 0,
            "jobs_deduped": 0,
            "jobs_requeued": 0,
        }

        self._stop = threading.Event()
        #: Set when there is new work to claim (or on stop).
        self._wake = threading.Event()
        #: Set (on the event loop) when a job may have changed status;
        #: replaced by a fresh event each time, so a waiter that took
        #: the current one before reading status cannot miss a change.
        self._changed: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._boot_error: Optional[BaseException] = None
        self._thread: Optional[threading.Thread] = None
        self._exec_thread: Optional[threading.Thread] = None
        self._started_at: Optional[float] = None
        self._front: Optional[JobStore] = None
        self._front_cache: Optional[ResultCache] = None
        #: Records of open sweeps by id.  A record is dropped the first
        #: time its status reads terminal; ``sweeps/<id>.json`` keeps it.
        self._sweeps: Dict[str, Dict] = {}

    # ------------------------------------------------------------------
    # Paths / identity
    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    @property
    def store_path(self) -> Path:
        return default_store_path(self.cache_dir)

    @property
    def sweeps_dir(self) -> Path:
        return self.cache_dir / "sweeps"

    @property
    def discovery_path(self) -> Path:
        """``<cache_dir>/serve.json``: where a live server advertises
        its URL and pid, so clients sharing the cache directory can
        find it without out-of-band configuration."""
        return self.cache_dir / "serve.json"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Server":
        """Start the HTTP thread and the executor; returns once the
        socket is bound (``self.port`` is then the real port, even when
        constructed with port 0)."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve-http", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._boot_error is not None:
            raise self._boot_error
        if not self._ready.is_set():
            raise ServiceError("repro serve failed to start within 30s")
        return self

    def stop(self) -> None:
        """Stop accepting requests, let the executor finish its current
        point, and join both threads."""
        self._stop.set()
        self._wake.set()
        self._notify()
        if self._exec_thread is not None:
            self._exec_thread.join(timeout=60.0)
        if self._thread is not None:
            self._thread.join(timeout=30.0)

    def serve_forever(self, on_ready=None) -> None:
        """CLI entry: run until SIGTERM/SIGINT, then shut down cleanly
        (previous signal dispositions are restored on exit).
        ``on_ready(self)`` fires once the socket is bound -- i.e. after
        ``port=0`` has resolved to the real port."""
        previous = {}
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(
                signum, lambda *_: self._stop.set()
            )
        try:
            self.start()
            if on_ready is not None:
                on_ready(self)
            while not self._stop.wait(0.2):
                if self._thread is not None and not self._thread.is_alive():
                    break
        finally:
            self.stop()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # surfaced by start()
            self._boot_error = exc
        finally:
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._changed = asyncio.Event()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self._front = JobStore(
            self.store_path,
            lease_s=self.lease_s,
            quarantine_after=self.retries + 1,
        )
        self._front_cache = ResultCache(self.cache_dir)
        server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = server.sockets[0].getsockname()[1]
        self._started_at = time.time()
        _atomic_write_json(
            self.discovery_path,
            {
                "schema": SERVE_SCHEMA,
                "url": self.url,
                "host": self.host,
                "port": self.port,
                "pid": os.getpid(),
            },
        )
        self._exec_thread = threading.Thread(
            target=self._executor_main, name="repro-serve-exec", daemon=True
        )
        self._exec_thread.start()
        self._ready.set()
        try:
            async with server:
                while not self._stop.is_set():
                    await asyncio.sleep(0.05)
        finally:
            self._front.close()
            with contextlib.suppress(OSError):
                self.discovery_path.unlink()

    # ------------------------------------------------------------------
    # Wake-ups (best effort: the store stays the source of truth)
    # ------------------------------------------------------------------
    def _notify(self, *_) -> None:
        """From any thread: wake every long-poll and SSE stream.  A loop
        that has not started or is already closed is ignored."""
        loop = self._loop
        if loop is not None:
            with contextlib.suppress(RuntimeError):
                loop.call_soon_threadsafe(self._changed_now)

    def _changed_now(self) -> None:
        self._changed.set()
        self._changed = asyncio.Event()

    # ------------------------------------------------------------------
    # Execution backend (reuses the resilience substrate wholesale)
    # ------------------------------------------------------------------
    def _executor_main(self) -> None:
        store = JobStore(
            self.store_path,
            lease_s=self.lease_s,
            quarantine_after=self.retries + 1,
        )
        cache = ResultCache(self.cache_dir)
        try:
            if self.workers > 1:
                self._executor_pooled(store, cache)
            else:
                self._executor_inline(store, cache)
        finally:
            store.close()

    def _executor_inline(self, store: JobStore, cache: ResultCache) -> None:
        """Single in-process worker: claim anything claimable, forever.
        The same :class:`WorkerLoop` the engine's serial path uses, so
        leases, heartbeats, backoff, quarantine, and per-point
        watchdogs all behave identically."""
        loop = WorkerLoop(
            store,
            cache,
            keys=None,
            seed=self.seed,
            point_timeout_s=self.point_timeout_s,
            on_complete=self._notify,
        )
        try:
            while not self._stop.is_set():
                # Clear before claiming: a submission after a failed
                # claim leaves the event set, so the wait below returns
                # at once.
                self._wake.clear()
                if loop.run_one() is None:
                    self._wake.wait(DEFAULT_POLL_S)
        finally:
            loop.release()

    def _executor_pooled(self, store: JobStore, cache: ResultCache) -> None:
        """Multiprocess execution: batches of open jobs run through a
        supervised :class:`WorkerPool` (bounded batches keep shutdown
        latency bounded); whatever a pool leaves behind (restart budget
        exhausted) drains in-process so points are never stranded."""
        batch_cap = max(8, 4 * self.workers)
        while not self._stop.is_set():
            self._wake.clear()
            batch = store.open_keys(limit=batch_cap)
            if not batch:
                self._wake.wait(DEFAULT_POLL_S)
                continue
            pool = WorkerPool(
                store,
                cache.root,
                workers=self.workers,
                lease_s=self.lease_s,
                quarantine_after=self.retries + 1,
                seed=self.seed,
                point_timeout_s=self.point_timeout_s,
                on_terminal=self._notify,
            )
            pool.run(batch)
            if store.open_jobs(batch):
                WorkerLoop(
                    store,
                    cache,
                    keys=batch,
                    seed=self.seed,
                    point_timeout_s=self.point_timeout_s,
                    on_complete=self._notify,
                ).drain()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:
                return
            method, path, query, body = request
            self.counters["http_requests"] += 1
            try:
                await self._route(method, path, query, body, writer)
            except (ConfigError, SchemaError) as exc:
                await self._send_json(writer, 400, wire.error_doc(str(exc)))
            except _NotFound as exc:
                await self._send_json(writer, 404, wire.error_doc(str(exc)))
            except Exception as exc:
                self.counters["http_errors"] += 1
                await self._send_json(
                    writer,
                    500,
                    wire.error_doc(f"{type(exc).__name__}: {exc}"),
                )
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.LimitOverrunError,
        ):
            pass
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
        line = await reader.readline()
        if not line:
            return None
        parts = line.decode("latin-1").split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        headers: Dict[str, str] = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > MAX_BODY_BYTES:
            raise ConfigError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length > 0 else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items() if v
        }
        return method, split.path.rstrip("/") or "/", query, body

    async def _send(
        self, writer, status: int, payload: bytes, content_type: str
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    async def _send_json(self, writer, status: int, doc: Dict) -> None:
        await self._send(
            writer,
            status,
            json.dumps(doc, sort_keys=True).encode(),
            "application/json",
        )

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(self, method, path, query, body, writer) -> None:
        if path in ("/v1/healthz", "/healthz"):
            self._require(method, "GET")
            await self._send_json(writer, 200, self._health_doc())
        elif path == "/v1/metrics":
            self._require(method, "GET")
            await self._send(
                writer,
                200,
                self._metrics_text().encode(),
                "text/plain; version=0.0.4",
            )
        elif path == "/v1/report":
            self._require(method, "GET")
            await self._send(
                writer, 200, self._report_html(query).encode(), "text/html"
            )
        elif path == "/v1/sweeps":
            if method == "POST":
                status, doc = self._submit(body)
                await self._send_json(writer, status, doc)
            else:
                self._require(method, "GET")
                await self._send_json(writer, 200, self._sweep_list())
        elif path.startswith("/v1/sweeps/"):
            self._require(method, "GET")
            record = self._load_record(path[len("/v1/sweeps/"):])
            if query.get("stream") == "sse":
                await self._stream_sweep(writer, record)
            else:
                await self._poll_sweep(writer, record, query)
        elif path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            await self._send_json(
                writer, 200, self._job_doc(path[len("/v1/jobs/"):])
            )
        else:
            raise _NotFound(
                f"no route for {path!r}; see docs/SERVICE.md for the "
                "endpoint list"
            )

    @staticmethod
    def _require(method: str, expected: str) -> None:
        if method != expected:
            raise _NotFound(f"method {method} not allowed here")

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _submit(self, body: bytes) -> Tuple[int, Dict]:
        try:
            data = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            raise ConfigError("request body is not valid JSON") from None
        specs = wire.expand_sweep_request(data)
        store, cache = self._front, self._front_cache
        keys = [spec.key() for spec in specs]
        prior = {row.key: row.status for row in store.rows(keys)}
        created_jobs = 0
        wake = False
        for key in keys:
            status = prior.get(key)
            # A key repeated within the submission dedups against its
            # first occurrence.
            prior[key] = "repeat"
            if status is None:
                created_jobs += 1
                self.counters["jobs_enqueued"] += 1
                wake = True
            elif status == "done" and not cache.has(key):
                # The row claims completion but the cached bytes are
                # gone (fsck eviction after corruption): resubmission
                # is an explicit request for the result, so re-run.
                store.requeue(key)
                created_jobs += 1
                self.counters["jobs_requeued"] += 1
                wake = True
            else:
                self.counters["jobs_deduped"] += 1
                # enqueue_many below re-pends a quarantined row.
                wake = wake or status == "quarantined"
        store.enqueue_many(
            [
                (key, spec.describe(), _spec_blob(spec))
                for key, spec in zip(keys, specs)
            ]
        )
        if wake:
            self._wake.set()
        sid = wire.sweep_id(keys)
        record = wire.sweep_record(sid, specs, keys)
        path = self.sweeps_dir / f"{sid}.json"
        if path.exists():
            self.counters["sweeps_deduped"] += 1
        else:
            _atomic_write_json(path, record)
            self.counters["sweeps_submitted"] += 1
        doc = self._sweep_status(record)
        doc["created_jobs"] = created_jobs
        doc["deduped_jobs"] = len(keys) - created_jobs
        return 202, doc

    def _load_record(self, sid: str) -> Dict:
        """A sweep's record: from memory while the sweep is open, else
        from ``sweeps/<id>.json``."""
        record = self._sweeps.get(sid)
        if record is None:
            try:
                record = json.loads(
                    (self.sweeps_dir / f"{sid}.json").read_text()
                )
                check_schema(record.get("schema"), SERVE_SCHEMA, "service")
            except (OSError, ValueError):
                raise _NotFound(f"unknown sweep {sid!r}") from None
        return record

    def _sweep_status(self, record: Dict) -> Dict:
        """A sweep's status document.  Keeps the record in memory while
        the sweep is open and drops it once every job is terminal; the
        record on disk stays, and :meth:`_load_record` rereads it."""
        jobs_in = record["jobs"]
        rows = {
            r.key: r
            for r in self._front.rows([j["key"] for j in jobs_in])
        }
        jobs, counts = [], {}
        for entry in jobs_in:
            row = rows.get(entry["key"])
            if row is not None:
                status, attempts, error = row.status, row.attempts, row.error
            elif self._front_cache.has(entry["key"]):
                # Store rebuilt (corruption) but the result survives.
                status, attempts, error = "done", 0, None
            else:
                status, attempts, error = "unknown", 0, None
            counts[status] = counts.get(status, 0) + 1
            jobs.append(
                dict(entry, status=status, attempts=attempts, error=error)
            )
        done_ok = counts.get("done", 0)
        terminal = done_ok + counts.get("quarantined", 0)
        if terminal == len(jobs):
            self._sweeps.pop(record["id"], None)
        else:
            self._sweeps[record["id"]] = record
        return {
            "schema": SERVE_SCHEMA,
            "id": record["id"],
            "total": len(jobs),
            "counts": counts,
            "done": terminal == len(jobs),
            "ok": done_ok == len(jobs),
            "jobs": jobs,
        }

    def _sweep_list(self) -> Dict:
        sweeps = []
        for path in sorted(self.sweeps_dir.glob("*.json")):
            try:
                doc = self._sweep_status(self._load_record(path.stem))
            except _NotFound:
                continue
            sweeps.append(
                {k: doc[k] for k in ("id", "total", "counts", "done", "ok")}
            )
        return {"schema": SERVE_SCHEMA, "sweeps": sweeps}

    def _job_doc(self, key: str) -> Dict:
        row = self._front.get(key)
        result = self._front_cache.get(key)
        if row is None and result is None:
            raise _NotFound(f"unknown job {key!r}")
        return {
            "schema": SERVE_SCHEMA,
            "key": key,
            "describe": row.describe if row is not None else "",
            "status": row.status if row is not None else "done",
            "attempts": row.attempts if row is not None else 0,
            "error": row.error if row is not None else None,
            "result": result.to_dict() if result is not None else None,
        }

    async def _poll_sweep(self, writer, record, query) -> None:
        try:
            wait_s = float(query.get("wait", "0"))
        except ValueError:
            raise ConfigError("?wait= must be a number of seconds") from None
        deadline = time.monotonic() + min(max(wait_s, 0.0), LONG_POLL_CAP_S)
        while True:
            changed = self._changed
            doc = self._sweep_status(record)
            remaining = deadline - time.monotonic()
            if doc["done"] or remaining <= 0 or self._stop.is_set():
                await self._send_json(writer, 200, doc)
                return
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    changed.wait(), min(WATCH_POLL_S, remaining)
                )

    async def _stream_sweep(self, writer, record) -> None:
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        await writer.drain()
        last = None
        while True:
            changed = self._changed
            doc = self._sweep_status(record)
            snapshot = json.dumps(doc["counts"], sort_keys=True)
            if snapshot != last:
                last = snapshot
                payload = json.dumps(doc, sort_keys=True)
                writer.write(f"event: progress\ndata: {payload}\n\n".encode())
                await writer.drain()
            if doc["done"] or self._stop.is_set():
                writer.write(b"event: done\ndata: {}\n\n")
                await writer.drain()
                return
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(changed.wait(), WATCH_POLL_S)

    def _health_doc(self) -> Dict:
        counters = self._front.counters()
        return {
            "schema": SERVE_SCHEMA,
            "ok": True,
            "version": _version(),
            "url": self.url,
            "workers": self.workers,
            "uptime_s": round(time.time() - (self._started_at or 0), 3),
            "jobs": {
                name[len("jobs_"):]: value
                for name, value in counters.items()
                if name.startswith("jobs_")
            },
        }

    def _metrics_text(self) -> str:
        from repro.obs import MetricsRegistry

        reg = MetricsRegistry()
        reg.add_counters(dict(self.counters), prefix="serve.")
        for name, value in self._front.counters().items():
            if name.startswith("jobs_"):
                reg.gauge("store." + name, value)
            else:
                reg.counter("store." + name, value)
        reg.gauge("serve.workers", self.workers)
        reg.gauge(
            "serve.uptime_seconds", time.time() - (self._started_at or 0)
        )
        return reg.to_prometheus()

    def _report_html(self, query) -> str:
        from repro.harness.sweep import add_speedups
        from repro.obs.html import render_sweep_report
        from repro.obs.report import load_cache_points

        points = load_cache_points(self.cache_dir)
        if not points:
            raise _NotFound(
                "no cached results yet; submit a sweep first "
                "(POST /v1/sweeps)"
            )
        baseline = query.get("baseline")
        if baseline:
            if not any(p.config == baseline for p in points):
                raise ConfigError(
                    f"baseline config {baseline!r} not in cache; have "
                    f"{sorted({p.config for p in points})}"
                )
            add_speedups(points, baseline)
        return render_sweep_report(
            points,
            baseline=baseline,
            title=f"repro serve report ({len(points)} cached points)",
            resilience=self._front.counters(),
        )


def _spec_blob(spec) -> Optional[bytes]:
    try:
        return pickle.dumps(spec)
    except Exception:
        return None


def _version() -> str:
    import repro

    return repro.__version__


def serve(
    cache_dir=None,
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    workers: Optional[int] = None,
    **kwargs,
) -> Server:
    """Build a :class:`Server` and run it until SIGTERM/SIGINT (the
    blocking convenience behind ``python -m repro serve``).  Returns
    the (stopped) server, whose counters the CLI prints on exit."""
    server = Server(
        cache_dir=cache_dir, host=host, port=port, workers=workers, **kwargs
    )
    server.serve_forever()
    return server
