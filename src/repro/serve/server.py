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
``GET /v1/sweeps/{id}`` sweep status (a done sweep's carries each
                        result); ``?wait=S`` long-polls until done
                        (capped), ``?stream=sse`` streams progress as
                        Server-Sent Events
``GET /v1/jobs/{key}``  one job's status and (when done) its RunResult
``GET /v1/healthz``     liveness + job-status totals
``GET /v1/metrics``     Prometheus text format (server, store, cache)
``GET /v1/report``      the cache-only HTML sweep report (``?baseline=``)
=====================  ====================================================

Dedup is structural: a job's identity is its content hash
(:meth:`JobSpec.key`), a sweep's identity is a hash over its job keys,
and enqueueing a point that is already pending or leased changes
nothing -- two clients submitting the same sweep concurrently create
each row exactly once and each point executes once (twice, to the same
bytes, only if it finishes between one submission's read of its row
and that submission's enqueue).  Crash-safety is inherited from the
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

The answer that says done carries the results: the status document of
a done sweep -- the submit answer, a plain or ``?wait`` status read --
holds each done job's cached result, read and checksum-verified once
(:meth:`ResultCache.read`) and spliced into the answer as the bytes it
is stored as, so collecting them takes no ``/v1/jobs`` request and no
result is parsed to be re-encoded.  A body submitted before is not
expanded again: the specs, keys and sweep record it yields are
remembered by its exact bytes (:data:`SUBMIT_MEMO_POINTS`), so a
resubmitted done sweep costs its rows, its cache entries and a stat of
its record.

Connections are kept alive: one connection serves requests in turn
until the client asks to close it (``Connection: close`` or HTTP/1.0),
an SSE stream ends, a request cannot be read to its end (a head past
the stream limit or an unreadable body: the 400 answer closes it), it
sits idle for ``LONG_POLL_CAP_S``, or the server stops.  Each request's
line and headers come off the stream in one read and are split by
:func:`repro.serve.wire.parse_head`, the client's parser too.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import os
import pickle
import signal
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.common import config as repro_config
from repro.common.errors import ConfigError, SchemaError, ServiceError
from repro.common.schema import SERVE_SCHEMA, check_schema
from repro.harness.jobs import ResultCache, _atomic_write
from repro.resilience.store import JobStore, default_store_path
from repro.resilience.supervise import DEFAULT_POLL_S, WorkerLoop, WorkerPool
from repro.serve import wire

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8765
#: Largest accepted request body (a sweep submission is small).
MAX_BODY_BYTES = 8 << 20
#: ``?wait=`` long-polls are capped at this many seconds per request
#: (clients re-issue; an unbounded wait would pin a dead client's
#: connection forever).  A kept-alive connection idle this long is
#: closed.
LONG_POLL_CAP_S = 60.0
#: Longest a long-poll or SSE stream goes without re-reading status.
#: Completions in this process wake them at once; the re-check catches
#: changes made by other processes sharing the store.
WATCH_POLL_S = 0.1
#: Most points the submission memo holds over all its bodies, oldest
#: used evicted first; a body of more points is not remembered.
SUBMIT_MEMO_POINTS = 256
#: Longest body the submission memo remembers (it holds the bytes).
SUBMIT_MEMO_BODY_BYTES = 64 << 10

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


class _BadRequest(Exception):
    """A request that cannot be read to its end: answered 400, then the
    connection closes (its unread rest would otherwise be parsed as the
    next request)."""


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
            "http_connections": 0,
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
        #: Submission bodies that expanded, least recently used first:
        #: body bytes -> (specs, keys, sweep id, sweep record).
        self._expanded: Dict[bytes, Tuple[List, List[str], str, Dict]] = {}
        self._expanded_points = 0
        #: Open connections (writer -> handler task), and those of them
        #: waiting for their next request (closed first at stop).
        self._connections: Dict[asyncio.StreamWriter, asyncio.Task] = {}
        self._idle: Set[asyncio.StreamWriter] = set()

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
        _atomic_write(
            self.discovery_path,
            json.dumps(
                {
                    "schema": SERVE_SCHEMA,
                    "url": self.url,
                    "host": self.host,
                    "port": self.port,
                    "pid": os.getpid(),
                },
                sort_keys=True,
            ).encode(),
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
                await self._close_connections(server)
        finally:
            self._front.close()
            with contextlib.suppress(OSError):
                self.discovery_path.unlink()

    async def _close_connections(self, server) -> None:
        """Stop accepting, then end every connection without cancelling
        its handler: idle ones are closed at once, and a request in
        flight gets its answer (long-polls and SSE streams return at
        stop) unless it takes longer than a second."""
        server.close()
        for writer in list(self._idle):
            writer.close()
        for _ in range(2):  # wait for answers, then close what is left
            if self._connections:
                await asyncio.wait(
                    list(self._connections.values()), timeout=1.0
                )
            for writer in list(self._connections):
                writer.close()

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
        latency bounded), which runs whatever its workers leave behind
        itself, so points are never stranded."""
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

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle(self, reader, writer) -> None:
        """Serve requests over one connection until it closes (see the
        module docstring for when)."""
        self.counters["http_connections"] += 1
        self._connections[writer] = asyncio.current_task()
        loop = asyncio.get_running_loop()
        try:
            while not self._stop.is_set():
                self._idle.add(writer)
                idle_close = loop.call_later(LONG_POLL_CAP_S, writer.close)
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    self.counters["http_requests"] += 1
                    await self._send(
                        writer,
                        *_json(400, wire.error_doc(str(exc))),
                        keep_alive=False,
                    )
                    return
                finally:
                    idle_close.cancel()
                    self._idle.discard(writer)
                if request is None:
                    return
                self.counters["http_requests"] += 1
                if not await self._respond(writer, *request):
                    return
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            del self._connections[writer]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _read_request(
        self, reader
    ) -> Optional[Tuple[str, str, Dict[str, str], bytes, bool]]:
        """The next request as ``(method, path, query, body,
        keep_alive)``, or ``None`` when the client has closed the
        connection or sent no request line.  The request line and the
        headers come off the stream in one read."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError:  # closed, at or inside a head
            return None
        except asyncio.LimitOverrunError:  # a head past the stream's limit
            raise _BadRequest("request line or header too long") from None
        start, headers = wire.parse_head(head)
        parts = start.split()
        if len(parts) < 2:
            return None
        method, target = parts[0].upper(), parts[1]
        if "transfer-encoding" in headers:
            raise _BadRequest(
                "Transfer-Encoding request bodies are not supported; "
                "send Content-Length"
            )
        length = headers.get("content-length", "0") or "0"
        if not (length.isascii() and length.isdigit()):
            raise _BadRequest(
                f"Content-Length {length!r} is not a non-negative integer"
            )
        length = int(length)
        if length > MAX_BODY_BYTES:
            raise _BadRequest(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        query = {
            k: v[-1] for k, v in parse_qs(split.query).items() if v
        }
        keep_alive = (
            len(parts) > 2
            and parts[2] == "HTTP/1.1"
            and "close" not in headers.get("connection", "").lower()
        )
        return method, split.path.rstrip("/") or "/", query, body, keep_alive

    async def _respond(
        self, writer, method, path, query, body, keep_alive: bool
    ) -> bool:
        """Answer one request; returns whether the connection stays
        open for the next."""
        try:
            response = await self._route(method, path, query, body, writer)
        except (ConfigError, SchemaError) as exc:
            response = _json(400, wire.error_doc(str(exc)))
        except _NotFound as exc:
            response = _json(404, wire.error_doc(str(exc)))
        except Exception as exc:
            self.counters["http_errors"] += 1
            response = _json(
                500, wire.error_doc(f"{type(exc).__name__}: {exc}")
            )
        if response is None:  # an SSE stream, which ends its connection
            return False
        await self._send(writer, *response, keep_alive=keep_alive)
        return keep_alive

    async def _send(
        self,
        writer,
        status: int,
        payload: bytes,
        content_type: str,
        keep_alive: bool,
    ) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self, method, path, query, body, writer
    ) -> Optional[Tuple[int, bytes, str]]:
        """The response to one request as ``(status, payload,
        content_type)``, or ``None`` once an SSE stream has been
        written."""
        if path in ("/v1/healthz", "/healthz"):
            self._require(method, "GET")
            return _json(200, self._health_doc())
        if path == "/v1/metrics":
            self._require(method, "GET")
            return (
                200,
                self._metrics_text().encode(),
                "text/plain; version=0.0.4",
            )
        if path == "/v1/report":
            self._require(method, "GET")
            return 200, self._report_html(query).encode(), "text/html"
        if path == "/v1/sweeps":
            if method == "POST":
                return _json(*self._submit(body))
            self._require(method, "GET")
            return _json(200, self._sweep_list())
        if path.startswith("/v1/sweeps/"):
            self._require(method, "GET")
            record = self._load_record(path[len("/v1/sweeps/"):])
            if query.get("stream") == "sse":
                await self._stream_sweep(writer, record)
                return None
            return _json(
                200, self._with_results(await self._poll_sweep(record, query))
            )
        if path.startswith("/v1/jobs/"):
            self._require(method, "GET")
            return _json(200, self._job_doc(path[len("/v1/jobs/"):]))
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
    def _expand(self, body: bytes) -> Tuple[List, List[str], str, Dict]:
        """A submission body's ``(specs, keys, sweep id, sweep record)``.
        Remembered by the body's exact bytes once it has expanded (a
        body that fails validation raises and is not), so a resubmission
        is neither parsed, validated nor keyed again."""
        memo = self._expanded
        found = memo.pop(body, None)
        if found is not None:
            memo[body] = found  # now the most recently used
            return found
        try:
            data = json.loads(body.decode() or "null")
        except (ValueError, UnicodeDecodeError):
            raise ConfigError("request body is not valid JSON") from None
        specs = wire.expand_sweep_request(data)
        keys = [spec.key() for spec in specs]
        sid = wire.sweep_id(keys)
        found = (specs, keys, sid, wire.sweep_record(sid, specs, keys))
        if (len(specs) <= SUBMIT_MEMO_POINTS
                and len(body) <= SUBMIT_MEMO_BODY_BYTES):
            self._expanded_points += len(specs)
            while self._expanded_points > SUBMIT_MEMO_POINTS:
                oldest = memo.pop(next(iter(memo)))
                self._expanded_points -= len(oldest[0])
            memo[body] = found
        return found

    def _submit(self, body: bytes) -> Tuple[int, Dict]:
        specs, keys, sid, record = self._expand(body)
        store, cache = self._front, self._front_cache
        rows = {row.key: row for row in store.rows(keys)}
        # The done rows' results, read once here and served inline.
        results: Dict[str, bytes] = {}
        # Each key's (status, attempts, error) as this request leaves
        # it, so the answer needs no second read of the rows.
        states: Dict[str, Tuple] = {}
        seen = set()
        enqueue = []
        created_jobs = 0
        for key, spec in zip(keys, specs):
            if key in seen:
                # A key repeated within the submission dedups against
                # its first occurrence.
                self.counters["jobs_deduped"] += 1
                continue
            seen.add(key)
            row = rows.get(key)
            status = row.status if row is not None else None
            result = cache.read(key) if status == "done" else None
            if result is not None:
                # A dedup hit: no spec to pickle, no row to touch.
                results[key] = result
                self.counters["jobs_deduped"] += 1
                states[key] = (status, row.attempts, row.error)
                continue
            if status is None:
                created_jobs += 1
                self.counters["jobs_enqueued"] += 1
            elif status == "done":
                # The row claims completion but the cached bytes are
                # gone (fsck eviction after corruption): the enqueue
                # re-pends it, so the point runs again.
                created_jobs += 1
                self.counters["jobs_requeued"] += 1
            else:
                self.counters["jobs_deduped"] += 1
            enqueue.append((key, spec.describe(), _spec_blob(spec)))
        wake = False
        if enqueue:
            statuses = store.enqueue_many(enqueue)
            for (key, _, _), status in zip(enqueue, statuses):
                row = rows.get(key)
                if row is None or row.terminal:
                    # Created or re-pended by this request: a fresh
                    # attempt budget.
                    states[key] = (status, 0, None)
                    wake = True
                else:
                    states[key] = (status, row.attempts, row.error)
        if wake:
            self._wake.set()
        path = self.sweeps_dir / f"{sid}.json"
        if path.exists():
            self.counters["sweeps_deduped"] += 1
        else:
            _atomic_write(path, json.dumps(record, sort_keys=True).encode())
            self.counters["sweeps_submitted"] += 1
        doc = self._with_results(self._sweep_status(record, states), results)
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

    def _sweep_status(self, record: Dict, states=None) -> Dict:
        """A sweep's status document.  Keeps the record in memory while
        the sweep is open and drops it once every job is terminal; the
        record on disk stays, and :meth:`_load_record` rereads it.
        ``states`` maps keys to ``(status, attempts, error)`` the caller
        already knows; without it the sweep's rows are read here."""
        jobs_in = record["jobs"]
        if states is None:
            states = {
                r.key: (r.status, r.attempts, r.error)
                for r in self._front.rows([j["key"] for j in jobs_in])
            }
        jobs, counts = [], {}
        for entry in jobs_in:
            state = states.get(entry["key"])
            if state is not None:
                status, attempts, error = state
            elif self._front_cache.read(entry["key"]) is not None:
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

    def _with_results(
        self, doc: Dict, results: Optional[Dict[str, bytes]] = None
    ) -> Dict:
        """``doc`` with, once the sweep is done, each done job's cached
        result as its ``result`` (``None`` if the entry is gone): the
        answer that says done carries what was waited for.  A result is
        held as its verified bytes, which :func:`_json` splices in.
        ``results`` are entries this request has already read.  Only
        documents returned as a request's answer get results -- not the
        listing, SSE events or the sweep records -- so neither memory
        nor a status read grows with result size."""
        if doc["done"]:
            results = {} if results is None else results
            for job in doc["jobs"]:
                if job["status"] == "done":
                    key = job["key"]
                    if key not in results:
                        results[key] = self._front_cache.read(key)
                    job["result"] = results[key]
        return doc

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
        result = self._front_cache.read(key)
        if row is None and result is None:
            raise _NotFound(f"unknown job {key!r}")
        return {
            "schema": SERVE_SCHEMA,
            "key": key,
            "describe": row.describe if row is not None else "",
            "status": row.status if row is not None else "done",
            "attempts": row.attempts if row is not None else 0,
            "error": row.error if row is not None else None,
            "result": result,
        }

    async def _poll_sweep(self, record, query) -> Dict:
        try:
            wait_s = float(query.get("wait", "0"))
        except ValueError:
            wait_s = math.nan
        if math.isnan(wait_s):
            raise ConfigError("?wait= must be a number of seconds")
        deadline = time.monotonic() + min(max(wait_s, 0.0), LONG_POLL_CAP_S)
        while True:
            changed = self._changed
            doc = self._sweep_status(record)
            remaining = deadline - time.monotonic()
            if doc["done"] or remaining <= 0 or self._stop.is_set():
                return doc
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


def _null(value):
    if isinstance(value, bytes):
        return None
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


#: ``json.dumps`` settings of every answer; a result held as bytes
#: encodes as ``null`` here, and :func:`_json` puts the bytes in its
#: place.
_ANSWER_JSON = json.JSONEncoder(sort_keys=True, default=_null)
_RESULT_FIELD = b'"result": '


def _json(status: int, doc: Dict) -> Tuple[int, bytes, str]:
    """An answer's ``(status, payload, content type)``.  A ``result`` --
    of a job document, or of each job of a sweep document -- that is
    held as the bytes :meth:`ResultCache.read` verified is spliced in
    unparsed.  JSON escapes every quote inside a string, so
    ``"result": `` in the dump is a key, and with sorted keys those keys
    come in the order of the holders; should the count differ (a field
    of a sweep record holding its own ``result`` key), the results are
    parsed and dumped instead."""
    jobs = doc.get("jobs")
    holders = jobs if isinstance(jobs, list) else [doc]
    fields = [h["result"] for h in holders if "result" in h]
    payload = _ANSWER_JSON.encode(doc).encode()
    if any(isinstance(field, bytes) for field in fields):
        parts = payload.split(_RESULT_FIELD)
        if len(parts) == len(fields) + 1:
            payload = parts[0] + b"".join(
                _RESULT_FIELD
                + (field + part[len(b"null"):]
                   if isinstance(field, bytes) else part)
                for field, part in zip(fields, parts[1:])
            )
        else:
            for holder in holders:
                if isinstance(holder.get("result"), bytes):
                    holder["result"] = json.loads(holder["result"])
            payload = _ANSWER_JSON.encode(doc).encode()
    return status, payload, "application/json"


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
