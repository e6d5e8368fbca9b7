"""Python client for the ``repro serve`` experiment service.

A thin stdlib-only wrapper over the versioned HTTP API of
:mod:`repro.serve`, mirroring the :mod:`repro.api` verbs::

    from repro.client import Client

    c = Client("http://127.0.0.1:8765")      # or REPRO_SERVER
    sid = c.submit(configs=["pthread", "msa-omu-2"],
                   workloads=["canneal"], cores=[16], scale=0.25)
    c.wait(sid)                               # long-polls until done
    points = c.fetch(sid)                     # List[SweepPoint]

Each thread talks to the server over one kept-alive connection, opened
directly (environment proxies are not consulted) and reopened once if
the server has closed it in between.  The client speaks just enough
HTTP/1.1 for that, without ``http.client``: each request goes out in
one write, and each response is read into one buffer, its head split
by :func:`repro.serve.wire.parse_head` (the server's own parser) and
its body framed by ``Content-Length``, by chunked coding, or by the
server closing the connection.  An ``https://`` endpoint imports
:mod:`ssl` on its first connection.  The client sends only the
requests the answer needs: it remembers the last status document it
received on each thread, so :meth:`Client.wait` on a sweep whose
submission already read done sends nothing, and :meth:`Client.fetch`
builds its points from that document, which carries each result once
the sweep is done.  A cached round trip is one request, a fresh one
two.

Results are reconstructed with :meth:`RunResult.from_dict` from the
server's cached bytes, so a fetched point serializes byte-identically
to the same point run locally -- the service changes *where* a sweep
runs, never *what* it produces.  ``repro.api.sweep(..., server=URL)``
uses this client transparently.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union
from urllib.parse import urlsplit

from repro.common import config as repro_config
from repro.common.errors import ConfigError, ServiceError
from repro.common.schema import SERVE_SCHEMA
from repro.harness.jobs import JobSpec
from repro.harness.runner import RunResult
from repro.harness.sweep import SweepPoint
from repro.serve.wire import parse_head

DEFAULT_TIMEOUT_S = 600.0
#: Per-request ``?wait=`` chunk while :meth:`Client.wait` long-polls
#: (the server caps each request; the client re-issues until done).
WAIT_CHUNK_S = 30.0
#: Largest single ``recv`` while reading a response.
_RECV_BYTES = 1 << 16


class Client:
    """One experiment-service endpoint (see module docstring).

    ``server`` falls back to the ``REPRO_SERVER`` environment knob
    (see :mod:`repro.common.config`); a missing endpoint is a
    :class:`ConfigError` at construction, not a connection error
    later.  A client may be shared by threads: each thread gets its own
    connection.  :meth:`close` (or a ``with`` block) closes the calling
    thread's connection."""

    def __init__(self, server: Optional[str] = None, timeout_s: float = DEFAULT_TIMEOUT_S):
        server = repro_config.server(server)
        if server is None:
            raise ConfigError(
                "no server endpoint: pass server= or set REPRO_SERVER "
                "(e.g. http://127.0.0.1:8765)"
            )
        self.base = str(server).rstrip("/")
        if not self.base.startswith(("http://", "https://")):
            self.base = "http://" + self.base
        split = urlsplit(self.base)
        try:
            port = split.port
        except ValueError as exc:
            raise ConfigError(
                f"bad server endpoint {self.base!r}: {exc}"
            ) from None
        self._tls = split.scheme == "https"
        self._address = (split.hostname, port or (443 if self._tls else 80))
        self._host = split.netloc.rpartition("@")[2]
        self._prefix = split.path
        self.timeout_s = timeout_s
        #: Per-sweep submission accounting from the last ``submit``
        #: of each id: ``{sid: (created_jobs, deduped_jobs)}``.
        self.submissions: Dict[str, Dict[str, int]] = {}
        #: Per thread: ``sock`` (the kept-alive connection) and
        #: ``last`` (the last status document received).
        self._local = threading.local()

    def close(self) -> None:
        """Close the calling thread's connection (the next request
        opens a new one)."""
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            sock.close()
            self._local.sock = None

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *_) -> None:
        self.close()

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    def _connect(self, timeout: float) -> socket.socket:
        """A new connection to the server, Nagle off (each request is
        one write), wrapped in TLS for an ``https://`` endpoint."""
        sock = socket.create_connection(self._address, timeout=timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if not self._tls:
            return sock
        try:
            import ssl

            return ssl.create_default_context().wrap_socket(
                sock, server_hostname=self._address[0]
            )
        except BaseException:
            sock.close()
            raise

    def _exchange(
        self, path: str, body: Optional[bytes], timeout_s: Optional[float]
    ) -> Tuple[int, bytes]:
        """One request and its response over this thread's connection.
        The request goes out in one write.  A reused connection the
        server has since closed is retried once on a fresh one: every
        request is safe to repeat (a submission is content-addressed
        and dedups)."""
        timeout = timeout_s if timeout_s is not None else self.timeout_s
        target = self._prefix + path
        if body is None:
            request = (
                f"GET {target} HTTP/1.1\r\nHost: {self._host}\r\n\r\n"
            ).encode("latin-1")
        else:
            request = (
                f"POST {target} HTTP/1.1\r\nHost: {self._host}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n"
            ).encode("latin-1") + body
        for retry in (False, True):
            sock = getattr(self._local, "sock", None)
            reused = sock is not None
            try:
                if reused:
                    sock.settimeout(timeout)
                else:
                    sock = self._local.sock = self._connect(timeout)
                sock.sendall(request)
                status, payload, keep_alive = _read_response(sock)
            except (OSError, ValueError) as exc:
                self.close()
                if reused and not retry and isinstance(exc, ConnectionError):
                    continue
                raise ServiceError(f"cannot reach {self.base}: {exc}") from None
            except BaseException:
                self.close()  # an interrupted exchange leaves it unusable
                raise
            if not keep_alive:
                self.close()
            return status, payload

    def _request(
        self,
        path: str,
        body: Optional[Dict] = None,
        timeout_s: Optional[float] = None,
    ) -> Dict:
        data = None
        if body is not None:
            data = json.dumps(body, sort_keys=True).encode()
        status, payload = self._exchange(path, data, timeout_s)
        if status >= 400:
            try:
                message = json.loads(payload.decode()).get("error", "")
            except Exception:
                message = ""
            raise ServiceError(
                f"{path}: HTTP {status}" + (f": {message}" if message else "")
            )
        return json.loads(payload.decode())

    def _request_text(self, path: str) -> str:
        status, payload = self._exchange(path, None, None)
        if status >= 400:
            raise ServiceError(f"{path}: HTTP {status}")
        return payload.decode()

    def _remember(self, doc: Dict) -> Dict:
        self._local.last = doc
        return doc

    def _known(self, sweep_id: str) -> Optional[Dict]:
        """The last status document this thread received, if it is
        ``sweep_id``'s."""
        doc = getattr(self._local, "last", None)
        return doc if doc is not None and doc["id"] == sweep_id else None

    # ------------------------------------------------------------------
    # Verbs (mirror repro.api.sweep's keywords)
    # ------------------------------------------------------------------
    def submit(
        self,
        configs: Union[str, Sequence[str]],
        workloads: Union[str, Sequence[str]],
        cores: Union[int, Sequence[int]] = (16,),
        scale: float = 1.0,
        seed: int = 2015,
        params: Optional[Dict[str, Any]] = None,
        check: bool = True,
        checkers: Sequence[str] = (),
        max_events: Optional[int] = None,
    ) -> str:
        """Submit a sweep grid; returns the sweep id (content-addressed
        -- resubmitting the same grid returns the same id and runs
        nothing that is already done or in flight)."""
        body: Dict[str, Any] = {
            "schema": SERVE_SCHEMA,
            "configs": [configs] if isinstance(configs, str) else list(configs),
            "workloads": (
                [workloads] if isinstance(workloads, str) else list(workloads)
            ),
            "cores": [cores] if isinstance(cores, int) else list(cores),
            "scale": scale,
            "seed": seed,
            "check": check,
            "checkers": list(checkers),
        }
        if params:
            body["params"] = dict(params)
        if max_events is not None:
            body["max_events"] = max_events
        doc = self._request("/v1/sweeps", body=body)
        sid = doc["id"]
        self.submissions[sid] = {
            "created_jobs": doc.pop("created_jobs", 0),
            "deduped_jobs": doc.pop("deduped_jobs", 0),
        }
        self._remember(doc)
        return sid

    def status(self, sweep_id: str) -> Dict:
        """The sweep's status document: per-job status rows, status
        counts, and the ``done``/``ok`` rollups; once the sweep is done,
        each done row carries its serialized ``result``."""
        return self._remember(self._request(f"/v1/sweeps/{sweep_id}"))

    def wait(self, sweep_id: str, timeout_s: Optional[float] = None) -> Dict:
        """Long-poll until every job is terminal; returns the final
        status document.  Raises :class:`ServiceError` on timeout or if
        any job was quarantined (its per-job ``error`` strings are in
        the message).  Sends nothing when the last status document
        received for ``sweep_id`` (e.g. the submit response) already
        reads done."""
        doc = self._known(sweep_id)
        deadline = (
            time.monotonic() + timeout_s if timeout_s is not None else None
        )
        while doc is None or not doc["done"]:
            chunk = WAIT_CHUNK_S
            if deadline is not None:
                chunk = min(chunk, max(deadline - time.monotonic(), 0.0))
            doc = self._remember(
                self._request(
                    f"/v1/sweeps/{sweep_id}?wait={chunk:g}",
                    timeout_s=self.timeout_s + chunk,
                )
            )
            if not doc["done"] and deadline is not None and (
                time.monotonic() >= deadline
            ):
                raise ServiceError(
                    f"sweep {sweep_id} not done within {timeout_s:g}s "
                    f"(counts: {doc['counts']})"
                )
        if not doc["ok"]:
            bad = [
                f"{_label(j)}: {j['error']}"
                for j in doc["jobs"]
                if j["status"] == "quarantined"
            ]
            raise ServiceError(
                f"sweep {sweep_id} finished with failures: " + "; ".join(bad)
            )
        return doc

    def fetch(self, sweep_id: str) -> List[SweepPoint]:
        """Fetch a finished sweep's results as
        :class:`~repro.harness.sweep.SweepPoint` rows, in submission
        order -- the same order and bytes a local ``api.sweep`` of the
        same grid produces.  The points come from the last status
        document received for ``sweep_id``, or from one status read when
        there is none (a sweep's jobs never change: its id hashes their
        keys); a done sweep's document carries each result.  A job whose
        result the document lacks (an older server, a document read
        before the sweep was done, an evicted cache entry) costs one
        ``/v1/jobs/{key}`` request."""
        doc = self._known(sweep_id) or self.status(sweep_id)
        points = []
        for job in doc["jobs"]:
            result = job.get("result")
            if result is None:
                jd = self.fetch_job(job["key"])
                result = jd["result"]
                if result is None:
                    raise ServiceError(
                        f"job {job['key'][:12]} ({_label(job)}) has no "
                        f"result yet (status: {jd['status']})"
                    )
            points.append(
                SweepPoint(
                    config=job["config"],
                    workload=job["workload"],
                    n_cores=job["cores"],
                    scale=job["scale"],
                    result=RunResult.from_dict(result),
                )
            )
        return points

    def fetch_job(self, key: str) -> Dict:
        """One job's document (status, attempts, error, and -- when
        done -- its serialized :class:`RunResult`)."""
        return self._request(f"/v1/jobs/{key}")

    def sweeps(self) -> List[Dict]:
        """Summaries of every sweep the server knows about."""
        return self._request("/v1/sweeps")["sweeps"]

    def healthz(self) -> Dict:
        return self._request("/v1/healthz")

    def metrics(self) -> str:
        """The server's ``/v1/metrics`` Prometheus text."""
        return self._request_text("/v1/metrics")

    def report(self, baseline: Optional[str] = None) -> str:
        """The server's cache-wide HTML sweep report."""
        path = "/v1/report"
        if baseline:
            path += f"?baseline={baseline}"
        return self._request_text(path)


def _read_response(sock: socket.socket) -> Tuple[int, bytes, bool]:
    """One response off ``sock`` as ``(status, body, keep_alive)``.
    Head and body are received into one buffer; the body is framed by
    ``Content-Length``, by chunked coding, or by the server closing the
    connection (which then cannot be kept alive, and neither can one
    whose answer says ``Connection: close`` or is HTTP/1.0).  A
    connection that ends before its response does raises
    :class:`ConnectionResetError`; a malformed head raises
    :class:`ValueError`."""
    buf = bytearray()

    def receive() -> bytes:
        chunk = sock.recv(_RECV_BYTES)
        buf.extend(chunk)
        return chunk

    def find(sep: bytes, start: int) -> int:
        """Where ``sep`` is at or after ``start``, receiving until it
        has arrived."""
        while True:
            at = buf.find(sep, start)
            if at >= 0:
                return at
            start = max(start, len(buf) - len(sep) + 1)
            if not receive():
                raise ConnectionResetError(
                    f"connection closed {len(buf)} bytes into a response"
                )

    def fill(end: int) -> None:
        """Receive until the buffer holds ``end`` bytes."""
        while len(buf) < end:
            if not receive():
                raise ConnectionResetError(
                    f"connection closed {end - len(buf)} bytes short of "
                    "a response body"
                )

    end = find(b"\r\n\r\n", 0)
    start, headers = parse_head(buf[:end])
    version, status, *_ = start.split(None, 2)
    status = int(status)
    keep_alive = (
        version == "HTTP/1.1"
        and "close" not in headers.get("connection", "").lower()
    )
    pos = end + 4
    if "chunked" in headers.get("transfer-encoding", "").lower():
        chunks = []
        while True:
            eol = find(b"\r\n", pos)
            size = int(bytes(buf[pos:eol]).partition(b";")[0], 16)
            if size < 0:
                raise ValueError(f"bad chunk size {size}")
            pos = eol + 2
            if size == 0:
                break
            fill(pos + size)
            chunks.append(bytes(buf[pos:pos + size]))
            pos += size + 2  # the chunk's closing CRLF
        while True:  # trailer fields, then the blank line
            eol = find(b"\r\n", pos)
            if eol == pos:
                return status, b"".join(chunks), keep_alive
            pos = eol + 2
    length = headers.get("content-length")
    if length is not None:
        if not length.isdigit():
            raise ValueError(f"bad Content-Length {length!r}")
        fill(pos + int(length))
        return status, bytes(buf[pos:pos + int(length)]), keep_alive
    while receive():
        pass
    return status, bytes(buf[pos:]), False


def _label(job: Dict) -> str:
    """A status-document job row named like a failed local point
    (:meth:`JobSpec.label`)."""
    return JobSpec(
        config=job["config"],
        workload=job["workload"],
        cores=job["cores"],
        scale=job["scale"],
    ).label()


def discover(cache_dir=None) -> Optional[str]:
    """URL of a live server advertising on ``cache_dir`` (via the
    ``serve.json`` discovery file a running server maintains), or
    ``None``.  Lets co-located tools find the service without
    configuration."""
    cache_dir = repro_config.cache_dir(cache_dir)
    if cache_dir is None:
        return None
    from pathlib import Path

    path = Path(cache_dir).expanduser() / "serve.json"
    try:
        doc = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    url = doc.get("url")
    return url if isinstance(url, str) else None


__all__ = ["Client", "DEFAULT_TIMEOUT_S", "discover"]
