"""Parallel experiment engine: fan grid points out across worker
processes, with a content-addressed result cache and resumable sweeps.

The paper's evaluation is an embarrassingly parallel grid -- kernels x
configurations x core counts -- and every figure driver used to walk it
one point at a time in one process.  This module is the execution
substrate they now share:

* :class:`JobSpec` names one grid point (config, workload, cores, scale,
  seed, parameter overrides).  Specs are pure data: a worker process
  rebuilds the machine and workload from the spec alone and re-seeds
  from ``spec.seed``, so a point's :class:`RunResult` is bit-for-bit
  identical whether it ran serially, in a pool, or on a different day.
* :class:`ResultCache` stores finished results on disk keyed by a hash
  of the spec *plus the fully resolved* :class:`MachineParams`, so
  re-running a figure after an unrelated edit is free while any changed
  machine knob (including library defaults) misses cleanly.  Entries
  carry a sha256 of their own payload: a torn write *or any byte flip*
  reads back as a cache miss, never a crash and never a wrong result.
* :class:`Engine` orchestrates, along one execution path: every point
  not already cached is enqueued in a
  :class:`repro.resilience.store.JobStore` and claimed through expiring
  leases, in-process or by a supervised worker pool.  Workers heartbeat
  while simulating, dead workers' points are reclaimed and retried
  elsewhere with seeded exponential backoff, and a point that keeps
  failing is quarantined with its traceback instead of starving the
  sweep.  With a cache directory the store lives beside the cache, so a
  killed sweep resumes by rerunning it: cached points are skipped and
  every other point, quarantined or evicted from the cache, runs again.
  Without one, a run whose points all execute in this process keeps the
  same ledger in memory and hands its results back as objects, with no
  file, codec or heartbeat thread; a pooled run uses a throwaway store
  and cache in a temporary directory, since its workers are other
  processes.

Environment defaults come from :mod:`repro.common.config`:
``REPRO_WORKERS`` (worker count when ``workers`` is not given; unset
means serial) and ``REPRO_CACHE_DIR`` (cache location when
``cache_dir`` is not given; unset means no cache).
"""

from __future__ import annotations

import hashlib
import inspect
import json
import os
import pickle
import shutil
import tempfile
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common import config as repro_config
from repro.common.errors import ConfigError
from repro.common.schema import JOBSPEC_SCHEMA, check_schema
from repro.harness.configs import machine_params
from repro.harness.report import ProgressReporter
from repro.harness.runner import RunResult

#: Bump to invalidate every existing cache entry (schema changes).
#: v3: checksummed entries ({"payload fields"..., "v", "sha256"}).
CACHE_VERSION = 3

DEFAULT_MAX_EVENTS = 50_000_000

#: ``json.dumps`` settings of cache keys, of the machine memo's keys
#: and of entry checksums, built once (``json.dumps`` with any option
#: builds an encoder per call).
_KEY_JSON = json.JSONEncoder(sort_keys=True, default=repr)
_MEMO_JSON = json.JSONEncoder(sort_keys=True)
_CHECKSUM_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Job specification
# ---------------------------------------------------------------------------
@dataclass
class JobSpec:
    """One grid point, as pure (picklable, hashable-by-content) data.

    ``workload`` is a registry name (:data:`repro.workloads.kernels.KERNELS`
    or :data:`repro.workloads.microbench.MICROBENCHES`) unless an explicit
    ``factory`` rides along; ``params`` are keyword overrides applied to
    the resolved :class:`MachineParams` (e.g. ``{"n_cores": 16}`` is
    spelled ``cores=16`` instead, but NoC/cache sub-params go here).
    """

    config: str
    workload: str
    cores: int = 16
    scale: float = 1.0
    seed: int = 2015
    params: Dict[str, Any] = field(default_factory=dict)
    max_events: Optional[int] = DEFAULT_MAX_EVENTS
    check: bool = True
    checkers: Tuple[str, ...] = ()
    """Invariant monitors to attach (:data:`repro.verify.MONITORS`
    names); empty disables checking.  Part of the cache key: a checked
    run records its :class:`CheckReport` in the cached result."""

    fault_plan: Any = None
    factory: Optional[Callable] = field(default=None, repr=False, compare=False)
    """Explicit workload factory; optional.  Not part of the cache key
    beyond its dotted name -- prefer registry names for cacheable runs."""

    def describe(self) -> str:
        return f"{self.workload}/{self.config}@{self.cores}"

    def label(self) -> str:
        """:meth:`describe` plus the scale and, for a fault run, the
        drop rate and a digest of the whole plan: the name a failure
        gives its point, distinct for the points of a load sweep (which
        differ only in scale) or a chaos sweep (only in drop rate)."""
        label = f"{self.describe()} scale={self.scale:g}"
        plan = self.fault_plan
        if plan is not None:
            drops = [m.drop_prob for m in plan.messages if m.drop_prob]
            if drops:
                label += " drop=" + ",".join(f"{p:g}" for p in drops)
            blob = _KEY_JSON.encode(asdict(plan)).encode()
            label += f" faults={hashlib.sha256(blob).hexdigest()[:8]}"
        return label

    def to_wire(self) -> Dict[str, Any]:
        """Pure-data wire form (HTTP submission to ``repro serve``).

        Carries a :data:`~repro.common.schema.JOBSPEC_SCHEMA` stamp and
        only the fields a remote engine can rebuild the point from;
        explicit factories and fault plans are process-local objects and
        are refused rather than lossily encoded.
        """
        if self.fault_plan is not None:
            raise ConfigError(
                "fault_plan does not cross the wire; submit fault "
                "experiments locally or encode the plan as params"
            )
        if self.factory is not None:
            raise ConfigError(
                "explicit workload factories do not cross the wire; "
                "use a registry workload name instead"
            )
        return {
            "schema": JOBSPEC_SCHEMA,
            "config": self.config,
            "workload": self.workload,
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "params": dict(self.params),
            "max_events": self.max_events,
            "check": self.check,
            "checkers": list(self.checkers),
        }

    @classmethod
    def from_wire(cls, data: Dict[str, Any]) -> "JobSpec":
        """Inverse of :meth:`to_wire`.  The schema stamp is checked
        first (unknown majors raise
        :class:`~repro.common.errors.SchemaError`); malformed fields
        raise :class:`ConfigError` naming the offender."""
        if not isinstance(data, dict):
            raise ConfigError(f"job spec payload must be an object, got "
                              f"{type(data).__name__}")
        check_schema(data.get("schema"), JOBSPEC_SCHEMA, what="job spec")
        config = data.get("config")
        workload = data.get("workload")
        if not isinstance(config, str) or not isinstance(workload, str):
            raise ConfigError(
                "job spec needs string 'config' and 'workload' fields"
            )
        params = data.get("params") or {}
        checkers = data.get("checkers") or ()
        if not isinstance(params, dict):
            raise ConfigError("job spec 'params' must be an object")
        if not all(isinstance(c, str) for c in checkers):
            raise ConfigError("job spec 'checkers' must be monitor names")
        try:
            max_events = data.get("max_events", DEFAULT_MAX_EVENTS)
            return cls(
                config=config,
                workload=workload,
                cores=int(data.get("cores", 16)),
                scale=float(data.get("scale", 1.0)),
                seed=int(data.get("seed", 2015)),
                params=dict(params),
                max_events=None if max_events is None else int(max_events),
                check=bool(data.get("check", True)),
                checkers=tuple(checkers),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed job spec field: {exc}") from None

    def resolved_params(self):
        """The final (MachineParams, library) this spec will run with.

        ``params`` entries may be top-level :class:`MachineParams`
        fields (dataclass values) or dotted scalar paths like
        ``"msa.entries_per_tile"`` -- the dotted form is pure JSON, so
        such specs cross the service wire and cache cleanly.
        """
        params, library = machine_params(
            self.config, n_cores=self.cores, seed=self.seed
        )
        if self.params:
            params = params.with_overrides(self.params)
        return params, library

    def key(self) -> str:
        """Content-addressed cache key.

        Hashes the spec fields *and* the fully resolved machine
        parameters, so a change to any default (in code) or any override
        (in the spec) invalidates exactly the affected points.

        The key is the sha256 of ``json.dumps(payload, sort_keys=True)``
        where ``payload["machine"]`` is ``MachineParams.to_dict()``.
        Resolving and serialising the machine is most of that cost, and
        a grid has few distinct machines, so the canonical machine JSON
        is memoised per ``(config, cores, seed, params)`` value
        (:func:`_machine_json`) and spliced into the blob: each distinct
        machine is resolved once per process, the other points pay two
        small dumps and the hash, and the bytes hashed are unchanged.
        """
        library, machine = _machine_json(self)
        payload = {
            "v": CACHE_VERSION,
            "config": self.config,
            "workload": self.workload,
            "factory": _factory_fingerprint(self.factory),
            "cores": self.cores,
            "scale": self.scale,
            "seed": self.seed,
            "max_events": self.max_events,
            "check": self.check,
            "checkers": list(self.checkers),
            "library": library,
            "fault_plan": (
                asdict(self.fault_plan) if self.fault_plan is not None else None
            ),
        }
        # Keys are sorted, so "machine" goes between these two halves.
        head = _KEY_JSON.encode(
            {k: v for k, v in payload.items() if k < "machine"}
        )
        tail = _KEY_JSON.encode(
            {k: v for k, v in payload.items() if k > "machine"}
        )
        digest = hashlib.sha256(head[:-1].encode())
        digest.update(b', "machine": ')
        digest.update(machine)
        digest.update(b", " + tail[1:].encode())
        return digest.hexdigest()


#: Most distinct machines :func:`_machine_json` keeps; the memo is
#: emptied when it fills (a paper figure has a handful of machines, a
#: design-space sweep a few hundred).
MACHINE_MEMO_SIZE = 1024

_MACHINE_MEMO: Dict[str, Tuple[str, bytes]] = {}


def _machine_json(spec: JobSpec) -> Tuple[str, bytes]:
    """``(library, canonical machine JSON)`` of a spec: its resolved
    :class:`MachineParams` dumped as :meth:`JobSpec.key` hashes them.

    Memoised by the *value* of ``(config, cores, seed, params)`` --
    their JSON, which tells ``2`` from ``2.0`` and ``True`` -- never by
    spec object, so mutating a spec changes its key.  Specs whose
    ``params`` carry non-JSON values (whole parameter dataclasses) are
    resolved every time.  The entries are immutable and depend only on
    code, so one process-wide memo serves every caller.
    """
    try:
        memo_key = _MEMO_JSON.encode(
            [spec.config, spec.cores, spec.seed, spec.params]
        )
    except TypeError:
        memo_key = None
    else:
        found = _MACHINE_MEMO.get(memo_key)
        if found is not None:
            return found
    params, library = spec.resolved_params()
    entry = (library, _KEY_JSON.encode(params.to_dict()).encode())
    if memo_key is not None:
        if len(_MACHINE_MEMO) >= MACHINE_MEMO_SIZE:
            _MACHINE_MEMO.clear()
        _MACHINE_MEMO[memo_key] = entry
    return entry


def _factory_fingerprint(factory: Optional[Callable]) -> Optional[str]:
    if factory is None:
        return None
    module = getattr(factory, "__module__", "?")
    qualname = getattr(factory, "__qualname__", repr(factory))
    return f"{module}.{qualname}"


def resolve_factory(name: str) -> Callable:
    """Look a workload name up in the kernel, microbench, and traffic
    registries, importing only what the lookup reaches: a kernel's own
    module, and the other two registries only for a name that is not a
    kernel."""
    from repro.workloads.kernels import KERNEL_NAMES, kernel_factory

    factory = kernel_factory(name)
    if factory is not None:
        return factory
    from repro.workloads import microbench
    from repro.traffic.workload import TRAFFIC

    if name in microbench.MICROBENCHES:
        return microbench.MICROBENCHES[name]
    if name in TRAFFIC:
        return TRAFFIC[name]
    raise ConfigError(
        f"unknown workload {name!r}; expected one of "
        f"{sorted(KERNEL_NAMES) + sorted(microbench.MICROBENCHES) + sorted(TRAFFIC)}"
    )


def _instantiate(factory: Callable, cores: int, scale: float):
    """Call a workload factory, passing ``scale`` only if it declares a
    parameter of that name (kernels do, the latency microbenches take
    ``iters``/``episodes`` knobs instead)."""
    try:
        sig = inspect.signature(factory)
        takes_scale = "scale" in sig.parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in sig.parameters.values()
        )
    except (TypeError, ValueError):
        takes_scale = True
    return factory(cores, scale=scale) if takes_scale else factory(cores)


def execute_spec(spec: JobSpec, watchdog=None) -> RunResult:
    """Run one grid point to completion in *this* process.

    This is the worker entry point: everything is rebuilt from the spec
    (machine, RNG streams, workload), so no state leaks between points
    and parallel results match serial ones bit for bit.

    ``watchdog`` optionally supervises the run (a
    :class:`repro.resilience.watchdog.Watchdog`); the drained event
    order -- and therefore the result -- is identical either way.
    """
    from repro.harness.runner import run_workload
    from repro.machine import Machine

    params, library = spec.resolved_params()
    machine = Machine(params, library=library, fault_plan=spec.fault_plan)
    factory = spec.factory if spec.factory is not None else resolve_factory(
        spec.workload
    )
    workload = _instantiate(factory, spec.cores, spec.scale)
    return run_workload(
        machine,
        workload,
        max_events=spec.max_events,
        check=spec.check,
        config=spec.config,
        checkers=spec.checkers,
        watchdog=watchdog,
    )


# ---------------------------------------------------------------------------
# Result cache
# ---------------------------------------------------------------------------
def entry_checksum(data: Dict[str, Any]) -> str:
    """sha256 over an entry's canonical payload (everything except the
    ``sha256`` field itself, compact-serialized with sorted keys).  A
    byte flip anywhere in the stored payload -- even one that leaves
    the JSON parseable -- changes this digest."""
    body = {k: v for k, v in data.items() if k != "sha256"}
    blob = _CHECKSUM_JSON.encode(body)
    return hashlib.sha256(blob.encode()).hexdigest()


#: The bytes that open an entry's ``,"sha256":"<digest>"`` span, and
#: those that end an entry :meth:`ResultCache.put` wrote.
_SHA256_SPAN = b',"sha256":"'
_COMPACT_TAIL = b',"v":%d}' % CACHE_VERSION


def _compact_result(raw: bytes, key: str) -> Optional[bytes]:
    """The result's bytes of an entry in the layout :meth:`ResultCache.put`
    writes (``{"key":"<key>","result":<result>,"sha256":"<digest>",
    "spec":...,"v":<CACHE_VERSION>}``) whose bytes without its last
    sha256 span hash to that span's digest, else ``None``.  Nothing is
    parsed: a whole entry is the bytes ``put`` hashed, in which the
    digest's span follows the result and is the last one (the spec's
    strings are escaped and its keys fixed), however many a result
    holds.  Only a key JSON writes as it is (a job key's hex digits)
    can match the entry's prefix."""
    if not (key.isascii() and key.isalnum()):
        return None
    head = b'{"key":"%s","result":' % key.encode()
    if not (raw.startswith(head) and raw.endswith(_COMPACT_TAIL)):
        return None
    at = raw.rfind(_SHA256_SPAN)
    if at < 0:
        return None
    start = at + len(_SHA256_SPAN)
    end = start + 64
    if raw[end:end + 1] != b'"':
        return None
    body = hashlib.sha256(raw[:at])
    body.update(raw[end + 1:])
    if body.hexdigest().encode() != raw[start:end]:
        return None
    return raw[len(head):at]


def verify_entry(
    raw: bytes, key: str
) -> Tuple[Optional[bytes], Optional[str], str]:
    """Judge the stored bytes of the entry filed under ``key``: the one
    check the cache's reads and ``repro fsck`` share.

    Returns ``(result, None, "")`` for a whole entry, with ``result``
    the compact JSON bytes of its serialized :class:`RunResult`, else
    ``(None, kind, detail)`` with ``kind`` one of
    :data:`repro.resilience.fsck.ISSUE_KINDS`.

    :meth:`ResultCache.put` writes the compact sorted dump that
    :func:`entry_checksum` hashes with ``,"sha256":"<digest>"`` spliced
    in, so a written entry is accepted by hashing the bytes read with
    that span removed, and its result is served as the bytes it was
    stored as (:func:`_compact_result`).  Whatever that does not accept
    is parsed and judged in full, which gives the same verdict on every
    entry the shortcut accepts.  JSON escapes every quote inside a
    string, so only the structural field can match the span, and a
    span that is found decides: bytes changed but still parsing to the
    same values (an exponent's ``e`` as ``E``) do not hash to the
    digest.  An entry without the span (the spaced layout of older
    writers) is checked by re-encoding its payload with
    :func:`entry_checksum`.
    """
    result = _compact_result(raw, key)
    if result is not None:
        return result, None, ""
    try:
        data = json.loads(raw.decode())
    except ValueError as exc:  # UnicodeDecodeError included
        return None, "torn-json", str(exc)[:120]
    if not isinstance(data, dict):
        return None, "torn-json", "entry is not a JSON object"
    if "sha256" not in data or "v" not in data:
        return None, "schema-drift", "missing checksum/version fields"
    if data["v"] != CACHE_VERSION:
        return None, "stale-version", f"entry v{data['v']} != v{CACHE_VERSION}"
    digest = data["sha256"]
    at = -1
    if isinstance(digest, str):
        span = b',"sha256":"%s"' % digest.encode("ascii", "replace")
        at = raw.rfind(span)
    if at >= 0:
        body = hashlib.sha256(raw[:at])
        body.update(raw[at + len(span):])
        whole = body.hexdigest() == digest
    else:
        whole = entry_checksum(data) == digest
    if not whole:
        return None, "checksum-mismatch", "payload does not match its sha256"
    if data.get("key") != key:
        found = str(data.get("key"))[:12]
        return None, "key-mismatch", f"entry key {found}..."
    if "result" not in data:
        return None, "schema-drift", "entry has no result field"
    return _CHECKSUM_JSON.encode(data["result"]).encode(), None, ""


class ResultCache:
    """Content-addressed on-disk cache of serialized :class:`RunResult`.

    Layout: ``<root>/<key[:2]>/<key>.json`` holding the spec summary
    (for humans), the result, the cache version, and a sha256 of the
    whole payload, written as the checksum's own bytes (see
    :func:`verify_entry`).  Writes are atomic (temp file + rename) so a
    killed sweep never leaves a torn entry behind; reads verify the
    checksum and the key, so *any* corruption -- truncation, byte
    flips, a file renamed to the wrong key -- is a cache miss (counted
    in :attr:`corrupt`), never an exception and never a wrong result.
    """

    def __init__(self, root):
        self.root = Path(root)
        self._root = str(self.root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        """Entries rejected by checksum/decode validation (each also
        counts as a miss)."""

        self.put_hook: Optional[Callable[[], None]] = None
        """Test/chaos seam: called before every write; may raise (e.g.
        a simulated ``ENOSPC``) to fail the put."""

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _entry(self, key: str) -> Optional[bytes]:
        """The result bytes of the stored entry for ``key`` if it is
        whole -- current version, its own key, matching checksum -- else
        ``None``, counted as a miss (and as corrupt unless the file is
        absent)."""
        try:
            with open(os.path.join(self._root, key[:2], key + ".json"),
                      "rb") as f:
                raw = f.read()
        except OSError:
            self.misses += 1
            return None
        result = verify_entry(raw, key)[0]
        if result is not None:
            return result
        self.misses += 1
        self.corrupt += 1
        return None

    def read(self, key: str) -> Optional[bytes]:
        """The serialized result of a whole entry for ``key`` as the
        JSON bytes it is stored as, or ``None``: :meth:`get`'s
        validation (version, key, checksum) and counters, without
        decoding the :class:`RunResult`.  What the service checks a
        finished point with and serves as is."""
        result = self._entry(key)
        if result is not None:
            self.hits += 1
        return result

    def get(self, key: str) -> Optional[RunResult]:
        raw = self._entry(key)
        if raw is None:
            return None
        try:
            result = RunResult.from_dict(json.loads(raw.decode()))
        except Exception:
            # Corrupt means miss, never crash: an entry can carry a
            # valid checksum over a payload this code cannot decode,
            # so *anything* the decode raises lands here.
            self.misses += 1
            self.corrupt += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, spec: JobSpec, result: RunResult) -> None:
        if self.put_hook is not None:
            self.put_hook()
        payload = {
            "key": key,
            "v": CACHE_VERSION,
            "spec": {
                "config": spec.config,
                "workload": spec.workload,
                "cores": spec.cores,
                "scale": spec.scale,
                "seed": spec.seed,
            },
            "result": result.to_dict(),
        }
        payload["sha256"] = entry_checksum(payload)
        _atomic_write(self.path(key), _CHECKSUM_JSON.encode(payload).encode())

    def entries(self):
        """Iterate every healthy cache entry as ``(spec_summary,
        RunResult)`` pairs, in deterministic (key-sorted) order.

        The spec summary is the human-readable dict stored by
        :meth:`put` (config/workload/cores/scale/seed).  This is the
        read path for report-from-cache (``python -m repro report``):
        it never simulates, it only deserializes what finished sweeps
        left behind.  Torn, corrupt (checksum-mismatched), stale, or
        foreign files are skipped -- ``python -m repro fsck`` reports
        and evicts them.
        """
        for path in sorted(self.root.glob("*/*.json")):
            try:
                raw = path.read_bytes()
                if verify_entry(raw, path.stem)[0] is None:
                    continue
                data = json.loads(raw)
                spec = data["spec"]
                result = RunResult.from_dict(data["result"])
            except Exception:
                continue
            yield spec, result


class _HeldResults(dict):
    """The results of a run on an in-memory ledger, by key, held as the
    :class:`RunResult` objects its points returned: no file and no JSON
    codec.  A :class:`WorkerLoop <repro.resilience.supervise.WorkerLoop>`
    puts into it and :meth:`Engine._execute` gets from it as from a
    :class:`ResultCache`."""

    def put(self, key: str, spec: JobSpec, result: RunResult) -> None:
        self[key] = result


def _atomic_write(path: Path, blob: bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(blob)
        os.replace(tmp, str(path))
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise




# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------
@dataclass
class EngineStats:
    """What one :meth:`Engine.run` did with its grid.

    ``total`` and ``cache_hits`` count specs; ``executed`` and
    ``failed`` count distinct points (a grid that lists a point twice
    simulates it once)."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    failed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.total if self.total else 0.0

    def describe(self) -> str:
        return (
            f"{self.total} points: {self.cache_hits} cached, "
            f"{self.executed} ran, {self.retried} retried, "
            f"{self.failed} failed"
        )


@dataclass
class JobResult:
    """Outcome of one grid point (result *or* error, never silently lost)."""

    spec: JobSpec
    key: str
    result: Optional[RunResult] = None
    cached: bool = False
    attempts: int = 0
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.result is not None


class Engine:
    """Run a batch of :class:`JobSpec` with caching, pooling, retries.

    ``workers``: process count; ``None`` reads ``REPRO_WORKERS``, and a
    value <= 1 runs in-process.  ``cache_dir``: result-cache root;
    ``None`` reads ``REPRO_CACHE_DIR``, empty means no caching.
    ``retries``: extra attempts for a crashed/errored point (default 1).
    ``progress``: ``True`` for stderr progress lines, or a
    :class:`ProgressReporter`-compatible object.

    Every run executes through a
    :class:`repro.resilience.store.JobStore`: points are claimed via
    expiring leases (``lease_s``), failed attempts back off with
    deterministic seeded jitter (``seed``), a point failing
    ``retries + 1`` times is quarantined with its traceback, and
    ``point_timeout_s`` arms a per-point
    :class:`repro.resilience.watchdog.Watchdog`.  With a cache
    directory the store lives at ``<cache_dir>/jobs.sqlite3``, so a
    rerun skips every cached point and several engines -- across
    processes or hosts sharing the directory -- can split one grid.
    The cache alone says a point is done: every point whose entry does
    not read is enqueued, which re-pends its row with a fresh attempt
    budget (:meth:`JobStore.enqueue_many`), and runs through the
    workers like any other.  Another engine can finish a point between
    this run's cache read and its enqueue; the point then runs twice,
    to the same bytes by the determinism contract.
    Without one (or when that store cannot open), a run that executes
    its points in this process (``workers`` <= 1, or one picklable
    point) keeps its ledger in memory -- a :class:`JobStore` on SQLite
    ``:memory:``, the same claims, retries, quarantine, watchdog and
    progress, no heartbeats -- and hands each result back as the object
    its point returned; nothing touches the disk.  A pooled run without
    a usable store uses a throwaway store and cache in a temporary
    directory that is removed when the run ends.  ``chaos`` (a
    :class:`repro.resilience.supervise.ChaosPlan`) is the harness chaos
    seam; leave it ``None`` outside ``repro chaos-harness``.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache_dir=None,
        retries: int = 1,
        progress=False,
        lease_s: float = 30.0,
        point_timeout_s: Optional[float] = None,
        seed: int = 0,
        chaos=None,
    ):
        workers = repro_config.workers(workers)
        self.workers = max(1, workers if workers is not None else 1)
        cache_dir = repro_config.cache_dir(cache_dir)
        self.cache = ResultCache(cache_dir) if cache_dir else None
        self.retries = retries
        self.progress = progress
        self.lease_s = lease_s
        self.point_timeout_s = point_timeout_s
        self.seed = seed
        self.chaos = chaos
        self.stats = EngineStats()
        self.pool_stats: Dict[str, int] = {}
        self.store_counters: Dict[str, int] = {}
        """:meth:`JobStore.counters` as the last run that executed a
        point left them."""
        self.cache_hits = 0
        """Cache lookups over this engine's runs that spared a
        simulation (a run's read-back of the points it just produced is
        not a lookup)."""
        self.cache_misses = 0
        """Cache lookups over this engine's runs that found no entry, so
        their point ran."""

    # -- public API ----------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Run every spec; returns one :class:`JobResult` per spec, in
        input order.  Failures are reported in the results, not raised
        -- callers that need all points decide what a hole means."""
        stats = self.stats = EngineStats(total=len(specs))
        results: List[Optional[JobResult]] = [None] * len(specs)
        reporter = self._reporter(len(specs))
        pending: Dict[str, List[int]] = {}  # key -> indices into specs
        for index, spec in enumerate(specs):
            key = spec.key()
            result = None
            if self.cache is not None and key not in pending:
                result = self.cache.get(key)
            if result is None:
                pending.setdefault(key, []).append(index)
                continue
            stats.cache_hits += 1
            results[index] = JobResult(
                spec=spec, key=key, result=result, cached=True
            )
            if reporter is not None:
                reporter.update(spec.describe(), cached=True)
        if self.cache is not None:
            self.cache_hits += stats.cache_hits
            self.cache_misses += len(pending)
        if pending:
            self._execute(specs, pending, results, reporter)
        return results

    def resilience_counters(self) -> Dict[str, int]:
        """Durability/supervision counters for :mod:`repro.obs` export:
        job-store lifetime transitions, this engine's cache hits and
        misses and the cache's corrupt entries (with a cache directory),
        and worker-pool kills/restarts."""
        out = dict(self.store_counters)
        if self.cache is not None:
            out["cache_hits"] = self.cache_hits
            out["cache_misses"] = self.cache_misses
            out["cache_corrupt"] = self.cache.corrupt
        for name, value in self.pool_stats.items():
            out[f"pool_{name}"] = value
        return out

    # -- execution -----------------------------------------------------
    def _open_store(self, root=None):
        """The job store beside the cache at ``root``, or an in-memory
        ledger without one."""
        from repro.resilience.store import JobStore, default_store_path

        return JobStore(
            default_store_path(root) if root is not None else None,
            lease_s=self.lease_s,
            quarantine_after=self.retries + 1,
        )

    def _execute(self, specs, pending, results, reporter):
        """Enqueue every pending point, claim by lease (in-process, or
        via a supervised worker pool), then collect outcomes from store
        + cache.  Crash-safe at every step: a worker dying mid-point
        just stops heartbeating and the point is reclaimed.  A point
        whose entry does not read after that (corrupted after it
        landed) is enqueued again and drained once more by an
        in-process :class:`WorkerLoop`, under the same lease, watchdog
        and retry budget as every other run of a point.  The ledger is
        the store beside the cache, else an in-memory one holding its
        results as objects (:class:`_HeldResults`) when every point
        runs in this process, else a throwaway store and cache in a
        temporary directory (see :class:`Engine`)."""
        from repro.resilience.store import TERMINAL
        from repro.resilience.supervise import WorkerLoop, WorkerPool

        store = None
        if self.cache is not None:
            try:
                store = self._open_store(self.cache.root)
            except Exception:
                # A read-only cache mount (or a hostile sqlite build)
                # must not take the run down: cached points still hit,
                # the rest run as if there were no cache.
                store = None
        # A spec reaches another process -- a pool worker, or an engine
        # sharing the cache directory -- as its pickle; a spec that
        # does not pickle (a closure factory) runs in this process.
        shared = store is not None or self.workers > 1
        specs_by_key = {key: specs[idx[0]] for key, idx in pending.items()}
        keys = list(pending)
        jobs = {}
        for key, spec in specs_by_key.items():
            blob = None
            if shared:
                try:
                    blob = pickle.dumps(spec)
                except Exception:
                    pass
            jobs[key] = (key, spec.describe(), blob)
        remote = [key for key in keys if jobs[key][2] is not None]
        pooled = self.workers > 1 and len(remote) > 1
        cache, tmp = self.cache, None
        try:
            if store is None and pooled:
                tmp = tempfile.mkdtemp(prefix="repro-engine-")
                cache = ResultCache(tmp)
                store = self._open_store(tmp)
            elif store is None:
                cache = _HeldResults()
                store = self._open_store()
            store.enqueue_many(jobs.values())
            before = store.counters()
            reported = set()

            def report(key, failed):
                reported.add(key)
                if reporter is not None:
                    for index in pending[key]:
                        reporter.update(specs[index].describe(), failed=failed)

            def on_terminal(key, status):
                if status in TERMINAL and key not in reported:
                    report(key, failed=status != "done")

            def drain(batch):
                WorkerLoop(
                    store,
                    cache,
                    keys=batch,
                    specs_by_key=specs_by_key,
                    seed=self.seed,
                    point_timeout_s=self.point_timeout_s,
                    on_complete=on_terminal,
                ).drain()

            local = [key for key in keys if jobs[key][2] is None]
            in_process = local if pooled else keys
            if in_process:
                drain(in_process)
            if pooled:
                pool = WorkerPool(
                    store,
                    cache.root,
                    workers=self.workers,
                    lease_s=self.lease_s,
                    quarantine_after=self.retries + 1,
                    seed=self.seed,
                    point_timeout_s=self.point_timeout_s,
                    chaos=self.chaos,
                    on_terminal=on_terminal,
                )
                pool.run(remote, workloads={
                    specs_by_key[key].workload
                    for key in remote
                    if specs_by_key[key].factory is None
                })
                self.pool_stats = {
                    "kills": pool.kills,
                    "restarts": pool.restarts,
                    "corruptions": pool.corruptions,
                }

            # Turn store rows + cache entries into ordered JobResults.  A
            # point that is done by its row, or has no row, but whose entry
            # does not read runs once more through the store.
            rows = {row.key: row for row in store.rows(keys)}
            found = {key: cache.get(key) for key in keys}
            again = [
                key for key in keys
                if found[key] is None
                and (key not in rows or rows[key].status == "done")
            ]
            if again:
                store.enqueue_many(jobs[key] for key in again)
                drain(again)
                rows.update((row.key, row) for row in store.rows(again))
                found.update((key, cache.get(key)) for key in again)
            after = store.counters()
            self.stats.retried += sum(
                after[name] - before[name]
                for name in ("retries", "leases_expired", "leases_released")
            )
            for key, indices in pending.items():
                row = rows.get(key)
                result = found[key]
                if result is not None:
                    self.stats.executed += 1
                else:
                    self.stats.failed += 1
                if key not in reported:
                    report(key, failed=result is None)
                for index in indices:
                    results[index] = JobResult(
                        spec=specs[index],
                        key=key,
                        result=result,
                        attempts=row.attempts if row is not None else 0,
                        error=(
                            row.error if row is not None and result is None
                            else None
                        ),
                    )
            self.store_counters = after
        finally:
            if store is not None:
                store.close()
            if tmp is not None:
                shutil.rmtree(tmp, ignore_errors=True)

    # -- progress -------------------------------------------------------
    def _reporter(self, total: int):
        if self.progress is True:
            return ProgressReporter(total)
        if self.progress:
            return self.progress
        return None

