"""Wire formats of the experiment service.

Every HTTP body ``repro serve`` reads or writes is a JSON object
stamped with :data:`~repro.common.schema.SERVE_SCHEMA`; job specs
embedded in requests additionally carry their own
:data:`~repro.common.schema.JOBSPEC_SCHEMA` stamp (see
:meth:`repro.harness.jobs.JobSpec.to_wire`).  This module owns the
translation between those JSON documents and the engine's native
objects -- the server (:mod:`repro.serve.server`) and the client
(:mod:`repro.client`) both build on it, so the two cannot drift apart.

A sweep submission is either a grid (the same shape
:func:`repro.api.sweep` takes)::

    {"schema": "repro.serve/1",
     "configs": ["pthread", "msa-omu-2"],
     "workloads": ["streamcluster"],
     "cores": [16], "scale": 0.25, "seed": 2015}

or an explicit job list (``{"schema": ..., "jobs": [<jobspec wire>,
...]}``).  Grids expand through the local grid walk
(:func:`repro.harness.sweep.grid_specs`: cores, then workloads, then
configs), so a remote sweep returns its points in the same order a
local one does.

:func:`parse_head` splits an HTTP/1.x message head for both ends: the
server parses each request with it and the client each response.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Sequence, Tuple

from repro.common.errors import ConfigError
from repro.common.schema import JOBSPEC_SCHEMA, SERVE_SCHEMA, check_schema
from repro.harness.jobs import JobSpec, resolve_factory
from repro.harness.sweep import grid_specs

#: How many hex digits of the key hash name a sweep.
SWEEP_ID_LEN = 16


def sweep_id(keys: Sequence[str]) -> str:
    """Content-addressed sweep identity: a hash over the sorted job
    keys.  Two clients submitting the same grid -- in any field order
    -- get the same sweep id, which is what makes resubmission and
    concurrent submission free."""
    blob = "\n".join(sorted(keys))
    return hashlib.sha256(blob.encode()).hexdigest()[:SWEEP_ID_LEN]


def _str_list(body: Dict[str, Any], field: str) -> List[str]:
    value = body.get(field)
    if isinstance(value, str):
        value = [value]
    if not isinstance(value, (list, tuple)) or not value or not all(
        isinstance(v, str) for v in value
    ):
        raise ConfigError(
            f"sweep request field {field!r} must be a non-empty list of "
            "names"
        )
    return list(value)


def expand_sweep_request(body: Dict[str, Any]) -> List[JobSpec]:
    """Validate one ``POST /v1/sweeps`` body and expand it to specs.

    Checks the envelope schema, then either takes the explicit
    ``jobs`` list or expands the grid fields with the local grid walk;
    job specs and a grid's shared fields alike pass through
    :meth:`JobSpec.from_wire` (so the jobspec schema is enforced on
    both shapes), and every workload name is resolved against the
    registries, so an unknown name is rejected at submission time with
    a 400 instead of failing later inside a worker.
    """
    if not isinstance(body, dict):
        raise ConfigError("sweep request must be a JSON object")
    check_schema(body.get("schema"), SERVE_SCHEMA, what="service")

    if "jobs" in body:
        jobs = body["jobs"]
        if not isinstance(jobs, list) or not jobs:
            raise ConfigError(
                "sweep request 'jobs' must be a non-empty list of job "
                "spec objects"
            )
        specs = [JobSpec.from_wire(data) for data in jobs]
        for spec in specs:
            # Resolve the registry factory now: unknown workloads 400
            # at submission, and the spec keys match what a local
            # ``api.sweep`` (which passes registry factories) computes,
            # so the service and local runs share one cache namespace.
            spec.factory = resolve_factory(spec.workload)
    else:
        configs = _str_list(body, "configs")
        workloads = _str_list(body, "workloads")
        cores = body.get("cores", [16])
        if isinstance(cores, int):
            cores = [cores]
        if not isinstance(cores, (list, tuple)) or not all(
            isinstance(c, int) and c > 0 for c in cores
        ):
            raise ConfigError(
                "sweep request 'cores' must be positive integers"
            )
        # The grid's shared fields pass the same jobspec validation as
        # an explicit job list; the local walk then expands them, so a
        # remote sweep lists (and keys) its points like a local one.
        shared = {
            "schema": JOBSPEC_SCHEMA,
            "config": configs[0],
            "workload": workloads[0],
        }
        for name in ("scale", "seed", "params", "max_events", "check",
                     "checkers"):
            if name in body:
                shared[name] = body[name]
        base = JobSpec.from_wire(shared)
        specs = grid_specs(
            configs,
            workloads,
            cores,
            scale=base.scale,
            seed=base.seed,
            params=base.params,
            checkers=base.checkers,
            max_events=base.max_events,
            check=base.check,
        )

    from repro.harness.configs import CONFIG_NAMES

    for spec in specs:
        if spec.config not in CONFIG_NAMES:
            raise ConfigError(
                f"unknown config {spec.config!r}; expected one of "
                f"{sorted(CONFIG_NAMES)}"
            )
    return specs


def sweep_record(sid: str, specs: Sequence[JobSpec], keys: Sequence[str]) -> Dict:
    """The durable sweep document (``<cache>/sweeps/<id>.json``): the
    submitted points, in submission order, with their job keys."""
    return {
        "schema": SERVE_SCHEMA,
        "id": sid,
        "jobs": [
            {
                "key": key,
                "config": spec.config,
                "workload": spec.workload,
                "cores": spec.cores,
                "scale": spec.scale,
                "seed": spec.seed,
            }
            for spec, key in zip(specs, keys)
        ],
    }


def parse_head(head: bytes) -> Tuple[str, Dict[str, str]]:
    """An HTTP/1.x message head -- its bytes up to the blank line that
    ends it -- as ``(start line, headers)``.  Header names are
    lower-cased, values stripped, and a repeated header keeps its last
    value; a line without a colon is skipped."""
    lines = head.decode("latin-1").split("\n")
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, colon, value = line.partition(":")
        if colon:
            headers[name.strip().lower()] = value.strip()
    return lines[0].strip(), headers


def error_doc(message: str, **extra) -> Dict:
    """The JSON body of every non-2xx response."""
    doc = {"schema": SERVE_SCHEMA, "error": str(message)}
    doc.update(extra)
    return doc


__all__ = [
    "SWEEP_ID_LEN",
    "error_doc",
    "expand_sweep_request",
    "parse_head",
    "sweep_id",
    "sweep_record",
]
