"""Explicit wire-schema versioning for every serialized payload.

Results, job specs, and the HTTP bodies of the experiment service all
outlive the process that wrote them -- caches persist across versions,
and a ``repro serve`` instance may be older or newer than its clients.
Every such payload therefore carries a ``schema`` stamp of the form
``family/major`` (e.g. ``"repro.result/1"``), and every loader calls
:func:`check_schema` before trusting the rest of the document: a
payload from an incompatible major version is rejected with a clear
:class:`~repro.common.errors.SchemaError` instead of being silently
mis-parsed.

The major bumps on any change an old reader would misinterpret; purely
additive fields do not bump it (readers ignore unknown keys by
contract).  A missing stamp is accepted by loaders that predate the
stamping (legacy cache entries), but the service's HTTP bodies always
carry one.

>>> check_schema("repro.result/1", RESULT_SCHEMA)
>>> try:
...     check_schema("repro.result/2", RESULT_SCHEMA)
... except Exception as exc:
...     print(type(exc).__name__)
SchemaError
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.common.errors import SchemaError

#: :class:`repro.harness.runner.RunResult` dict/JSON payloads.
RESULT_SCHEMA = "repro.result/1"

#: :class:`repro.harness.jobs.JobSpec` wire payloads (HTTP submission).
JOBSPEC_SCHEMA = "repro.jobspec/1"

#: Envelope of every ``repro serve`` HTTP body (requests and responses).
SERVE_SCHEMA = "repro.serve/1"


def parse_stamp(stamp: str) -> Tuple[str, int]:
    """Split a ``family/major`` stamp; raises :class:`SchemaError` on
    anything that is not one."""
    if not isinstance(stamp, str) or "/" not in stamp:
        raise SchemaError(
            f"malformed schema stamp {stamp!r}; expected 'family/major' "
            "like 'repro.result/1'"
        )
    family, _, major = stamp.rpartition("/")
    try:
        return family, int(major)
    except ValueError:
        raise SchemaError(
            f"malformed schema stamp {stamp!r}; major version "
            f"{major!r} is not an integer"
        ) from None


def check_schema(
    stamp: Optional[str], expected: str, what: str = ""
) -> None:
    """Validate a payload's stamp against what this build speaks.

    ``None`` passes (legacy payloads predate stamping); a different
    family or major raises :class:`SchemaError` naming both sides, so
    the error a mismatched client/server pair sees says exactly what to
    upgrade.
    """
    if stamp is None:
        return
    family, major = parse_stamp(stamp)
    exp_family, exp_major = parse_stamp(expected)
    if family != exp_family or major != exp_major:
        label = what or exp_family.rpartition(".")[2]
        raise SchemaError(
            f"incompatible {label} payload: got schema {stamp!r}, this "
            f"build speaks {expected!r} (major versions must match)"
        )
