"""One documented resolver for every ``REPRO_*`` environment knob.

The engine, the CLI, the benchmark suite, and the experiment service
each grew their own ``os.environ`` reads (``REPRO_WORKERS`` in
:mod:`repro.harness.jobs`, ``REPRO_BENCH_FULL`` in ``benchmarks/``, and
so on), with the parsing and the unset-means-what semantics duplicated at
every site.  This module is now the single place a knob is named,
parsed, defaulted, and documented -- everything else calls the typed
accessors below.

Resolution order is always ``explicit override > environment >
default``: every accessor takes an optional ``override`` that wins when
it is not ``None``, so call sites can thread a CLI flag straight
through (``config.workers(args.workers)``).

>>> import os
>>> os.environ.pop("REPRO_WORKERS", None) and None
>>> workers() is None          # unset -> no parallelism requested
True
>>> workers(4)                 # explicit override always wins
4
>>> os.environ["REPRO_WORKERS"] = "8"
>>> workers()
8
>>> del os.environ["REPRO_WORKERS"]
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional


def _parse_int(raw: str) -> Optional[int]:
    value = int(raw)
    return value if value > 0 else None


def _parse_str(raw: str) -> Optional[str]:
    return raw or None


def _parse_bool(raw: str) -> bool:
    return raw.strip().lower() not in ("", "0", "false", "no", "off")


@dataclass(frozen=True)
class Knob:
    """One environment variable: where it lives, how it parses, what it
    means when unset."""

    env: str
    parse: Callable[[str], object]
    default: object
    doc: str


#: Every environment variable the package reads, in one table.  New
#: knobs are added here (and only here); ``describe()`` renders the
#: table for docs and ``--help`` text.
KNOBS: Dict[str, Knob] = {
    "workers": Knob(
        "REPRO_WORKERS",
        _parse_int,
        None,
        "worker-process count for engine sweeps (unset/0 = serial)",
    ),
    "cache_dir": Knob(
        "REPRO_CACHE_DIR",
        _parse_str,
        None,
        "result-cache root for engine sweeps (unset = no caching)",
    ),
    "server": Knob(
        "REPRO_SERVER",
        _parse_str,
        None,
        "base URL of a running `repro serve` instance, e.g. "
        "http://127.0.0.1:8765 (unset = no default server)",
    ),
    "bench_full": Knob(
        "REPRO_BENCH_FULL",
        _parse_bool,
        False,
        "run the paper-sized benchmark grids (16 and 64 cores, full "
        "scale) instead of the CI-sized ones",
    ),
}


def get(name: str, override=None):
    """Resolve one knob by table name: ``override`` if given, else the
    parsed environment value, else the documented default.  An
    unparseable environment value is a :class:`ConfigError` naming the
    variable -- silently falling back would turn a typo'd
    ``REPRO_WORKERS=lots`` into a mysteriously serial sweep."""
    from repro.common.errors import ConfigError

    knob = KNOBS.get(name)
    if knob is None:
        raise ConfigError(
            f"unknown config knob {name!r}; known: {sorted(KNOBS)}"
        )
    if override is not None:
        return override
    raw = os.environ.get(knob.env)
    if raw is None:
        return knob.default
    try:
        return knob.parse(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{knob.env}={raw!r} is unparseable: {knob.doc}"
        ) from None


# ---------------------------------------------------------------------------
# Typed accessors (the public surface call sites use)
# ---------------------------------------------------------------------------
def workers(override: Optional[int] = None) -> Optional[int]:
    """Engine worker-process count; ``None`` means run serially."""
    return get("workers", override)


def cache_dir(override=None) -> Optional[str]:
    """Engine result-cache root; ``None`` disables caching."""
    value = get("cache_dir", override)
    return str(value) if value is not None else None


def server(override: Optional[str] = None) -> Optional[str]:
    """Default ``repro serve`` base URL for :mod:`repro.client`."""
    return get("server", override)


def bench_full(override: Optional[bool] = None) -> bool:
    return bool(get("bench_full", override))


def describe() -> str:
    """Human-readable table of every knob, its variable, and its
    meaning (rendered into docs and CLI help)."""
    width = max(len(k.env) for k in KNOBS.values())
    return "\n".join(
        f"{knob.env:<{width}}  {knob.doc}" for knob in KNOBS.values()
    )
