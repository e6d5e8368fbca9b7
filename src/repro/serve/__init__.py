"""``repro serve``: a long-running experiment service over HTTP/JSON.

The service wraps the existing engine substrate -- the durable
:class:`~repro.resilience.store.JobStore`, the supervised worker fleet,
and the content-addressed result cache -- behind a small versioned
HTTP API, so many clients can share one execution backend and one
cache.  See :mod:`repro.serve.server` for the endpoint list,
:mod:`repro.serve.wire` for the JSON formats, :mod:`repro.client` for
the Python client, and ``docs/SERVICE.md`` for the guide.

Start it from the CLI::

    python -m repro serve --cache-dir .repro-cache --workers 4

or embed it (tests do this; ``port=0`` picks a free port)::

    from repro.serve import Server
    srv = Server(cache_dir=tmp, port=0).start()
    ...  # talk to srv.url
    srv.stop()
"""

#: Re-exported name -> the submodule that defines it, imported on first
#: access (the client imports :mod:`repro.serve.wire` alone, without
#: the server's asyncio stack).
_EXPORTS = {
    "DEFAULT_HOST": "server",
    "DEFAULT_PORT": "server",
    "Server": "server",
    "serve": "server",
    "SWEEP_ID_LEN": "wire",
    "expand_sweep_request": "wire",
    "sweep_id": "wire",
    "sweep_record": "wire",
}


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = sorted(_EXPORTS)
