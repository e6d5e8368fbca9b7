"""Import budget: each entry point loads only what it runs.

Every case runs in a fresh interpreter, which prints the ``repro``
modules loaded once its snippet is done, so no import made by another
test (or by pytest's collection) can hide one made here.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys
import textwrap
from typing import List, Sequence

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def loaded_after(snippet: str, arg, also: Sequence[str] = ()) -> List[str]:
    """The ``repro`` modules, and those of ``also`` (other module
    names), a fresh interpreter holds after ``snippet`` (run with
    ``sys.argv[1]`` bound to ``arg``: a scratch directory or a URL)."""
    code = textwrap.dedent(snippet) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps(sorted(
            m for m in sys.modules
            if m == "repro" or m.startswith("repro.") or m in {list(also)!r}
        )))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(arg)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def under(modules: List[str], *packages: str) -> List[str]:
    """The modules that are one of ``packages`` or inside one."""
    return [
        m for m in modules
        if any(m == p or m.startswith(p + ".") for p in packages)
    ]


KERNEL_PREFIX = "repro.workloads.kernels."


def test_engine_loads_no_simulator(tmp_path):
    mods = loaded_after(
        """
        import sys
        from repro.harness.jobs import Engine
        Engine(workers=2, cache_dir=sys.argv[1])
        """,
        tmp_path,
    )
    assert "repro.harness.jobs" in mods
    assert under(mods, "repro.machine", "repro.sim.kernel", "repro.faults",
                 "repro.traffic") == []
    assert [m for m in mods if m.startswith(KERNEL_PREFIX)] == []


def test_first_point_loads_only_its_own_models(tmp_path):
    mods = loaded_after(
        """
        from repro.harness.configs import build_machine
        from repro.harness.jobs import resolve_factory
        build_machine("msa-omu-2", n_cores=16)
        resolve_factory("streamcluster")(64, scale=4.0)
        """,
        tmp_path,
    )
    assert "repro.machine" in mods
    assert under(mods, "repro.faults", "repro.traffic", "repro.msa.ideal") == []
    assert [m for m in mods if m.startswith(KERNEL_PREFIX)] == [
        KERNEL_PREFIX + "streamcluster"
    ]


def test_cli_help_loads_no_machine(tmp_path):
    mods = loaded_after(
        """
        import contextlib, io, runpy, sys
        sys.argv = ["repro", "--help"]
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:
                assert exc.code == 0, exc.code
        assert "fig9" in out.getvalue()
        """,
        tmp_path,
    )
    assert "repro.harness.experiments" in mods
    assert under(mods, "repro.machine", "repro.sim") == []


def test_fault_plan_and_ideal_load_on_use(tmp_path):
    mods = loaded_after(
        """
        from repro.faults import drop_plan
        from repro.harness.configs import build_machine
        m = build_machine("msa-omu-2", n_cores=4, fault_plan=drop_plan(0.1))
        assert m.fault_injector is not None and m.transport is not None
        assert build_machine("ideal", n_cores=4).ideal_oracle is not None
        """,
        tmp_path,
    )
    assert "repro.faults" in mods
    assert "repro.msa.ideal" in mods


def test_pooled_run_loads_the_stack_before_forking(tmp_path):
    mods = loaded_after(
        """
        import sys
        from repro.harness.jobs import Engine, JobSpec
        specs = [JobSpec("pthread", "canneal", cores=4, scale=0.05, seed=s)
                 for s in (1, 2)]
        jobs = Engine(workers=2, cache_dir=sys.argv[1]).run(specs)
        assert all(job.ok and not job.cached for job in jobs)
        """,
        tmp_path,
    )
    assert "repro.machine" in mods
    assert KERNEL_PREFIX + "canneal" in mods


HTTP_STACK = ("http.client", "email.parser", "ssl")


def test_client_loads_no_http_stack(tmp_path):
    """The client speaks HTTP/1.1 itself: importing it, and a request
    to a live server, load neither ``http.client`` (with its
    ``email.parser``) nor ``ssl``."""
    mods = loaded_after("import repro.client", tmp_path, also=HTTP_STACK)
    assert "repro.client" in mods
    assert [m for m in mods if m in HTTP_STACK] == []
    assert under(mods, "repro.serve.server") == []

    from repro.serve import Server

    srv = Server(cache_dir=tmp_path, port=0).start()
    try:
        mods = loaded_after(
            """
            import sys
            from repro.client import Client
            assert Client(sys.argv[1]).healthz()["ok"]
            """,
            srv.url,
            also=HTTP_STACK,
        )
    finally:
        srv.stop()
    assert [m for m in mods if m in HTTP_STACK] == []
