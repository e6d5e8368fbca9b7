"""Smoke tests: every example script runs to completion and validates
its own output (examples assert functional correctness internally)."""

import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).parent.parent / "examples").glob("*.py")
)


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert "observability.py" in names
    assert len(EXAMPLES) >= 3


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    # Temporary files an example leaves (observability.py keeps its
    # report directory for the reader) land in tmp_path, which pytest
    # cleans up, not in the system temp dir.
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        text=True,
        timeout=600,
        env={**os.environ, "TMPDIR": str(tmp_path)},
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()
