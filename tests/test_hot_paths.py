"""Source checks on the simulator's hot modules.

On Python 3.11 reading an enum member through its class
(``SyncOp.LOCK``) goes through the ``EnumType`` metaclass and costs
about four plain attribute reads, so the sync and cache paths read
members through module-level aliases (``_LOCK = SyncOp.LOCK``) instead.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

HOT_MODULES = (
    "runtime/syncapi.py",
    "runtime/thread.py",
    "msa/isa.py",
    "msa/slice.py",
    "msa/omu.py",
    "msa/ideal.py",
    "mem/l1.py",
)
ENUMS = {"SyncOp", "SyncResult", "SyncType", "CacheState"}


def _member_reads_in_functions(tree):
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        body = func.body if isinstance(func.body, list) else [func.body]
        for statement in body:
            for node in ast.walk(statement):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ENUMS
                    and node.attr.isupper()
                ):
                    yield f"{node.value.id}.{node.attr} at line {node.lineno}"


@pytest.mark.parametrize("module", HOT_MODULES)
def test_no_enum_member_read_through_class_in_functions(module):
    tree = ast.parse((SRC / module).read_text())
    assert list(_member_reads_in_functions(tree)) == []


def test_detector_flags_a_class_read():
    tree = ast.parse("def f(op):\n    return op is SyncOp.LOCK\n")
    assert list(_member_reads_in_functions(tree)) == ["SyncOp.LOCK at line 2"]
