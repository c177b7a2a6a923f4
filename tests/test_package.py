"""The package's public surface and the repository's line counter."""
import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import shellprop

ROOT = Path(__file__).resolve().parents[1]
CODE_LINES = ROOT / "tools" / "code_lines.py"

#: 18 lines, 8 of them code: the import, the def, the 4 lines of the call,
#: the assigned literal and the return; docstrings, comments and blank
#: lines are not code.
MODULE = '''"""Module docstring.

Its second paragraph.
"""
# a comment

import os  # a trailing comment


def join(x):
    """Function docstring."""
    # a comment inside
    y = os.path.join(
        "a",
        x,
    )
    s = "an assigned literal"
    return y + s
'''


def test_code_lines_counts_a_module(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(MODULE)
    out = subprocess.run(
        [sys.executable, str(CODE_LINES), str(path)], capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert out[1].split() == ["18", "8", "module.py"]
    assert out[2].split() == ["18", "8", "total"]


def test_every_export_resolves():
    missing = [name for name in shellprop.__all__ if not hasattr(shellprop, name)]
    assert not missing
    assert len(set(shellprop.__all__)) == len(shellprop.__all__)


def shellprop_reads(path: Path) -> list[tuple[str, str]]:
    """(module, name) for each ``sp.<name>`` or ``ctx.sp.<name>`` read in a
    benchmark file, where ``sp`` is the shellprop package, and each name a
    ``from shellprop[.module] import`` brings in."""
    reads = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "shellprop":
            reads += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            owner = node.value
            if (isinstance(owner, ast.Name) and owner.id == "sp") or (
                isinstance(owner, ast.Attribute) and owner.attr == "sp"
            ):
                reads.append(("shellprop", node.attr))
    return reads


@pytest.mark.parametrize("name", ["run.py", "test_bench.py"])
def test_every_name_the_benchmark_reads_resolves(name):
    reads = shellprop_reads(ROOT / "bench" / name)
    assert reads
    missing = [(module, attr) for module, attr in reads if not hasattr(importlib.import_module(module), attr)]
    assert not missing
