"""The package's public surface and the repository's line counter."""
import subprocess
import sys
from pathlib import Path

import shellprop

CODE_LINES = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

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
