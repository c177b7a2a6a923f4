"""Count the lines of the package's modules.

    python3 tools/code_lines.py [FILE ...]

For each file (by default every ``src/shellprop/*.py`` of this checkout)
prints its ``wc -l`` line count and its code lines, then the totals.  A code
line holds a token other than a comment or a docstring, so docstrings,
comments and blank lines do not count.  A docstring is a string literal
that stands alone as a statement.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "shellprop"

#: Tokens that carry no code of their own.
_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
#: Tokens after which a string literal starts a statement.
_STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """The lines of ``path`` that hold a token other than a comment or a
    docstring."""
    with open(path, "rb") as fh:
        # comments and blank lines dropped, so a docstring's neighbours are adjacent
        skipped = (tokenize.COMMENT, tokenize.NL)
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in skipped]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if (
            tok.type == tokenize.STRING
            and (i == 0 or tokens[i - 1].type in _STATEMENT_START)
            and tokens[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        ):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(PACKAGE.glob("*.py"))
    total_wc = total_code = 0
    print(f"{'wc -l':>7} {'code':>6}  file")
    for path in paths:
        wc = len(path.read_bytes().splitlines())
        code = code_lines(path)
        total_wc += wc
        total_code += code
        print(f"{wc:>7} {code:>6}  {path.name}")
    print(f"{total_wc:>7} {total_code:>6}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
