"""Count the code lines of each module of ``src/treealg``.

A code line holds at least one token that is neither a comment nor part of
a docstring (a string that is the first statement of a module, class or
function); blank lines do not count either. Standard library only:

    python tools/code_lines.py [DIR]

prints one row "lines  module" per module of DIR (default ``src/treealg``
of this checkout), in name order, and then "lines  total".
"""
from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "treealg"
NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source: bytes) -> set[int]:
    """The line numbers covered by the docstrings of ``source``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines of the module at ``path``."""
    source = path.read_bytes()
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv: list[str]) -> int:
    src = Path(argv[0]) if argv else SRC
    rows = [(code_lines(path), path.name) for path in sorted(src.glob("*.py"))]
    width = len(str(sum(n for n, _ in rows)))
    for n, name in rows:
        print(f"{n:>{width}}  {name}")
    print(f"{sum(n for n, _ in rows):>{width}}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
