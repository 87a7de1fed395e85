"""Count the lines of src/expcycles: total lines and code lines per module.

A code line holds a token that is neither a comment nor part of a module,
class or function docstring; blank lines hold none. Stdlib only, and it
sets no threshold: it prints one row per module, then the totals.

    python tools/src_lines.py
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "expcycles"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) at which each module, class or function docstring starts."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(path: Path) -> tuple[int, int]:
    """(total lines, code lines) of one module."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_starts(source)
    code = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type in _NOT_CODE or (tok.type == tokenize.STRING and tok.start in docstrings):
                continue
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main() -> int:
    totals = [0, 0]
    print(f"{'module':<16}{'total':>7}{'code':>7}")
    for path in sorted(_PACKAGE.glob("*.py")):
        lines = count(path)
        totals = [a + b for a, b in zip(totals, lines)]
        print(f"{path.name:<16}{lines[0]:>7}{lines[1]:>7}")
    print(f"{'src/ total':<16}{totals[0]:>7}{totals[1]:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
