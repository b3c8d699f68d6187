"""Count the code lines of a Python package, per module and in total.

A line counts when it holds a token other than a comment, a newline,
indentation or the end marker, and lies outside a docstring: any string
that stands alone as an expression statement, found with ``ast``.  Blank
lines, comment lines and docstrings do not count; a line that mixes code
with a trailing comment does.

    python scripts/code_lines.py [DIR]     # DIR defaults to src/rqamaps
"""
from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/rqamaps", type=Path)
    args = parser.parse_args(argv)
    modules = sorted(args.dir.rglob("*.py"))
    if not modules:
        print(f"no Python files under {args.dir}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(args.dir)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
