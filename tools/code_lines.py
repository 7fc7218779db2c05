"""Count the package's code lines: the lines of ``src/twinloop/*.py`` that
hold code, leaving out blank lines, comment-only lines and docstrings (the
string that opens a module, class or function body).

A line counts when any token other than a comment, an indent or a line end
starts or continues on it, so every line of a multi-line statement or
string counts. Run from the repository root:

    python tools/code_lines.py [package_dir]

It prints one line per module, ``<lines> <file>``, and then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_spans(tree: ast.AST) -> list:
    """The (start, end) source positions, as (line, column), of each
    docstring in ``tree``."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset),
                              (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    spans = docstring_spans(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in LAYOUT:
            continue
        if any(start <= token.start < end for start, end in spans):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = Path(args[0] if args else "src/twinloop")
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
