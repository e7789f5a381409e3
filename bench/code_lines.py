#!/usr/bin/env python3
"""Counts the code lines of each module of the ffast2d package.

A code line holds at least one token that is neither a comment nor part
of a docstring; blank, comment and docstring lines are left out. A
string that spans lines as part of an expression counts on every line.
Like decode_digest.py, it takes --src, so two trees are counted alike:

  python3 bench/code_lines.py
  python3 bench/code_lines.py --src ../parent/src
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """Lines of every statement that is a bare string literal."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    docs = _docstring_lines(ast.parse(text))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, default=SRC,
                        help="source tree holding the ffast2d package")
    args = parser.parse_args(argv)
    total = 0
    for path in sorted((args.src / "ffast2d").glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%-14s %5d" % (path.name, count))
    print("%-14s %5d" % ("total", total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
