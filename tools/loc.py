"""Code lines per module of a Python package: non-blank lines that are
neither inside a docstring (module, class or function; spans read from
the AST) nor comment-only (read with ``tokenize``). A line holding code
and a trailing comment counts as code.

Usage: python tools/loc.py [PACKAGE_DIR]   (default: sotohp_ray/ of
this checkout)

Prints one ``lines  module`` row per file, sorted by path, then the
total. Run it on two checkouts to compare them.
"""

from __future__ import annotations

import ast
import io
import os
import sys
import tokenize


def code_lines(src: str) -> int:
    lines = src.splitlines()
    skip = set()
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skip.update(range(body[0].lineno, body[0].end_lineno + 1))
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type == tokenize.COMMENT:
            row = tok.start[0]
            if not lines[row - 1][: tok.start[1]].strip():
                skip.add(row)
    return sum(
        1 for i, line in enumerate(lines, 1)
        if line.strip() and i not in skip
    )


def main() -> None:
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        here, "sotohp_ray")
    rows = []
    for d, _, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(path, encoding="utf-8") as f:
                    rows.append((os.path.relpath(path, root),
                                 code_lines(f.read())))
    for rel, n in sorted(rows):
        print(f"{n:7d}  {rel}")
    print(f"{sum(n for _, n in rows):7d}  total")


if __name__ == "__main__":
    main()
