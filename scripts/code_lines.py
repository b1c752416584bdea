#!/usr/bin/env python3
"""Print the code lines of each module of the package, and their total.

A code line is any line that is not blank, not a comment, and not inside a
module, class or function docstring.  A line holding code and a trailing
comment counts; every line of a multi-line string that is not a docstring
counts.  The package is ``src/entro`` next to this script, or the directory
given as the one argument:

    python scripts/code_lines.py [DIR]
"""

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in ``source``, by the rule above."""
    docstrings: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    default = Path(__file__).resolve().parents[1] / "src" / "entro"
    parser.add_argument("dir", nargs="?", type=Path, default=default)
    args = parser.parse_args()
    modules = sorted(args.dir.glob("*.py"))
    if not modules:
        print(f"no modules in {args.dir}", file=sys.stderr)
        return 1
    total = 0
    for path in modules:
        lines = code_lines(path.read_text())
        total += lines
        print(f"{path.name:<20} {lines:>6}")
    print(f"{'total':<20} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
