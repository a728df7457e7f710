"""Count the lines of Python files as code, docstring, comment and blank.

    python3 tools/line_split.py src/sparsepg/*.py

A docstring line is any line of a module, class or function docstring, found
with ``ast``; a comment line holds only a comment; a blank line holds only
whitespace outside a docstring; every other line is code.  Prints one row per
file and a total row.
"""

from __future__ import annotations

import ast
import sys

KINDS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict[str, int]:
    """The number of lines of each kind in the source ``text``."""
    docstring = set()
    owners = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, owners) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif not stripped:
            counts["blank"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        else:
            counts["code"] += 1
    return counts


def main(paths: list[str]) -> int:
    total = dict.fromkeys(KINDS, 0)
    print(f"{'':40s}" + "".join(f"{kind:>10s}" for kind in KINDS))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts = split(fh.read())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(f"{path:40s}" + "".join(f"{counts[kind]:>10d}" for kind in KINDS))
    print(f"{'total':40s}" + "".join(f"{total[kind]:>10d}" for kind in KINDS))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
