"""Count the lines of a Python package, module by module.

    python3 scripts/loc.py [PACKAGE_DIR]

PACKAGE_DIR defaults to ``src/smxreg`` beside this script's directory.  For
each ``*.py`` file under it, in path order, and then in total, prints all
lines and the code lines: those that are not blank, not a comment alone
and not part of the docstring of a module, class or function.
"""
from __future__ import annotations

import ast
import sys
from pathlib import Path

DEFAULT = Path(__file__).resolve().parent.parent / "src" / "smxreg"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers spanned by the docstrings of ``tree``'s module,
    classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(all lines, code lines) of one module's source."""
    lines = source.splitlines()
    docs = docstring_lines(ast.parse(source))
    code = sum(1 for i, line in enumerate(lines, 1)
               if line.strip() and not line.strip().startswith("#") and i not in docs)
    return len(lines), code


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else DEFAULT
    rows = [(str(path.relative_to(root)), *count(path.read_text()))
            for path in sorted(root.rglob("*.py"))]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, total, code in rows:
        print(f"{name:<{width}}  {total:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
