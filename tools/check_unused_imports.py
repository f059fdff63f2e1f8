#!/usr/bin/env python
"""Fail on unused imports: the ``F401`` subset ``ruff.toml`` gates on ``src/``.

For where ``ruff`` is not installed (it is in CI, which runs both).
Standard-library ``ast`` only.  An imported name counts as used when
the file reads it anywhere (a ``Name`` load, the root of a dotted
access, a quoted argument / return / variable annotation) or lists it
in ``__all__``; ``from __future__`` imports, star imports, the
re-export spelling ``import x as x`` and statements carrying ``# noqa``
/ ``# noqa: F401`` are skipped.  Deliberately per file, not per scope:
it misses a name that is imported in one scope and only shadowed in
another, and would wrongly report one read solely through a quoted type
outside an annotation (``cast("Foo", x)``; this tree has none).

    python tools/check_unused_imports.py            # src/
    python tools/check_unused_imports.py src tools  # these trees / files
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

NOQA = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b", re.IGNORECASE)


def names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads, quoted annotations and ``__all__`` included."""
    used: set[str] = set()
    quoted: list[ast.expr | None] = []  # annotation slots: may hold "Foo | None"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                used.update(strings_in(node))
    for annotation in quoted:
        for text in strings_in(annotation) if annotation is not None else ():
            try:
                used.update(
                    n.id for n in ast.walk(ast.parse(text, mode="eval"))
                    if isinstance(n, ast.Name)
                )
            except SyntaxError:
                pass  # a Literal["..."] value, not a quoted type
    return used


def strings_in(node: ast.AST) -> list[str]:
    return [
        c.value for c in ast.walk(node)
        if isinstance(c, ast.Constant) and isinstance(c.value, str)
    ]


def check_file(path: Path) -> list[str]:
    """``F401`` messages for one source file."""
    source = path.read_text()
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    used = names_read(tree)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any(NOQA.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            if alias.name == "*" or alias.asname == alias.name.rpartition(".")[2]:
                continue  # star import, or the explicit re-export form
            bound = alias.asname or alias.name.partition(".")[0]
            if bound not in used:
                shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                problems.append(
                    f"{shown}:{node.lineno}: F401 `{alias.name}` imported but unused"
                )
    return problems


def main(argv: list[str]) -> int:
    roots = [Path(arg).resolve() for arg in argv] or [ROOT / "src"]
    files = sorted(
        f for root in roots for f in ([root] if root.is_file() else root.rglob("*.py"))
    )
    problems = [p for f in files for p in check_file(f)]
    for p in problems:
        print(p)
    if problems:
        print(f"{len(problems)} unused import(s)", file=sys.stderr)
        return 1
    print(f"no unused imports in {len(files)} file(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
