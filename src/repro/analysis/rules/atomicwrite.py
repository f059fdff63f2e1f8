"""RPR003: persistence must go through the integrity staging helpers.

Invariant 5 (ARCHITECTURE.md): an interrupted save never leaves a
silently-corrupt index.  That only holds if every byte of index /
label / shard persistence flows through
``repro.integrity`` -- either inside a ``with atomic_directory(...)
as tmp:`` staging block, or via one of its atomic single-file
helpers.  A bare ``open(..., "w")``, ``np.save`` or ``json.dump``
against a real destination path re-introduces the torn-write window
the helpers exist to close.

Within the persistence packages (``silc/``, ``oracle/``, ``shard/``)
this rule flags any write primitive (``open`` with a writing mode,
``Path.open`` with a writing mode, ``write_text``/``write_bytes``,
``np.save*``, ``json.dump``, ``pickle.dump``) whose destination does
not mention a staging name -- a variable bound by ``with
atomic_directory(...) as tmp:``.  The
integrity module itself is outside that scope: it is where the unsafe
primitives are allowed to live, wrapped in the publish-by-rename dance.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.core import Finding, Module, Rule, terminal_name

WRITE_MODES = ("w", "a", "x", "+")

NUMPY_WRITERS = {"save", "savez", "savez_compressed"}

DUMPERS = {"json", "pickle"}


def _writing_mode(call: ast.Call, mode_index: int) -> bool:
    mode: ast.expr | None = None
    if len(call.args) > mode_index:
        mode = call.args[mode_index]
    for keyword in call.keywords:
        if keyword.arg == "mode":
            mode = keyword.value
    if mode is None:
        return False
    return (
        isinstance(mode, ast.Constant)
        and isinstance(mode.value, str)
        and any(flag in mode.value for flag in WRITE_MODES)
    )


class AtomicWriteRule(Rule):
    rule_id = "RPR003"
    scope = ("silc", "oracle", "shard")

    def check_module(self, module: Module) -> Iterable[Finding]:
        return list(self._walk_body(module, module.tree.body, set()))

    # ------------------------------------------------------------------
    def _walk_body(
        self, module: Module, stmts: list[ast.stmt], staging: set[str]
    ) -> Iterator[Finding]:
        for stmt in stmts:
            inner = set(staging)
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                for item in stmt.items:
                    if (
                        isinstance(item.context_expr, ast.Call)
                        and self._is_staging_call(item.context_expr)
                        and isinstance(item.optional_vars, ast.Name)
                    ):
                        inner.add(item.optional_vars.id)
                    else:
                        yield from self._check_expr(
                            module, item.context_expr, staging
                        )
                yield from self._walk_body(module, stmt.body, inner)
                continue
            for field_name, value in ast.iter_fields(stmt):
                if field_name in ("body", "orelse", "finalbody", "handlers"):
                    continue
                yield from self._check_field(module, value, staging)
            for block_name in ("body", "orelse", "finalbody"):
                block = getattr(stmt, block_name, None)
                if block:
                    yield from self._walk_body(module, block, staging)
            for handler in getattr(stmt, "handlers", ()) or ():
                yield from self._walk_body(module, handler.body, staging)

    def _check_field(
        self, module: Module, value: object, staging: set[str]
    ) -> Iterator[Finding]:
        if isinstance(value, ast.expr):
            yield from self._check_expr(module, value, staging)
        elif isinstance(value, list):
            for element in value:
                if isinstance(element, ast.expr):
                    yield from self._check_expr(module, element, staging)

    def _check_expr(
        self, module: Module, expr: ast.expr, staging: set[str]
    ) -> Iterator[Finding]:
        for node in ast.walk(expr):
            if not isinstance(node, ast.Call):
                continue
            description = self._write_primitive(node)
            if description is None:
                continue
            target = self._target_expr(node)
            if target is not None and self._mentions(target, staging):
                continue
            yield self.finding(
                module,
                node.lineno,
                f"{description} outside the integrity staging helpers; "
                "stage through atomic_directory()/atomic helpers in "
                "repro.integrity so an interrupted write cannot publish",
            )

    # ------------------------------------------------------------------
    @staticmethod
    def _is_staging_call(call: ast.Call) -> bool:
        return terminal_name(call.func) == "atomic_directory"

    @staticmethod
    def _write_primitive(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name) and func.id == "open":
            if _writing_mode(call, mode_index=1):
                return "bare open() in a writing mode"
            return None
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr == "open" and _writing_mode(call, mode_index=0):
            return "Path.open() in a writing mode"
        if func.attr in ("write_text", "write_bytes"):
            return f"Path.{func.attr}()"
        base = func.value
        if isinstance(base, ast.Name):
            if base.id in ("np", "numpy") and func.attr in NUMPY_WRITERS:
                return f"np.{func.attr}()"
            if base.id in DUMPERS and func.attr == "dump":
                return f"{base.id}.dump()"
        return None

    @staticmethod
    def _target_expr(call: ast.Call) -> ast.expr | None:
        func = call.func
        if isinstance(func, ast.Name):  # open(path, ...)
            return call.args[0] if call.args else None
        if isinstance(func, ast.Attribute):
            if func.attr in ("open", "write_text", "write_bytes"):
                return func.value
            # np.save(path, arr) / json.dump(obj, fp)
            if func.attr in NUMPY_WRITERS:
                return call.args[0] if call.args else None
            if func.attr == "dump":
                return call.args[1] if len(call.args) > 1 else None
        return None

    @staticmethod
    def _mentions(expr: ast.expr, names: set[str]) -> bool:
        return any(
            isinstance(node, ast.Name) and node.id in names
            for node in ast.walk(expr)
        )
