"""RPR001: lock discipline -- a lightweight static race detector.

For every class that owns a lock (an attribute assigned
``threading.Lock()``/``RLock()``, or any attribute named ``*_lock`` /
``*_locks``), the rule computes the set of *guarded* attributes:
attributes mutated at least once inside a ``with self._lock:`` block
(outside ``__init__``).  Any mutation of a guarded attribute that is
**not** under the lock is a finding -- the classic
"incremented under the lock here, incremented bare over there" race
that unit tests only catch probabilistically.

The dataflow is deliberately shallow but matches the codebase's
idioms:

* ``with self._lock:`` and ``with self.<name>_lock:`` (a ``_stats_lock``,
  say) directly;
* lock handles bound first (``lock = self._respawn_locks.setdefault(
  shard, threading.Lock())`` ... ``with lock:``);
* attribute aliases (``s = self.stats`` ... ``s.queries += 1`` counts
  as a mutation of ``stats``);
* mutating method calls (``append``/``add``/``pop``/``update``/...),
  subscript stores, ``setattr(self.x, ...)`` and plain/augmented
  assignment.

Mutations inside ``__init__`` are construction, not contention, and
are exempt.  Nested function bodies are skipped: their execution
point (inside or outside the lock) is unknowable statically.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Iterator

from repro.analysis.core import Finding, Module, Rule

#: Call names that construct a lock.
LOCK_FACTORIES = {"Lock", "RLock"}

#: Method names that mutate their receiver in place.
MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "move_to_end", "pop", "popitem", "remove", "setdefault",
    "update",
}

#: Attribute names treated as locks by naming convention.
LOCK_NAME_SUFFIXES = ("_lock", "_locks")


def _is_self(expr: ast.expr) -> bool:
    return isinstance(expr, ast.Name) and expr.id == "self"


def _self_attr(expr: ast.expr, aliases: dict[str, str]) -> str | None:
    """Resolve an expression to the ``self`` attribute it roots in.

    ``self.stats.queries`` -> ``stats``; ``self.workers[k]`` ->
    ``workers``; an alias name bound from ``self.X`` -> ``X``.
    """
    node = expr
    last_attr: str | None = None
    while True:
        if isinstance(node, ast.Attribute):
            last_attr = node.attr
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            if node.id == "self":
                return last_attr
            alias = aliases.get(node.id)
            if alias is not None:
                return alias
            return None
        else:
            return None


class LockDisciplineRule(Rule):
    rule_id = "RPR001"

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(module, node))
        return findings

    # ------------------------------------------------------------------
    def _check_class(
        self, module: Module, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            n
            for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lock_attrs = self._lock_attrs(methods)
        if not lock_attrs:
            return
        # (attr, node, locked, method) for every mutation in the class.
        mutations: list[tuple[str, ast.AST, bool, str]] = []
        for method in methods:
            aliases: dict[str, str] = {}
            lock_names: set[str] = set()
            for attr, node, locked in self._walk(
                method.body, False, lock_attrs, aliases, lock_names
            ):
                mutations.append((attr, node, locked, method.name))
        guarded = {
            attr
            for attr, _node, locked, method in mutations
            if locked and method != "__init__"
        }
        for attr, node, locked, method in mutations:
            if locked or method == "__init__" or attr not in guarded:
                continue
            yield self.finding(
                module,
                node.lineno,
                f"{cls.name}.{attr} is mutated under a lock elsewhere "
                f"but written here ({method}) without one",
            )

    def _lock_attrs(
        self, methods: list[ast.FunctionDef | ast.AsyncFunctionDef]
    ) -> set[str]:
        locks: set[str] = set()
        for method in methods:
            for node in ast.walk(method):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if not (
                        isinstance(target, ast.Attribute)
                        and _is_self(target.value)
                    ):
                        continue
                    if target.attr.endswith(LOCK_NAME_SUFFIXES):
                        locks.add(target.attr)
                    elif any(
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, (ast.Name, ast.Attribute))
                        and (
                            sub.func.id
                            if isinstance(sub.func, ast.Name)
                            else sub.func.attr
                        )
                        in LOCK_FACTORIES
                        for sub in ast.walk(node.value)
                    ):
                        locks.add(target.attr)
        return locks

    # ------------------------------------------------------------------
    def _walk(
        self,
        stmts: list[ast.stmt],
        locked: bool,
        lock_attrs: set[str],
        aliases: dict[str, str],
        lock_names: set[str],
    ) -> Iterator[tuple[str, ast.AST, bool]]:
        """Yield ``(attr, node, locked)`` mutations, tracking locks."""
        for stmt in stmts:
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                takes_lock = any(
                    self._mentions_lock(
                        item.context_expr, lock_attrs, lock_names
                    )
                    for item in stmt.items
                )
                yield from self._walk(
                    stmt.body,
                    locked or takes_lock,
                    lock_attrs,
                    aliases,
                    lock_names,
                )
            elif isinstance(stmt, (ast.If, ast.While)):
                yield from self._walk(
                    stmt.body, locked, lock_attrs, aliases, lock_names
                )
                yield from self._walk(
                    stmt.orelse, locked, lock_attrs, aliases, lock_names
                )
            elif isinstance(stmt, (ast.For, ast.AsyncFor)):
                yield from self._walk(
                    stmt.body, locked, lock_attrs, aliases, lock_names
                )
                yield from self._walk(
                    stmt.orelse, locked, lock_attrs, aliases, lock_names
                )
            elif isinstance(stmt, ast.Try):
                for block in (stmt.body, stmt.orelse, stmt.finalbody):
                    yield from self._walk(
                        block, locked, lock_attrs, aliases, lock_names
                    )
                for handler in stmt.handlers:
                    yield from self._walk(
                        handler.body, locked, lock_attrs, aliases, lock_names
                    )
            elif isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue  # execution point unknowable; skip nested scopes
            else:
                self._record_bindings(
                    stmt, lock_attrs, aliases, lock_names
                )
                for attr, node in self._mutations_in(stmt, aliases):
                    yield attr, node, locked

    def _record_bindings(
        self,
        stmt: ast.stmt,
        lock_attrs: set[str],
        aliases: dict[str, str],
        lock_names: set[str],
    ) -> None:
        if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
            return
        target = stmt.targets[0]
        if not isinstance(target, ast.Name):
            return
        value = stmt.value
        # name = self.X  -> attribute alias
        if isinstance(value, ast.Attribute) and _is_self(value.value):
            aliases[target.id] = value.attr
        # name = <expr touching a lock attribute> -> lock handle
        if self._mentions_lock(value, lock_attrs, set()):
            lock_names.add(target.id)

    def _mentions_lock(
        self,
        expr: ast.expr,
        lock_attrs: set[str],
        lock_names: set[str],
    ) -> bool:
        for node in ast.walk(expr):
            if (
                isinstance(node, ast.Attribute)
                and _is_self(node.value)
                and node.attr in lock_attrs
            ):
                return True
            if isinstance(node, ast.Name) and node.id in lock_names:
                return True
        return False

    def _mutations_in(
        self, stmt: ast.stmt, aliases: dict[str, str]
    ) -> Iterator[tuple[str, ast.AST]]:
        if isinstance(stmt, ast.Assign):
            targets: list[ast.expr] = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        else:
            targets = []
        for target in targets:
            attr = self._mutated_attr(target, aliases)
            if attr is not None:
                yield attr, target
        for node in ast.walk(stmt):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in MUTATORS
            ):
                attr = _self_attr(func.value, aliases)
                if attr is not None:
                    yield attr, node
            elif (
                isinstance(func, ast.Name)
                and func.id in ("setattr", "delattr")
                and node.args
            ):
                attr = _self_attr(node.args[0], aliases)
                if attr is not None:
                    yield attr, node

    def _mutated_attr(
        self, target: ast.expr, aliases: dict[str, str]
    ) -> str | None:
        # Direct rebinding (self.x = ...) or a store through a
        # subscript/attribute chain rooted at self (self.x[k] = ...,
        # self.x.field = ..., alias.field = ...).
        if isinstance(target, ast.Attribute) and _is_self(target.value):
            return target.attr
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            return _self_attr(target, aliases)
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                attr = self._mutated_attr(element, aliases)
                if attr is not None:
                    return attr
        return None
