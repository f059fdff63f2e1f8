"""RPR002: protocol exhaustiveness across process boundaries.

The shard tier speaks tagged tuples over pipes (``("knn", ...)`` ->
``("ok", ...)``); the serve tier speaks :class:`Request` kinds.  A tag
added on one side without a handler arm on the other is exactly the
kind of drift that ships green (nothing statically connects the two
files) and then fails in production the first time the new tag crosses
the boundary.

The rule checks the :data:`CHANNELS` below.  Each channel names
sender scopes and handler scopes (package-relative ``path`` or
``path::qualname`` selectors):

* **sent tags** are the first-element string constants of tuple
  literals passed to (or assigned to names passed to) ``send``-like
  calls inside sender scopes;
* **handled tags** are string constants compared (``==``/``!=``/
  ``in``) against a tag expression inside handler scopes;
* a channel may instead declare ``kinds_from = "path::NAME"`` to read
  the tag universe from a module-level tuple of strings (the serve
  protocol's ``KINDS``).

Every sent tag (or declared kind) must be handled.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from repro.analysis.core import (
    Finding,
    Module,
    Rule,
    scope_nodes,
    terminal_name,
)

#: Call names that move a message across a channel.
SEND_CALLS = {"send", "request", "submit", "_send_frame"}


@dataclass(frozen=True)
class Channel:
    name: str
    handlers: tuple[str, ...]
    senders: tuple[str, ...] = ()
    kinds_from: str | None = None


#: Every channel the package speaks.
CHANNELS = (
    Channel(
        "shard-pipe-requests",
        senders=("shard/worker.py::ShardWorker", "shard/worker.py::ShardGroup"),
        handlers=("shard/worker.py::_shard_worker_main",),
    ),
    Channel(
        "serve-kinds",
        kinds_from="serve/protocol.py::KINDS",
        handlers=("serve/server.py",),
    ),
)


def _split_selector(selector: str) -> tuple[str, str | None]:
    if "::" in selector:
        path, _, qual = selector.partition("::")
        return path, qual
    return selector, None


def _select(
    modules: Sequence[Module], selector: str
) -> list[tuple[Module, ast.AST]]:
    path, qual = _split_selector(selector)
    out: list[tuple[Module, ast.AST]] = []
    for module in modules:
        if module.rel != path:
            continue
        for node in scope_nodes(module, qual):
            out.append((module, node))
    return out


def _tuple_tag(expr: ast.expr) -> str | None:
    if (
        isinstance(expr, ast.Tuple)
        and expr.elts
        and isinstance(expr.elts[0], ast.Constant)
        and isinstance(expr.elts[0].value, str)
    ):
        return expr.elts[0].value
    return None


class ProtocolExhaustivenessRule(Rule):
    rule_id = "RPR002"

    def finalize(self, modules: Sequence[Module]) -> Iterable[Finding]:
        findings: list[Finding] = []
        for channel in CHANNELS:
            findings.extend(self._check_channel(modules, channel))
        return findings

    # ------------------------------------------------------------------
    def _check_channel(
        self, modules: Sequence[Module], channel: Channel
    ) -> Iterable[Finding]:
        sent: dict[str, tuple[Module, int]] = {}
        if channel.kinds_from is not None:
            sent.update(self._declared_kinds(modules, channel.kinds_from))
        for selector in channel.senders:
            for module, scope in _select(modules, selector):
                for tag, line in self._sent_tags(scope):
                    sent.setdefault(tag, (module, line))
        handled = {
            tag
            for selector in channel.handlers
            for _module, scope in _select(modules, selector)
            for tag, _line in self._handled_tags(scope)
        }
        for tag in sorted(set(sent) - handled):
            module, line = sent[tag]
            yield self.finding(
                module,
                line,
                f"{channel.name}: tag {tag!r} is sent but no handler arm "
                f"matches it on the receiving side",
            )

    def _declared_kinds(
        self, modules: Sequence[Module], selector: str
    ) -> dict[str, tuple[Module, int]]:
        path, varname = _split_selector(selector)
        kinds: dict[str, tuple[Module, int]] = {}
        for module in modules:
            if module.rel != path:
                continue
            for node in module.tree.body:
                if not isinstance(node, ast.Assign):
                    continue
                if not any(
                    isinstance(t, ast.Name) and t.id == varname
                    for t in node.targets
                ):
                    continue
                if isinstance(node.value, (ast.Tuple, ast.List)):
                    for element in node.value.elts:
                        if isinstance(element, ast.Constant) and isinstance(
                            element.value, str
                        ):
                            kinds[element.value] = (module, node.lineno)
        return kinds

    # ------------------------------------------------------------------
    def _sent_tags(self, scope: ast.AST) -> list[tuple[str, int]]:
        tagged_names: dict[str, tuple[str, int]] = {}
        tags: list[tuple[str, int]] = []
        for node in ast.walk(scope):
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                tag = _tuple_tag(node.value)
                if isinstance(target, ast.Name) and tag is not None:
                    tagged_names[target.id] = (tag, node.value.lineno)
            if not isinstance(node, ast.Call):
                continue
            if terminal_name(node.func) not in SEND_CALLS:
                continue
            for arg in node.args:
                tag = _tuple_tag(arg)
                if tag is not None:
                    tags.append((tag, arg.lineno))
                elif isinstance(arg, ast.Name) and arg.id in tagged_names:
                    tags.append(tagged_names[arg.id])
        return tags

    def _handled_tags(self, scope: ast.AST) -> list[tuple[str, int]]:
        tags: list[tuple[str, int]] = []
        for node in ast.walk(scope):
            if not isinstance(node, ast.Compare):
                continue
            sides = [node.left, *node.comparators]
            constants = [
                s.value
                for s in sides
                if isinstance(s, ast.Constant) and isinstance(s.value, str)
            ]
            # Membership tests against literal tag collections:
            # ``kind in ("a", "b")``.
            for op, comparator in zip(node.ops, node.comparators, strict=True):
                if isinstance(op, (ast.In, ast.NotIn)) and isinstance(
                    comparator, (ast.Tuple, ast.List, ast.Set)
                ):
                    constants.extend(
                        e.value
                        for e in comparator.elts
                        if isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                    )
            if not constants:
                continue
            if any(self._is_tag_expr(s) for s in sides):
                tags.extend((value, node.lineno) for value in constants)
        return tags

    @staticmethod
    def _is_tag_expr(expr: ast.expr) -> bool:
        """Heuristic: does this expression read a message tag?

        Matches ``x[0]`` subscripts, plain names / attributes called
        ``kind`` or ``tag``, and nothing else -- so unrelated string
        comparisons in handler scopes stay out of the tag universe.
        """
        if isinstance(expr, ast.Subscript):
            index = expr.slice
            return (
                isinstance(index, ast.Constant) and index.value == 0
            )
        if isinstance(expr, ast.Name):
            return expr.id in ("kind", "tag")
        if isinstance(expr, ast.Attribute):
            return expr.attr in ("kind", "tag")
        return False
