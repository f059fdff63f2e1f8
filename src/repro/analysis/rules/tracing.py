"""RPR006: every trace and span call site uses the real surface.

Invariant 4 (ARCHITECTURE.md): tracing never changes answers.  Off is
``None``: an untraced request carries ``trace=None`` and every call
site checks for it, so traced runs are the only ones that touch a
trace at all.  The invariant therefore reduces to two checkable facts:

* any method invoked on a ``trace`` parameter (or on a span bound
  from ``trace.span(...)`` / ``trace.begin(...)``) must exist on
  :class:`~repro.obs.trace.Trace` (or ``Span``) -- otherwise the first
  traced request raises ``AttributeError`` in production, a path the
  untraced tests never take;
* the inner-loop modules (:data:`~repro.analysis.core.KERNELS`) must
  not import ``repro.obs`` at all -- the hot path's observability
  rides on the stats objects, keeping the kernels import-light and
  tracing's cost when off literally zero.

The API is parsed from ``repro/obs/trace.py`` itself (methods plus
class-level attributes of ``Trace``/``Span``), so the rule tracks the
real surface instead of a hand-copied list.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.analysis.core import (
    KERNELS,
    Finding,
    Module,
    Rule,
    arg_names,
    iter_functions,
    path_matches,
)

#: The module defining ``Trace`` / ``Span``.
TRACE_MODULE = "obs/trace.py"

#: The observability package, by import name and by path.
OBS_PACKAGE = "repro.obs"
OBS_PATH = "obs"

SPAN_FACTORIES = ("span", "begin")


def _class_api(cls: ast.ClassDef) -> set[str]:
    api: set[str] = set()
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            api.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    api.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            api.add(node.target.id)
    return api


class TracingNoOpRule(Rule):
    rule_id = "RPR006"

    def finalize(self, modules: Sequence[Module]) -> Iterable[Finding]:
        trace_api: set[str] = set()
        span_api: set[str] = set()
        for module in modules:
            if module.rel != TRACE_MODULE:
                continue
            for node in module.tree.body:
                if isinstance(node, ast.ClassDef):
                    if node.name == "Trace":
                        trace_api = _class_api(node)
                    elif node.name == "Span":
                        span_api = _class_api(node)
        findings: list[Finding] = []
        for module in modules:
            if path_matches(module.rel, (OBS_PATH,)):
                continue
            if path_matches(module.rel, KERNELS):
                findings.extend(self._check_imports(module))
            findings.extend(
                self._check_call_sites(module, trace_api, span_api)
            )
        return findings

    # ------------------------------------------------------------------
    def _check_imports(self, module: Module) -> Iterable[Finding]:
        for node in ast.walk(module.tree):
            targets: list[str] = []
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                targets = [node.module or ""]
            for target in targets:
                if target == OBS_PACKAGE or target.startswith(
                    OBS_PACKAGE + "."
                ):
                    yield self.finding(
                        module,
                        node.lineno,
                        f"inner-loop module imports {target}; the hot "
                        "path must not depend on the observability "
                        "layer (stats objects carry its counters out)",
                    )

    def _check_call_sites(
        self, module: Module, trace_api: set[str], span_api: set[str]
    ) -> Iterable[Finding]:
        for function in iter_functions(module.tree):
            if "trace" not in arg_names(function):
                continue
            span_vars = self._span_vars(function)
            for node in ast.walk(function):
                if not isinstance(node, ast.Attribute):
                    continue
                if not isinstance(node.value, ast.Name):
                    continue
                base = node.value.id
                if base == "trace" and node.attr not in trace_api:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"trace.{node.attr} is not part of the Trace "
                        "surface; a traced request would raise "
                        "AttributeError here",
                    )
                elif base in span_vars and node.attr not in span_api:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{base}.{node.attr} is not part of the Span "
                        "surface; a traced request would raise "
                        "AttributeError here",
                    )

    @staticmethod
    def _span_vars(
        function: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> set[str]:
        names: set[str] = set()

        def from_trace_factory(expr: ast.expr) -> bool:
            return (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and isinstance(expr.func.value, ast.Name)
                and expr.func.value.id == "trace"
                and expr.func.attr in SPAN_FACTORIES
            )

        for node in ast.walk(function):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if from_trace_factory(item.context_expr) and isinstance(
                        item.optional_vars, ast.Name
                    ):
                        names.add(item.optional_vars.id)
            elif isinstance(node, ast.Assign) and len(node.targets) == 1:
                target = node.targets[0]
                if from_trace_factory(node.value) and isinstance(
                    target, ast.Name
                ):
                    names.add(target.id)
        return names
