"""RPR006: tracing must stay a no-op when disabled.

Invariant 4 (ARCHITECTURE.md): tracing never changes answers.  The
mechanism is structural -- every function that accepts a ``trace``
takes either a real :class:`~repro.obs.trace.Trace` or the shared
``NULL_TRACE``, and span handles are either real ``Span`` objects or
``NULL_SPAN``.  The invariant therefore reduces to two checkable
facts:

* any method invoked on a ``trace`` parameter (or on a span bound
  from ``trace.span(...)`` / ``trace.begin(...)``) must exist on the
  null classes -- otherwise the first untraced request raises
  ``AttributeError`` in production while every traced test passes;
* the inner-loop modules (:data:`~repro.analysis.core.KERNELS`) must
  not import ``repro.obs`` at all -- the hot path's observability
  rides on the stats objects, keeping the kernels import-light and
  the no-op cost literally zero.

The null API is parsed from ``repro/obs/trace.py`` itself (methods
plus class-level attributes of ``NullTrace``/``NullSpan``), so the
rule tracks the real surface instead of a hand-copied list.
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

#: The module defining ``NullTrace`` / ``NullSpan``.
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
                    if node.name == "NullTrace":
                        trace_api = _class_api(node) | {"enabled"}
                    elif node.name == "NullSpan":
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
                        f"trace.{node.attr} is not part of the NullTrace "
                        "surface; an untraced request (NULL_TRACE) would "
                        "raise AttributeError here",
                    )
                elif base in span_vars and node.attr not in span_api:
                    yield self.finding(
                        module,
                        node.lineno,
                        f"{base}.{node.attr} is not part of the NullSpan "
                        "surface; an untraced request (NULL_SPAN) would "
                        "raise AttributeError here",
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
