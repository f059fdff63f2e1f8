"""RPR007: deadline propagation.

End-to-end deadlines only work if every hop forwards the remaining
budget: ``Request.deadline`` -> server budget -> ``time_cap`` ->
``time_budget`` down through engine, shard group, worker and kernel.
One hop that calls a deadline-aware callee *without* the budget
silently converts a bounded query into an unbounded one -- the tail
latency bug that fault-tolerant serving exists to prevent.

The rule runs in two passes over the whole file set:

1. collect the names of functions/methods that declare a deadline
   parameter (``time_cap``, ``time_budget`` or ``deadline``);
2. inside every such function, flag calls to callees *of those names*
   that do not pass any deadline keyword.

Matching is by terminal callee name (``self.router.knn(...)`` matches
a deadline-aware ``knn``), which is deliberately conservative: a
dynamic-dispatch call that might reach a deadline-aware implementation
must forward the budget.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.analysis.core import (
    Finding,
    Module,
    Rule,
    arg_names,
    iter_functions,
    terminal_name,
)

DEADLINE_PARAMS = ("time_cap", "time_budget", "deadline")


class DeadlinePropagationRule(Rule):
    rule_id = "RPR007"

    def finalize(self, modules: Sequence[Module]) -> Iterable[Finding]:
        params = DEADLINE_PARAMS
        aware: set[str] = set()
        for module in modules:
            for function in iter_functions(module.tree):
                if any(p in arg_names(function) for p in params):
                    aware.add(function.name)
        findings: list[Finding] = []
        for module in modules:
            for function in iter_functions(module.tree):
                declared = [p for p in params if p in arg_names(function)]
                if not declared:
                    continue
                findings.extend(
                    self._check_function(
                        module, function, aware, params, declared[0]
                    )
                )
        return findings

    def _check_function(
        self,
        module: Module,
        function: ast.FunctionDef | ast.AsyncFunctionDef,
        aware: set[str],
        params: tuple[str, ...],
        declared: str,
    ) -> Iterable[Finding]:
        for node in ast.walk(function):
            if not isinstance(node, ast.Call):
                continue
            callee = terminal_name(node.func)
            if callee is None or callee not in aware:
                continue
            if any(k.arg in params for k in node.keywords):
                continue
            yield self.finding(
                module,
                node.lineno,
                f"{function.name}() accepts {declared!r} but calls "
                f"deadline-aware {callee}() without forwarding a "
                "deadline keyword; the budget dies at this hop",
            )
