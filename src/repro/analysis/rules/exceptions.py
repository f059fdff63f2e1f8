"""RPR005: exception discipline.

Three checks:

* **no bare ``except:``** anywhere -- it swallows ``KeyboardInterrupt``
  and ``SystemExit`` along with the bug;
* **no silent broad catches**: a handler for ``Exception`` /
  ``BaseException`` must either re-raise or *observe* the exception
  (bind it with ``as exc`` and actually use it).  ``except Exception:
  pass`` turns crashes into wrong answers; a broad catch that records
  what it caught is a deliberate fault boundary and passes;
* **pipe errors are protocol types**: inside the shard worker
  (``shard/worker.py``), every ``raise SomeError(...)`` must name a
  class defined in ``errors.py`` (or one of :data:`ALLOWED_RAISES`)
  -- the worker protocol maps those to wire tags; anything else
  arrives at the parent as an opaque string.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence

from repro.analysis.core import Finding, Module, Rule, path_matches

BROAD = {"Exception", "BaseException"}

#: Modules whose raises cross the shard pipe.
PIPE_MODULES = ("shard/worker.py",)

#: The module whose classes are the pipe's error types.
ERRORS_MODULE = "errors.py"

#: Builtins the worker protocol maps as they are.
ALLOWED_RAISES = ("RuntimeError", "ValueError", "TimeoutError")


def _handler_types(handler: ast.ExceptHandler) -> set[str]:
    node = handler.type
    names: set[str] = set()
    if node is None:
        return names
    candidates = node.elts if isinstance(node, ast.Tuple) else [node]
    for candidate in candidates:
        if isinstance(candidate, ast.Name):
            names.add(candidate.id)
        elif isinstance(candidate, ast.Attribute):
            names.add(candidate.attr)
    return names


class ExceptionDisciplineRule(Rule):
    rule_id = "RPR005"

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        "bare except: catches SystemExit and "
                        "KeyboardInterrupt; name the exception types",
                    )
                )
                continue
            broad = _handler_types(node) & BROAD
            if broad and self._is_silent(node):
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        f"except {sorted(broad)[0]} swallows the error "
                        "without re-raising or observing it; narrow the "
                        "types or record what was caught",
                    )
                )
        return findings

    @staticmethod
    def _is_silent(handler: ast.ExceptHandler) -> bool:
        for node in ast.walk(handler):
            if isinstance(node, ast.Raise):
                return False
            if (
                handler.name is not None
                and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)
            ):
                return False
        return True

    # ------------------------------------------------------------------
    def finalize(self, modules: Sequence[Module]) -> Iterable[Finding]:
        allowed = set(ALLOWED_RAISES)
        for module in modules:
            if module.rel == ERRORS_MODULE:
                allowed.update(
                    node.name
                    for node in module.tree.body
                    if isinstance(node, ast.ClassDef)
                )
        findings: list[Finding] = []
        for module in modules:
            if not path_matches(module.rel, PIPE_MODULES):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Raise) or node.exc is None:
                    continue
                exc = node.exc
                name = None
                if isinstance(exc, ast.Call) and isinstance(
                    exc.func, ast.Name
                ):
                    name = exc.func.id
                elif isinstance(exc, ast.Name):
                    name = exc.id
                if name is not None and name not in allowed and (
                    name[:1].isupper()
                ):
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"raise {name} crosses the shard pipe "
                            "boundary; use a type from repro/errors.py "
                            "so the worker protocol can map it",
                        )
                    )
        return findings
