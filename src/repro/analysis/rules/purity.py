"""RPR004: counted-op purity of the search kernels.

The reproduction's benchmark unit is *counted operations*
(``QueryStats``), precisely so results are machine-independent; wall
clock is only ever a supplementary reading taken through sanctioned
hooks.  A stray ``time.time()`` / ``perf_counter()`` inside a kernel
is how "counted ops" quietly turns back into "seconds on my laptop" --
and how a kernel picks up syscall overhead per queue operation.

Inside the kernel modules (:data:`~repro.analysis.core.KERNELS`) this
rule flags any import of ``time`` / ``datetime`` and any use of their
members.  Kernels that legitimately need a clock (deadline checks, the
``elapsed`` stat) import the sanctioned alias --
``repro.query.stats.counted_clock`` -- whose single definition site
keeps the exception auditable.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import KERNELS, Finding, Module, Rule

BANNED_MODULES = {"time", "datetime"}


class CountedOpPurityRule(Rule):
    rule_id = "RPR004"
    scope = KERNELS

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        clock_names: set[str] = set()
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in BANNED_MODULES:
                        findings.append(
                            self.finding(
                                module,
                                node.lineno,
                                f"wall-clock module {alias.name!r} imported "
                                "in a counted kernel; use "
                                "repro.query.stats.counted_clock",
                            )
                        )
                        clock_names.add(alias.asname or root)
            elif isinstance(node, ast.ImportFrom) and (
                (node.module or "").split(".")[0] in BANNED_MODULES
            ):
                for alias in node.names:
                    name = alias.asname or alias.name
                    findings.append(
                        self.finding(
                            module,
                            node.lineno,
                            f"wall-clock symbol {alias.name!r} imported "
                            "in a counted kernel; use "
                            "repro.query.stats.counted_clock",
                        )
                    )
                    clock_names.add(name)
        if not clock_names:
            return findings
        import_lines = {f.line for f in findings}
        for node in ast.walk(module.tree):
            # Matching only Name loads covers both `perf_counter()` and
            # `time.time()` (whose base `time` is a Name load) exactly
            # once per use site.
            if (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in clock_names
            ):
                if node.lineno in import_lines:
                    continue
                findings.append(
                    self.finding(
                        module,
                        node.lineno,
                        "wall-clock call in a counted kernel; route "
                        "timing through repro.query.stats.counted_clock",
                    )
                )
        return findings
