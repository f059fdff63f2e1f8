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
keeps the exception auditable.  It flags any import of ``repro.obs``
too: the kernels' observability rides on the stats objects, which
keeps them import-light and tracing's cost when off zero.  (That
tracing call sites use the real ``Trace`` / ``Span`` surface is held
by the traced tests, which take every one of them.)
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from repro.analysis.core import KERNELS, Finding, Module, Rule

#: Wall-clock modules a kernel must not import.
CLOCK_MODULES = ("time", "datetime")

#: The observability package, which a kernel must not import either.
OBS_PACKAGE = "repro.obs"


def _within(name: str, package: str) -> bool:
    return name == package or name.startswith(package + ".")


class CountedOpPurityRule(Rule):
    rule_id = "RPR004"
    scope = KERNELS

    def check_module(self, module: Module) -> Iterable[Finding]:
        findings: list[Finding] = []
        clock_names: set[str] = set()
        for node in ast.walk(module.tree):
            # (dotted name, name as written, name it binds) per alias.
            if isinstance(node, ast.Import):
                what = "module"
                imported = [(a.name, a.name, a.asname or a.name.split(".")[0])
                            for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                what = "symbol"
                imported = [(f"{node.module}.{a.name}", a.name, a.asname or a.name)
                            for a in node.names]
            else:
                continue
            for dotted, written, bound in imported:
                if _within(dotted, OBS_PACKAGE):
                    message = (
                        f"{dotted} imported in a counted kernel; the hot path "
                        "must not depend on the observability layer (stats "
                        "objects carry its counters out)"
                    )
                elif any(_within(dotted, clock) for clock in CLOCK_MODULES):
                    message = (
                        f"wall-clock {what} {written!r} imported in a counted "
                        "kernel; use repro.query.stats.counted_clock"
                    )
                    clock_names.add(bound)
                else:
                    continue
                findings.append(self.finding(module, node.lineno, message))
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
