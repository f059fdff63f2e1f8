"""The rule engine behind ``repro check``.

Three pieces:

* :class:`Finding` -- one diagnostic, addressed ``path:line`` with a
  stable rule id, JSON-serializable for the ``--json`` surface;
* :class:`Rule` -- the plugin base class: per-module AST checks via
  :meth:`Rule.check_module` plus a cross-module :meth:`Rule.finalize`
  pass for rules that relate *files to each other* (exception
  discipline reads the pipe's error types from ``errors.py``);
* :class:`Analyzer` -- parses every file of the package once and runs
  the rules over it.

There is no configuration and no way to silence a finding: each
rule's scope is a constant in the rule, written relative to the
package directory (``query/bestfirst.py``), and a false positive is
fixed in the rule.  The engine is stdlib-only (``ast``) so it runs in
any environment the package itself runs in, including CI images
without third-party lint tooling.
"""

from __future__ import annotations

import ast
from collections.abc import Iterable, Sequence
from dataclasses import asdict, dataclass
from pathlib import Path

#: The counted search kernels: no wall clock and no ``repro.obs``
#: import (RPR004).  A new kernel module is added here.
KERNELS = (
    "query/bestfirst.py",
    "query/ine.py",
    "query/ier.py",
    "query/browsing.py",
    "query/distances.py",
    "oracle/labelling.py",
    "silc/refinement.py",
    "silc/index.py",
    "silc/intervals.py",
    "quadtree/blocks.py",
    "geometry/morton.py",
)


@dataclass(frozen=True)
class Finding:
    """One diagnostic: rule id, location, message."""

    rule: str
    path: str
    line: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def to_dict(self) -> dict:
        return asdict(self)


def display_path(path: Path) -> str:
    """``path`` relative to the working directory when it lies below it
    (``src/repro/query/ine.py`` from the repository root), else absolute."""
    cwd = Path.cwd()
    return (path.relative_to(cwd) if path.is_relative_to(cwd) else path).as_posix()


@dataclass
class Module:
    """One parsed source file, shared by every rule.

    ``rel`` is the path below the package directory, the form every
    rule scope is written in; ``path`` is what a finding prints.
    """

    path: str
    rel: str
    tree: ast.Module

    @classmethod
    def parse(cls, path: Path, root: Path) -> Module:
        # ``path`` comes from ``root.rglob``, so it is lexically below
        # ``root`` even when either reaches the files through a symlink.
        return cls(
            path=display_path(path),
            rel=path.relative_to(root).as_posix(),
            tree=ast.parse(path.read_text(encoding="utf-8"), filename=str(path)),
        )


def path_matches(rel: str, patterns: Iterable[str]) -> bool:
    """True when ``rel`` is one of ``patterns`` or inside one of them.

    Patterns are package-relative POSIX paths; a pattern names either
    a file (exact match) or a directory prefix.
    """
    for pattern in patterns:
        pattern = pattern.rstrip("/")
        if rel == pattern or rel.startswith(pattern + "/"):
            return True
    return False


class Rule:
    """Base class every ``RPRxxx`` rule subclasses.

    Subclasses set :attr:`rule_id`, may narrow :attr:`scope`, and
    implement :meth:`check_module` (per file) and/or :meth:`finalize`
    (once, after every file has been offered -- the hook for
    cross-file rules).
    """

    rule_id = "RPR000"

    #: Package-relative files or directories the rule checks; empty
    #: means the whole package.
    scope: tuple[str, ...] = ()

    def applies(self, module: Module) -> bool:
        return not self.scope or path_matches(module.rel, self.scope)

    def check_module(self, module: Module) -> Iterable[Finding]:
        return ()

    def finalize(self, modules: Sequence[Module]) -> Iterable[Finding]:
        return ()

    # Convenience for subclasses -------------------------------------
    def finding(self, module: Module, line: int, message: str) -> Finding:
        return Finding(
            rule=self.rule_id, path=module.path, line=line, message=message
        )


class Analyzer:
    """Drive a rule set over every module of one package directory."""

    def __init__(self, rules: Sequence[Rule]) -> None:
        self.rules = list(rules)

    def run(self, root: Path) -> tuple[int, list[Finding]]:
        """Parse every module below ``root`` once and run the rules.

        Returns the number of modules found and the sorted findings; an
        unparseable file is an ``RPR000`` finding.
        """
        files = sorted(root.rglob("*.py"))
        modules: list[Module] = []
        findings: list[Finding] = []
        for path in files:
            try:
                modules.append(Module.parse(path, root))
            except SyntaxError as exc:
                findings.append(
                    Finding(
                        rule="RPR000",
                        path=display_path(path),
                        line=exc.lineno or 1,
                        message=f"syntax error: {exc.msg}",
                    )
                )
        for rule in self.rules:
            applicable = [m for m in modules if rule.applies(m)]
            for module in applicable:
                findings.extend(rule.check_module(module))
            findings.extend(rule.finalize(applicable))
        findings.sort(key=lambda f: (f.path, f.line, f.rule))
        return len(files), findings


def terminal_name(func: ast.expr) -> str | None:
    """The rightmost name of a call target (``a.b.c(...)`` -> ``c``)."""
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None
