#!/usr/bin/env python
"""Which library functions does anything outside ``tests/`` reach?

Runs the whole CLI in process under a standard-library ``sys.settrace``
line tracer (``coverage`` is not a dependency): ``generate`` for each
network kind; a serial and a ``--workers 2`` ``build``, then
``build-labels``; ``stats``, ``path`` and ``knn`` under every oracle,
each with and without ``--mmap``; ``knn --epsilon``; ``serve`` over
every kind x variant x ``exact`` x oracle at k = 3, exact ``knn`` and
``knn_batch`` at k = 10 (the walk home) and malformed lines -- once
traced with the slow log, once with ``--mmap --rate``, once with
``--shards 2 --inject-kill``; then ``trace-report`` and ``check``.
``--examples`` also runs every ``examples/*.py``; ``--benchmarks``
also runs the default ``benchmarks/`` selection.  Everything it writes
goes to a temporary directory (the benchmarks run from a copy there).

It prints every function under ``src/repro`` that never ran, by
module with line counts, and every ``if`` arm on a keyword parameter
with a default that never ran inside a function that did.

``--check`` exits 1 when a function never ran **and** nothing outside
``tests/`` names it: no ``src/``, ``bench/``, ``benchmarks/``,
``examples/`` or ``tools/`` module reads the name (a name, an
attribute, a quoted string, or an import outside ``src/``; a
package's ``__all__`` and re-export imports are not reads, nor is a
read inside another flagged function), and ``.github/workflows/ci.yml``
does not mention it.  So a function that ``src/`` calls is never
flagged: error constructors on paths the probe does not provoke, and
entry points of child processes (shard workers, the build pool), which
the tracer cannot see.  Dunder methods are exempt: the interpreter
calls them by protocol, not by name.

    python tools/reach.py                       # the CLI only
    python tools/reach.py --examples --check    # the CI gate
    python tools/reach.py --benchmarks          # + benchmarks/ (slow)
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import json
import os
import re
import runpy
import shutil
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
#: Trees whose reads keep a function (``tests/`` is the one left out).
READERS = ("src", "bench", "benchmarks", "examples", "tools")
CI_FILE = Path(".github", "workflows", "ci.yml")


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

class LineTracer:
    """Records the code objects entered and the lines run under ``prefix``."""

    def __init__(self, prefix: str) -> None:
        self.prefix = prefix
        self.entered: set[tuple[str, int]] = set()
        self.lines: set[tuple[str, int]] = set()

    def _call(self, frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(self.prefix):
            return None
        self.entered.add((code.co_filename, code.co_firstlineno))
        return self._line

    def _line(self, frame, event, arg):
        if event == "line":
            self.lines.add((frame.f_code.co_filename, frame.f_lineno))
        return self._line

    @contextlib.contextmanager
    def active(self):
        threading.settrace(self._call)
        sys.settrace(self._call)
        try:
            yield
        finally:
            sys.settrace(None)
            threading.settrace(None)  # type: ignore[arg-type]


def _untrace_child() -> None:
    # A forked worker's events never reach the parent: do not pay for them.
    sys.settrace(None)
    threading.settrace(None)  # type: ignore[arg-type]


# ----------------------------------------------------------------------
# What the probe runs
# ----------------------------------------------------------------------

def _serve_lines() -> list[dict]:
    from repro.options import ORACLE_CHOICES
    from repro.query.bestfirst import VARIANTS

    lines: list[dict] = []
    for oracle in ORACLE_CHOICES:
        for variant in VARIANTS:
            for exact in (True, False):
                common = {"client": f"c-{oracle}", "k": 3, "variant": variant,
                          "exact": exact, "oracle": oracle}
                lines.append({"kind": "knn", "query": len(lines) % 50, **common})
                lines.append({"kind": "knn_batch", "queries": [1, 7, 30], **common})
    # Exact vertex kNN at k = 10 on the symmetric road network: the
    # search walks colliding objects home (RefinableDistance.walk_home).
    lines += [
        {"kind": "knn", "client": "deep", "query": 9, "k": 10, "exact": True, "oracle": "silc"},
        {"kind": "knn_batch", "client": "deep", "queries": [2, 40], "k": 10, "exact": True,
         "oracle": "silc"},
    ]
    lines += [
        {"kind": "path", "source": 0, "target": 100},
        {"kind": "distance", "source": 3, "target": 90},
        {"kind": "knn", "query": 5, "k": 2, "deadline": 30.0},
        {"kind": "stats"},
        # malformed: each is answered with a bad-request error
        {"kind": "bogus"},
        {"kind": "knn"},
        {"kind": "knn", "query": "x"},
        {"kind": "knn", "query": 0, "k": 0},
        {"kind": "knn", "query": 0, "exact": "no"},
        {"kind": "knn", "query": 0, "variant": "bogus"},
        {"kind": "knn", "query": 0, "oracle": 7},
        {"kind": "knn", "query": 0, "oracle": "bogus"},
        {"kind": "knn", "query": 0, "deadline": "soon"},
        {"kind": "knn_batch", "queries": 5},
        {"kind": "path", "source": 0},
        {"kind": "path", "source": 0, "target": 10**6},
    ]
    return [{"id": i, **line} for i, line in enumerate(lines)]


def cli_commands(work: Path) -> list[list[str]]:
    """Every command line the probe runs, in order."""
    from repro.options import ORACLE_CHOICES

    net, idx = str(work / "road.txt"), str(work / "idx")
    requests = work / "requests.jsonl"
    lines = [json.dumps(line) for line in _serve_lines()]
    requests.write_text("\n".join(lines[:-1] + ["not json", "[1]", lines[-1]]) + "\n")
    traces, slow = str(work / "traces.jsonl"), str(work / "slow.jsonl")
    serve = ["serve", net, idx, "--objects", "20", "--input", str(requests)]
    commands = [
        ["generate", net, "--kind", "road", "--size", "150", "--seed", "3"],
        ["generate", str(work / "grid.txt"), "--kind", "grid", "--size", "64"],
        ["generate", str(work / "planar.txt"), "--kind", "planar", "--size", "64"],
        ["build", net, str(work / "pooled"), "--workers", "2"],
        ["build", net, idx],
        ["build-labels", net, idx],
    ]
    for mmap in ([], ["--mmap"]):
        commands += [["stats", net, idx, *mmap], ["path", net, idx, "0", "100", *mmap]]
        commands += [
            ["knn", net, idx, "--query", "0", "--query", "25", "--k", "3",
             "--objects", "20", "--oracle", oracle, *mmap]
            for oracle in ORACLE_CHOICES
        ]
    commands += [
        ["knn", net, idx, "--query", "4", "--k", "3", "--epsilon", "0.5"],
        [*serve, "--oracle", "auto", "--trace-file", traces,
         "--slow-log", slow, "--slow-threshold-ms", "0"],
        [*serve, "--mmap", "--rate", "1000", "--burst", "4"],
        [*serve, "--mmap", "--shards", "2", "--inject-kill", "0:2",
         "--inject-kill", "1:3"],
        ["trace-report", traces],
        ["check"],
        ["check", "--json"],
    ]
    return commands


def run_cli(work: Path) -> None:
    from repro.cli import main

    for argv in cli_commands(work):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            status = main(argv)
        if status != 0:
            raise SystemExit(f"reach: `repro {' '.join(argv)}` exited {status}:\n"
                             f"{out.getvalue()}")


def run_examples(work: Path) -> None:
    examples = ROOT / "examples"
    cwd, argv, path = os.getcwd(), sys.argv, list(sys.path)
    try:
        os.chdir(work)  # examples write relative to the working directory
        sys.path.insert(0, str(examples))  # as `python examples/x.py` has it
        for example in sorted(examples.glob("*.py")):
            if example.name.startswith("test_"):
                continue  # a test of an example's helper, not an example
            sys.argv = [str(example)]
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(str(example), run_name="__main__")
    finally:
        os.chdir(cwd)
        sys.argv, sys.path[:] = argv, path


def run_benchmarks(work: Path) -> None:
    import pytest

    copy = work / "benchmarks"
    shutil.copytree(ROOT / "benchmarks", copy, ignore=shutil.ignore_patterns("out", "__pycache__"))
    status = pytest.main([str(copy), "-q", "-p", "no:cacheprovider"])
    if status == pytest.ExitCode.TESTS_FAILED:
        # Calibrated wall-clock shapes (the planner crossover) skew under
        # the tracer; what ran still counts as reached.
        print("reach: some benchmarks failed under the tracer", file=sys.stderr)
    elif status != pytest.ExitCode.OK:
        raise SystemExit(f"reach: the benchmarks did not run (pytest exit {status})")


# ----------------------------------------------------------------------
# What the library holds, and who names it
# ----------------------------------------------------------------------

@dataclass
class Function:
    path: Path
    qualname: str
    name: str
    first: int  # co_firstlineno: the first decorator's line, else the def's
    end: int
    nested_in: Function | None
    node: ast.FunctionDef | ast.AsyncFunctionDef

    @property
    def lines(self) -> int:
        return self.end - self.first + 1

    @property
    def module(self) -> str:
        return ".".join(self.path.relative_to(SRC).with_suffix("").parts)

    def contains(self, path: Path, line: int) -> bool:
        return path == self.path and self.first <= line <= self.end


def library_functions(package: Path = PACKAGE) -> list[Function]:
    found: list[Function] = []

    def visit(node: ast.AST, path: Path, prefix: str, outer: Function | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.", outer)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                fn = Function(path, prefix + child.name, child.name, first,
                              child.end_lineno or child.lineno, outer, child)
                found.append(fn)
                visit(child, path, f"{fn.qualname}.", fn)
            else:
                visit(child, path, prefix, outer)

    for path in sorted(package.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path, "", None)
    return found


def _all_strings(tree: ast.AST) -> set[int]:
    """ids of the string constants inside ``__all__ = [...]``."""
    ids: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                ids.update(id(c) for c in ast.walk(node) if isinstance(c, ast.Constant))
    return ids


def name_reads(root: Path = ROOT) -> dict[str, list[tuple[Path, int]]]:
    """Every read of a name in the reader trees: name -> [(file, line)]."""
    reads: dict[str, list[tuple[Path, int]]] = {}
    for tree_name in READERS:
        for path in sorted((root / tree_name).rglob("*.py")):
            if path == Path(__file__).resolve():
                continue
            tree = ast.parse(path.read_text(), filename=str(path))
            exported = _all_strings(tree)
            in_src = tree_name == "src"
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and id(node) not in exported):
                    name = node.value
                elif isinstance(node, ast.ImportFrom) and not in_src:
                    for alias in node.names:
                        reads.setdefault(alias.name, []).append((path, node.lineno))
                    continue
                else:
                    continue
                reads.setdefault(name, []).append((path, node.lineno))
    return reads


def flagged(unreached: list[Function], root: Path = ROOT) -> list[Function]:
    """The unreached functions nothing outside ``tests/`` of ``root`` names.

    A fixpoint: a read inside a flagged function does not keep what it
    reads, so a helper only dead code calls is flagged with it.
    """
    reads = name_reads(root)
    ci_file = root / CI_FILE
    ci = ci_file.read_text() if ci_file.exists() else ""
    candidates = [
        fn for fn in unreached
        if not (fn.name.startswith("__") and fn.name.endswith("__"))
        and not re.search(rf"\b{re.escape(fn.name)}\b", ci)
    ]
    dead: list[Function] = []
    while True:
        live_reads = {
            name: [(p, n) for p, n in where if not any(d.contains(p, n) for d in dead)]
            for name, where in reads.items()
        }
        now = [
            fn for fn in candidates
            if all(fn.contains(p, n) for p, n in live_reads.get(fn.name, ()))
        ]
        if len(now) == len(dead):
            return now
        dead = now


def dead_arms(functions: list[Function], tracer: LineTracer, reached) -> list[str]:
    """``if`` arms on a defaulted keyword parameter that never ran."""
    ran = {(str(Path(f).resolve()), n) for f, n in tracer.lines}
    report = []
    for fn in functions:
        if not reached(fn):
            continue
        args = fn.node.args
        defaulted = {a.arg for a in args.args[len(args.args) - len(args.defaults):]}
        defaulted |= {
            a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults, strict=True) if d is not None
        }
        if not defaulted:
            continue
        for node in _own_nodes(fn.node):
            if not isinstance(node, ast.If):
                continue
            params = {n.id for n in ast.walk(node.test) if isinstance(n, ast.Name)} & defaulted
            if not params:
                continue
            for label, body in (("if", node.body), ("else", node.orelse)):
                if len(body) == 1 and isinstance(body[0], ast.Raise):
                    continue  # a check on a bad value, not an arm it selects
                if body and not any(
                    (str(fn.path), n) in ran
                    for n in range(body[0].lineno, (body[-1].end_lineno or 0) + 1)
                ):
                    test = ast.unparse(node.test)
                    report.append(
                        f"{fn.module}:{node.lineno} {fn.qualname}"
                        f"({', '.join(sorted(params))}): {label} arm of `{test[:60]}`"
                    )
    return report


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body, not of the functions nested in it."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


# ----------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--examples", action="store_true", help="also run every example")
    parser.add_argument("--benchmarks", action="store_true",
                        help="also run the default benchmarks/ selection")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if a function only tests/ reaches is left")
    args = parser.parse_args(argv)

    sys.dont_write_bytecode = True  # nothing lands in the checkout
    sys.path.insert(0, str(SRC))
    os.register_at_fork(after_in_child=_untrace_child)
    tracer = LineTracer(str(PACKAGE))
    started = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        with tracer.active():
            run_cli(work)
            if args.examples:
                run_examples(work)
            if args.benchmarks:
                run_benchmarks(work)
    elapsed = time.perf_counter() - started

    entered = {(str(Path(f).resolve()), n) for f, n in tracer.entered}

    def reached(fn: Function) -> bool:
        return (str(fn.path), fn.first) in entered

    functions = library_functions()
    unreached = [
        fn for fn in functions
        if not reached(fn) and not (fn.nested_in and not reached(fn.nested_in))
    ]
    by_module: dict[str, list[Function]] = {}
    for fn in unreached:
        by_module.setdefault(fn.module, []).append(fn)
    total = sum(fn.lines for fn in unreached)
    print(f"unreached: {len(unreached)} of {len(functions)} functions, "
          f"{total} lines ({elapsed:.0f} s traced)")
    for module, fns in sorted(by_module.items()):
        print(f"  {module} ({sum(fn.lines for fn in fns)} lines)")
        for fn in fns:
            print(f"    {fn.qualname}:{fn.first} ({fn.lines})")
    arms = dead_arms(functions, tracer, reached)
    print(f"keyword arms never run: {len(arms)}")
    for arm in arms:
        print(f"  {arm}")

    if not args.check:
        return 0
    only_tests = flagged(unreached)
    if only_tests:
        print(f"check: {len(only_tests)} function(s), "
              f"{sum(fn.lines for fn in only_tests)} lines, only tests/ reach:")
        for fn in only_tests:
            print(f"  {fn.module}:{fn.first} {fn.qualname} ({fn.lines})")
    return 1 if only_tests else 0


if __name__ == "__main__":
    sys.exit(main())
