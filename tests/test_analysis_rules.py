"""The static-analysis framework: every rule proven live.

Each rule class gets (at least) one failing and one passing fixture --
tiny source snippets written at the package-relative paths the rule
patrols and run through the real :class:`~repro.analysis.core.Analyzer`
-- so a rule that silently stops matching (an ast refactor, a scope
typo) fails here before it ships a green-but-dead gate.  Every rule is
then proven on a copy of the real package: clean as copied, exactly
one finding after one realistic edit.  The ``--json`` surface, the CLI
exit codes and runs from outside the checkout or through a symlink are
covered at the end.
"""

import json
import os
import shutil
import subprocess
import sys
import textwrap
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.core import Analyzer
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.atomicwrite import AtomicWriteRule
from repro.analysis.rules.deadline import DeadlinePropagationRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.protocol import ProtocolExhaustivenessRule
from repro.analysis.rules.purity import CountedOpPurityRule
from repro.analysis.rules.tracing import TracingNoOpRule
from repro.analysis.runner import run_check

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "repro"
TRACE_SOURCE = (PACKAGE / "obs" / "trace.py").read_text()


def write_tree(root, files):
    """Write ``files`` (package-relative path -> source) under ``root``."""
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return root


def run_rules(tmp_path, files, rule_cls):
    """Write ``files`` as a package under ``tmp_path`` and run one rule."""
    _modules, findings = Analyzer([rule_cls()]).run(write_tree(tmp_path, files))
    return findings


def check_json(root):
    """``repro check --json`` over the package at ``root``: (status, report)."""
    out = StringIO()
    status = run_check(as_json=True, out=out, root=root)
    return status, json.loads(out.getvalue())


class TestLockDiscipline:
    GUARDED = """
        import threading

        class Counter:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0

            def locked(self):
                with self._lock:
                    self.hits += 1

            def unlocked(self):
                self.hits += 1
        """

    def test_flags_unlocked_mutation_of_guarded_attr(self, tmp_path):
        findings = run_rules(tmp_path, {"m.py": self.GUARDED}, LockDisciplineRule)
        assert [f.rule for f in findings] == ["RPR001"]
        assert "hits" in findings[0].message

    def test_passes_when_every_mutation_is_locked(self, tmp_path):
        source = self.GUARDED.replace(
            "def unlocked(self):\n                self.hits += 1",
            "def also_locked(self):\n"
            "                with self._lock:\n"
            "                    self.hits += 1",
        )
        assert run_rules(tmp_path, {"m.py": source}, LockDisciplineRule) == []

    def test_init_writes_are_exempt(self, tmp_path):
        source = """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.state = {}

                def touch(self):
                    with self._lock:
                        self.state[1] = 2
            """
        assert run_rules(tmp_path, {"m.py": source}, LockDisciplineRule) == []

    def test_tracks_mutator_calls_through_aliases(self, tmp_path):
        source = """
            import threading

            class C:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []

                def locked(self):
                    with self._lock:
                        self.items.append(1)

                def unlocked(self):
                    items = self.items
                    items.append(2)
            """
        findings = run_rules(tmp_path, {"m.py": source}, LockDisciplineRule)
        assert [f.rule for f in findings] == ["RPR001"]


class TestProtocolExhaustiveness:
    # The shard-pipe channel: the shard group sends, the worker's main
    # loop handles (both in shard/worker.py).
    CLIENT = """
        class ShardGroup:
            def call(self, conn):
                conn.send(("knn", 1, 2))
                conn.send(("ping",))
        """
    SERVER = """
        def _shard_worker_main(msg):
            if msg[0] == "knn":
                return 1
            if msg[0] == "ping":
                return 2
        """

    def files(self, client):
        return {"shard/worker.py": textwrap.dedent(client) + textwrap.dedent(self.SERVER)}

    def test_passes_when_every_tag_has_an_arm(self, tmp_path):
        assert run_rules(
            tmp_path, self.files(self.CLIENT), ProtocolExhaustivenessRule
        ) == []

    def test_flags_sent_tag_without_handler(self, tmp_path):
        client = self.CLIENT + '        conn.send(("stop",))\n'
        findings = run_rules(
            tmp_path, self.files(client), ProtocolExhaustivenessRule
        )
        assert [f.rule for f in findings] == ["RPR002"]
        assert "'stop'" in findings[0].message

    def test_kinds_from_reads_declared_tuple(self, tmp_path):
        files = {
            "serve/protocol.py": 'KINDS = ("knn", "extra")\n',
            "serve/server.py": self.SERVER,
        }
        findings = run_rules(tmp_path, files, ProtocolExhaustivenessRule)
        assert [f.message for f in findings] == [
            "serve-kinds: tag 'extra' is sent but no handler arm matches "
            "it on the receiving side"
        ]


class TestAtomicWrite:
    def test_flags_bare_numpy_save(self, tmp_path):
        source = """
            import numpy as np

            def save(path, arr):
                np.save(path / "col.npy", arr)
            """
        findings = run_rules(
            tmp_path, {"silc/store.py": source}, AtomicWriteRule
        )
        assert [f.rule for f in findings] == ["RPR003"]

    def test_passes_inside_staging_block(self, tmp_path):
        source = """
            import numpy as np
            from repro.integrity import atomic_directory

            def save(path, arr):
                with atomic_directory(path) as tmp:
                    np.save(tmp / "col.npy", arr)
                    with open(tmp / "meta.json", "w") as f:
                        f.write("{}")
            """
        assert run_rules(
            tmp_path, {"silc/store.py": source}, AtomicWriteRule
        ) == []

    def test_flags_append_mode_open_and_write_text(self, tmp_path):
        source = """
            def record(path, line):
                with path.open("a") as f:
                    f.write(line)
                path.write_text(line)
            """
        findings = run_rules(
            tmp_path, {"oracle/store.py": source}, AtomicWriteRule
        )
        assert [f.rule for f in findings] == ["RPR003", "RPR003"]

    def test_allowlisted_module_is_exempt(self, tmp_path):
        source = """
            def publish(path, text):
                with open(path, "w") as f:
                    f.write(text)
            """
        assert run_rules(
            tmp_path, {"integrity.py": source}, AtomicWriteRule
        ) == []


class TestCountedOpPurity:
    def test_flags_wall_clock_in_kernel(self, tmp_path):
        source = """
            from time import perf_counter

            def search():
                return perf_counter()
            """
        findings = run_rules(
            tmp_path, {"query/bestfirst.py": source}, CountedOpPurityRule
        )
        assert {f.rule for f in findings} == {"RPR004"}
        assert len(findings) == 2  # the import and the use

    def test_sanctioned_clock_passes(self, tmp_path):
        source = """
            from repro.query.stats import counted_clock

            def search():
                return counted_clock()
            """
        assert run_rules(
            tmp_path, {"query/bestfirst.py": source}, CountedOpPurityRule
        ) == []

    def test_non_kernel_modules_are_out_of_scope(self, tmp_path):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        assert run_rules(
            tmp_path, {"other.py": source}, CountedOpPurityRule
        ) == []


class TestExceptionDiscipline:
    def test_flags_bare_except(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except:
                    return 2
            """
        findings = run_rules(tmp_path, {"m.py": source}, ExceptionDisciplineRule)
        assert [f.rule for f in findings] == ["RPR005"]
        assert "bare except" in findings[0].message

    def test_flags_silent_broad_catch(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                except Exception:
                    pass
            """
        findings = run_rules(tmp_path, {"m.py": source}, ExceptionDisciplineRule)
        assert [f.rule for f in findings] == ["RPR005"]

    def test_broad_catch_that_observes_or_reraises_passes(self, tmp_path):
        source = """
            def f(log):
                try:
                    return 1
                except Exception as exc:
                    log(exc)
                try:
                    return 2
                except Exception:
                    raise
            """
        assert run_rules(tmp_path, {"m.py": source}, ExceptionDisciplineRule) == []

    def test_pipe_modules_must_raise_protocol_types(self, tmp_path):
        files = {
            "errors.py": "class WorkerDied(Exception):\n    pass\n",
            "shard/worker.py": (
                "def f():\n"
                "    raise WorkerDied('ok')\n"
                "\n"
                "def g():\n"
                "    raise KeyError('not a wire type')\n"
            ),
        }
        findings = run_rules(tmp_path, files, ExceptionDisciplineRule)
        assert ["KeyError" in f.message for f in findings] == [True]


class TestTracingNoOp:
    def test_flags_unknown_span_method(self, tmp_path):
        source = """
            def serve(trace):
                with trace.span("x") as s:
                    s.close()
                    s.explode()
            """
        files = {"obs/trace.py": TRACE_SOURCE, "serve.py": source}
        findings = run_rules(tmp_path, files, TracingNoOpRule)
        assert [f.rule for f in findings] == ["RPR006"]
        assert "s.explode" in findings[0].message

    def test_null_surface_calls_pass(self, tmp_path):
        source = """
            def serve(trace):
                with trace.span("x") as s:
                    s.count(hits=1)
                    s.add_stats(None)
                span = trace.begin("y")
                span.close()
            """
        files = {"obs/trace.py": TRACE_SOURCE, "serve.py": source}
        assert run_rules(tmp_path, files, TracingNoOpRule) == []

    def test_flags_obs_import_in_inner_loop(self, tmp_path):
        source = "from repro.obs.trace import Tracer\n"
        findings = run_rules(
            tmp_path, {"query/bestfirst.py": source}, TracingNoOpRule
        )
        assert [f.rule for f in findings] == ["RPR006"]
        assert "inner-loop" in findings[0].message

    def test_api_parsed_from_trace_module(self, tmp_path):
        # A Span that really has .explode() makes the call legal.
        files = {
            "obs/trace.py": (
                "class Trace:\n"
                "    def span(self, name, **labels):\n"
                "        return Span()\n"
                "\n"
                "class Span:\n"
                "    def explode(self):\n"
                "        pass\n"
            ),
            "serve.py": (
                "def serve(trace):\n"
                "    with trace.span('x') as s:\n"
                "        s.explode()\n"
            ),
        }
        assert run_rules(tmp_path, files, TracingNoOpRule) == []


class TestDeadlinePropagation:
    def test_flags_dropped_budget(self, tmp_path):
        source = """
            def knn(q, k, time_cap=None):
                return search(q, k)

            def search(q, k, time_cap=None):
                return []
            """
        findings = run_rules(tmp_path, {"m.py": source}, DeadlinePropagationRule)
        assert [f.rule for f in findings] == ["RPR007"]
        assert "search" in findings[0].message

    def test_forwarded_budget_passes(self, tmp_path):
        source = """
            def knn(q, k, time_cap=None):
                return search(q, k, time_cap=time_cap)

            def search(q, k, time_cap=None):
                return []
            """
        assert run_rules(tmp_path, {"m.py": source}, DeadlinePropagationRule) == []

    def test_callers_without_a_budget_are_out_of_scope(self, tmp_path):
        source = """
            def warmup(q):
                return search(q, 1)

            def search(q, k, deadline=None):
                return []
            """
        assert run_rules(tmp_path, {"m.py": source}, DeadlinePropagationRule) == []



def copy_package(dest):
    shutil.copytree(PACKAGE, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def seed(root, rel, old, new):
    """Apply one edit to the package at ``root``; ``old`` must occur once."""
    source = (root / rel).read_text()
    assert source.count(old) == 1, rel
    (root / rel).write_text(source.replace(old, new))


#: ``except Exception: pass`` around the shard worker's start-up close.
SILENT_CATCH = (
    "shard/worker.py",
    "        finally:\n"
    "            conn.close()\n"
    "        return\n",
    "        finally:\n"
    "            try:\n"
    "                conn.close()\n"
    "            except Exception:\n"
    "                pass\n"
    "        return\n",
)


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """A copy of the real package, checked clean as copied."""
    root = copy_package(tmp_path_factory.mktemp("pristine") / "repro")
    status, report = check_json(root)
    assert (status, report["findings"]) == (0, [])
    return root


def findings_after(pristine, tmp_path, rel, old, new):
    """The findings of ``repro check`` on a copy with one edit applied."""
    root = tmp_path / "repro"
    shutil.copytree(pristine, root)
    seed(root, rel, old, new)
    status, report = check_json(root)
    assert status == 1
    return [(f["rule"], f["message"]) for f in report["findings"]]


class TestRulesOnTheShardTier:
    """RPR002 and RPR007 against the shard tier as it is shipped: a copy
    of the real package, clean as copied, must fail once the bug class
    each rule exists for is put back into it."""

    def test_rpr007_catches_a_dropped_budget_on_the_worker_visit(
        self, pristine, tmp_path
    ):
        found = findings_after(
            pristine, tmp_path, "shard/worker.py",
            "trace=trace is not None, time_cap=budget, exact=exact",
            "trace=trace is not None, exact=exact",
        )
        assert len(found) == 1 and found[0][0] == "RPR007", found
        assert "knn" in found[0][1]

    def test_rpr002_catches_a_deleted_ping_arm(self, pristine, tmp_path):
        found = findings_after(
            pristine, tmp_path, "shard/worker.py",
            'if kind == "ping":\n'
            '                reply = ("pong", shard_id)\n'
            '            elif kind == "knn":',
            'if kind == "knn":',
        )
        assert len(found) == 1 and found[0][0] == "RPR002", found
        assert "'ping'" in found[0][1]


class TestRulesOnTheRealTree:
    """RPR001 and RPR003-RPR006 the same way: one realistic edit to a
    clean copy of the package, exactly one finding of that rule."""

    def test_rpr001_catches_an_event_logged_outside_the_lock(
        self, pristine, tmp_path
    ):
        found = findings_after(
            pristine, tmp_path, "faults.py",
            "            worker.kill()\n"
            "            with self._lock:\n"
            '                self.events.append(("worker_kill", shard, n))\n',
            "            worker.kill()\n"
            '            self.events.append(("worker_kill", shard, n))\n',
        )
        assert len(found) == 1 and found[0][0] == "RPR001", found
        assert "FaultInjector.events" in found[0][1]

    def test_rpr003_catches_a_save_straight_into_the_index(
        self, pristine, tmp_path
    ):
        found = findings_after(
            pristine, tmp_path, "silc/index.py",
            'np.save(tmp / f"{name}.npy", array)',
            'np.save(path / f"{name}.npy", array)',
        )
        assert len(found) == 1 and found[0][0] == "RPR003", found
        assert "np.save()" in found[0][1]

    def test_rpr004_catches_a_wall_clock_in_ine(self, pristine, tmp_path):
        found = findings_after(
            pristine, tmp_path, "query/ine.py",
            "import math\n",
            "import math\nfrom time import perf_counter\n",
        )
        assert len(found) == 1 and found[0][0] == "RPR004", found
        assert "'perf_counter'" in found[0][1]

    def test_rpr005_catches_a_silent_catch_in_the_worker(
        self, pristine, tmp_path
    ):
        found = findings_after(pristine, tmp_path, *SILENT_CATCH)
        assert len(found) == 1 and found[0][0] == "RPR005", found
        assert "except Exception swallows" in found[0][1]

    def test_rpr006_catches_a_trace_call_off_the_null_surface(
        self, pristine, tmp_path
    ):
        found = findings_after(
            pristine, tmp_path, "engine.py",
            "plan_span.annotate(oracle=backend)",
            "trace.annotate(oracle=backend)",
        )
        assert len(found) == 1 and found[0][0] == "RPR006", found
        assert "trace.annotate" in found[0][1]


class TestRunner:
    BAD = """
        def f():
            try:
                return 1
            except Exception:
                pass
        """

    def test_exit_one_and_json_round_trip_on_findings(self, tmp_path):
        root = write_tree(tmp_path, {"m.py": self.BAD})
        status, report = check_json(root)
        assert status == 1
        assert report["summary"] == {"findings": 1, "modules": 1}
        assert [f["rule"] for f in report["findings"]] == ["RPR005"]
        assert report["findings"][0]["path"].endswith("m.py")
        assert report["findings"][0]["line"] == 5

    def test_exit_zero_on_clean_tree(self, tmp_path):
        root = write_tree(tmp_path, {"m.py": "def f():\n    return 1\n"})
        out = StringIO()
        status = run_check(out=out, root=root)
        assert status == 0
        assert "0 finding(s) in 1 modules" in out.getvalue()

    def test_syntax_errors_surface_as_findings(self, tmp_path):
        root = write_tree(tmp_path, {"m.py": "def f(:\n"})
        out = StringIO()
        status = run_check(out=out, root=root)
        assert status == 1
        assert "RPR000" in out.getvalue()

    def test_a_tree_without_modules_is_an_error(self, tmp_path):
        out = StringIO()
        assert run_check(out=out, root=tmp_path) == 2
        assert "no Python modules" in out.getvalue()

    def test_a_symlinked_tree_reports_what_the_tree_reports(self, tmp_path):
        copy = copy_package(tmp_path / "real" / "repro")
        seed(copy, "query/bestfirst.py", "from __future__ import annotations\n",
             "from __future__ import annotations\n\nimport time\n")
        (tmp_path / "link").symlink_to(tmp_path / "real")

        def located(root):
            _status, report = check_json(root)
            return [(f["rule"], Path(f["path"]).relative_to(root).as_posix(),
                     f["line"], f["message"]) for f in report["findings"]]

        found = located(copy)
        assert [(rule, rel) for rule, rel, _, _ in found] == [
            ("RPR004", "query/bestfirst.py")
        ]
        assert located(tmp_path / "link" / "repro") == found


class TestOutsideTheCheckout:
    """``python -m repro check`` checks the package it was imported
    from, whatever the working directory."""

    def _check(self, tmp_path, src):
        env = dict(os.environ, PYTHONPATH=str(src))
        return subprocess.run(
            [sys.executable, "-m", "repro", "check"], cwd=tmp_path, env=env,
            capture_output=True, text=True, timeout=120,
        )

    def test_reports_the_package_module_count(self, tmp_path):
        done = self._check(tmp_path, REPO / "src")
        count = sum(1 for _ in PACKAGE.rglob("*.py"))
        assert done.returncode == 0, done.stdout + done.stderr
        assert f"0 finding(s) in {count} modules" in done.stdout

    def test_fails_on_a_copy_with_a_silent_catch(self, tmp_path):
        copy = copy_package(tmp_path / "src" / "repro")
        seed(copy, *SILENT_CATCH)
        done = self._check(tmp_path, tmp_path / "src")
        assert done.returncode == 1, done.stdout + done.stderr
        assert "RPR005" in done.stdout


class TestRepositoryIsClean:
    def test_repro_check_is_green_on_the_repo(self):
        """The gate CI enforces: the shipped tree has no finding."""
        out = StringIO()
        assert run_check(out=out) == 0, out.getvalue()

    def test_every_rule_has_a_unique_id(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
