"""The static-analysis framework: every rule proven live by fixture.

Each rule class gets (at least) one failing and one passing fixture --
tiny source snippets written into a temp tree and run through the
real :class:`~repro.analysis.core.Analyzer` -- so a rule that silently
stops matching (an ast refactor, a config typo) fails here before it
ships a green-but-dead gate.  Suppression semantics, the ``--json``
surface and the CLI exit codes are covered at the end.
"""

import json
import shutil
import textwrap
from io import StringIO
from pathlib import Path

import pytest

from repro.analysis.core import AnalysisConfig, Analyzer, Finding
from repro.analysis.rules import ALL_RULES, make_rules
from repro.analysis.rules.atomicwrite import AtomicWriteRule
from repro.analysis.rules.deadline import DeadlinePropagationRule
from repro.analysis.rules.exceptions import ExceptionDisciplineRule
from repro.analysis.rules.locks import LockDisciplineRule
from repro.analysis.rules.protocol import ProtocolExhaustivenessRule
from repro.analysis.rules.purity import CountedOpPurityRule
from repro.analysis.rules.tracing import TracingNoOpRule
from repro.analysis.runner import run_check

REPO = Path(__file__).resolve().parents[1]


def run_rules(tmp_path, files, rule_cls, rule_config=None, raw=None):
    """Write ``files`` under ``tmp_path`` and run one rule over them."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    raw = dict(raw or {})
    if rule_config is not None:
        raw.setdefault("rules", {})[rule_cls.rule_id] = rule_config
    config = AnalysisConfig(root=tmp_path, raw=raw)
    analyzer = Analyzer(config, [rule_cls(config.rule_config(rule_cls.rule_id))])
    return analyzer.run(paths=["."])


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
    CONFIG = {
        "channels": [
            {
                "name": "pipe",
                "senders": ["client.py"],
                "handlers": ["server.py::handle"],
            }
        ]
    }
    CLIENT = """
        def call(conn):
            conn.send(("knn", 1, 2))
            conn.send(("ping",))
        """
    SERVER = """
        def handle(msg):
            if msg[0] == "knn":
                return 1
            if msg[0] == "ping":
                return 2
        """

    def test_passes_when_every_tag_has_an_arm(self, tmp_path):
        files = {"client.py": self.CLIENT, "server.py": self.SERVER}
        assert run_rules(
            tmp_path, files, ProtocolExhaustivenessRule, self.CONFIG
        ) == []

    def test_flags_sent_tag_without_handler(self, tmp_path):
        client = self.CLIENT + '    conn.send(("stop",))\n'
        files = {"client.py": client, "server.py": self.SERVER}
        findings = run_rules(
            tmp_path, files, ProtocolExhaustivenessRule, self.CONFIG
        )
        assert [f.rule for f in findings] == ["RPR002"]
        assert "'stop'" in findings[0].message

    def test_kinds_from_reads_declared_tuple(self, tmp_path):
        config = {
            "channels": [
                {
                    "name": "kinds",
                    "kinds_from": "proto.py::KINDS",
                    "handlers": ["server.py::handle"],
                }
            ]
        }
        files = {
            "proto.py": 'KINDS = ("knn", "extra")\n',
            "server.py": self.SERVER,
        }
        findings = run_rules(
            tmp_path, files, ProtocolExhaustivenessRule, config
        )
        assert [f.message for f in findings] == [
            "kinds: tag 'extra' is sent but no handler arm matches it "
            "on the receiving side"
        ]

    def test_strict_flags_dead_handler_arm(self, tmp_path):
        config = {"channels": [dict(self.CONFIG["channels"][0], strict=True)]}
        # SERVER ends with the closing-quote line's 8-space indent, so
        # the first appended line supplies only the remaining 4.
        server = self.SERVER + (
            '    if msg[0] == "ghost":\n'
            "                return 3\n"
        )
        files = {"client.py": self.CLIENT, "server.py": server}
        findings = run_rules(
            tmp_path, files, ProtocolExhaustivenessRule, config
        )
        assert ["ghost" in f.message for f in findings] == [True]


class TestAtomicWrite:
    CONFIG = {"modules": ["store.py"], "allow": ["integrity.py"]}

    def test_flags_bare_numpy_save(self, tmp_path):
        source = """
            import numpy as np

            def save(path, arr):
                np.save(path / "col.npy", arr)
            """
        findings = run_rules(
            tmp_path, {"store.py": source}, AtomicWriteRule, self.CONFIG
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
            tmp_path, {"store.py": source}, AtomicWriteRule, self.CONFIG
        ) == []

    def test_flags_append_mode_open_and_write_text(self, tmp_path):
        source = """
            def record(path, line):
                with path.open("a") as f:
                    f.write(line)
                path.write_text(line)
            """
        findings = run_rules(
            tmp_path, {"store.py": source}, AtomicWriteRule, self.CONFIG
        )
        assert [f.rule for f in findings] == ["RPR003", "RPR003"]

    def test_allowlisted_module_is_exempt(self, tmp_path):
        source = """
            def publish(path, text):
                with open(path, "w") as f:
                    f.write(text)
            """
        config = dict(self.CONFIG, modules=["integrity.py"])
        assert run_rules(
            tmp_path, {"integrity.py": source}, AtomicWriteRule, config
        ) == []


class TestCountedOpPurity:
    CONFIG = {"kernels": ["kernel.py"]}

    def test_flags_wall_clock_in_kernel(self, tmp_path):
        source = """
            from time import perf_counter

            def search():
                return perf_counter()
            """
        findings = run_rules(
            tmp_path, {"kernel.py": source}, CountedOpPurityRule, self.CONFIG
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
            tmp_path, {"kernel.py": source}, CountedOpPurityRule, self.CONFIG
        ) == []

    def test_non_kernel_modules_are_out_of_scope(self, tmp_path):
        source = "import time\n\n\ndef now():\n    return time.time()\n"
        assert run_rules(
            tmp_path, {"other.py": source}, CountedOpPurityRule, self.CONFIG
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
        config = {
            "pipe_modules": ["worker.py"],
            "errors_module": "errors.py",
            "allowed_raises": ["ValueError"],
        }
        files = {
            "errors.py": "class WorkerDied(Exception):\n    pass\n",
            "worker.py": (
                "def f():\n"
                "    raise WorkerDied('ok')\n"
                "\n"
                "def g():\n"
                "    raise KeyError('not a wire type')\n"
            ),
        }
        findings = run_rules(
            tmp_path, files, ExceptionDisciplineRule, config
        )
        assert ["KeyError" in f.message for f in findings] == [True]


class TestTracingNoOp:
    CONFIG = {"inner_loop": ["kernel.py"]}

    def test_flags_unknown_span_method(self, tmp_path):
        source = """
            def serve(trace):
                with trace.span("x") as s:
                    s.close()
                    s.explode()
            """
        findings = run_rules(
            tmp_path, {"serve.py": source}, TracingNoOpRule, self.CONFIG
        )
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
        assert run_rules(
            tmp_path, {"serve.py": source}, TracingNoOpRule, self.CONFIG
        ) == []

    def test_flags_obs_import_in_inner_loop(self, tmp_path):
        source = "from repro.obs.trace import NULL_TRACE\n"
        findings = run_rules(
            tmp_path, {"kernel.py": source}, TracingNoOpRule, self.CONFIG
        )
        assert [f.rule for f in findings] == ["RPR006"]
        assert "inner-loop" in findings[0].message

    def test_api_parsed_from_trace_module(self, tmp_path):
        # A NullSpan that really has .explode() makes the call legal.
        files = {
            "trace.py": (
                "class NullTrace:\n"
                "    def span(self, name, **labels):\n"
                "        return NullSpan()\n"
                "\n"
                "class NullSpan:\n"
                "    def explode(self):\n"
                "        pass\n"
            ),
            "serve.py": (
                "def serve(trace):\n"
                "    with trace.span('x') as s:\n"
                "        s.explode()\n"
            ),
        }
        config = dict(self.CONFIG, trace_module="trace.py")
        assert run_rules(tmp_path, files, TracingNoOpRule, config) == []


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


class TestRulesOnTheShardTier:
    """RPR002 and RPR007 against the shard tier as it is shipped: a copy
    of the real ``src/repro/shard`` and ``analysis.toml``, clean as
    copied, must fail once the bug class each rule exists for is put
    back into it."""

    def _check(self, tmp_path, rule, path, old, new):
        shutil.copy(REPO / "analysis.toml", tmp_path / "analysis.toml")
        shard = tmp_path / "src" / "repro" / "shard"
        shutil.copytree(REPO / "src" / "repro" / "shard", shard,
                        ignore=shutil.ignore_patterns("__pycache__"))

        def findings():
            out = StringIO()
            run_check(rule_ids=[rule], as_json=True,
                      config_path=tmp_path / "analysis.toml", out=out)
            return [f["message"] for f in json.loads(out.getvalue())["findings"]
                    if not f["suppressed"]]

        assert findings() == []
        source = (shard / path).read_text()
        assert source.count(old) == 1
        (shard / path).write_text(source.replace(old, new))
        return findings()

    def test_rpr007_catches_a_dropped_budget_on_the_worker_visit(self, tmp_path):
        messages = self._check(
            tmp_path, "RPR007", "worker.py",
            "shard, position, k, variant, trace=trace, time_cap=budget,",
            "shard, position, k, variant, trace=trace,",
        )
        assert len(messages) == 1 and "knn" in messages[0], messages

    def test_rpr002_catches_a_deleted_ping_arm(self, tmp_path):
        messages = self._check(
            tmp_path, "RPR002", "worker.py",
            'if kind == "ping":\n'
            '                conn.send(("pong", shard_id))\n'
            '            elif kind == "knn":',
            'if kind == "knn":',
        )
        assert len(messages) == 1 and "'ping'" in messages[0], messages


class TestSuppressions:
    SOURCE = """
        def f():
            try:
                return 1
            except Exception:{comment}
                pass
        """

    def _run(self, tmp_path, comment):
        source = self.SOURCE.format(comment=comment)
        return run_rules(tmp_path, {"m.py": source}, ExceptionDisciplineRule)

    def test_justified_ignore_suppresses(self, tmp_path):
        findings = self._run(
            tmp_path, "  # repro: ignore[RPR005] demo boundary, errors logged upstream"
        )
        assert [f.suppressed for f in findings] == [True]
        assert findings[0].justification == "demo boundary, errors logged upstream"

    def test_ignore_without_justification_stays_alive(self, tmp_path):
        findings = self._run(tmp_path, "  # repro: ignore[RPR005]")
        assert [f.suppressed for f in findings] == [False]
        assert "justification is required" in findings[0].message

    def test_ignore_for_other_rule_does_not_suppress(self, tmp_path):
        findings = self._run(tmp_path, "  # repro: ignore[RPR001] wrong rule")
        assert [f.suppressed for f in findings] == [False]

    def test_comment_line_above_suppresses(self, tmp_path):
        source = """
            def f():
                try:
                    return 1
                # repro: ignore[RPR005] demo boundary
                except Exception:
                    pass
            """
        findings = run_rules(tmp_path, {"m.py": source}, ExceptionDisciplineRule)
        assert [f.suppressed for f in findings] == [True]


class TestRunner:
    def _write_tree(self, tmp_path, source):
        (tmp_path / "analysis.toml").write_text(
            '[analysis]\npaths = ["pkg"]\n'
        )
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "m.py").write_text(textwrap.dedent(source))
        return tmp_path

    BAD = """
        def f():
            try:
                return 1
            except Exception:
                pass
        """

    def test_exit_one_and_json_round_trip_on_findings(self, tmp_path):
        root = self._write_tree(tmp_path, self.BAD)
        out = StringIO()
        status = run_check(
            as_json=True, config_path=root / "analysis.toml", out=out
        )
        assert status == 1
        report = json.loads(out.getvalue())
        assert report["summary"]["unsuppressed"] == 1
        round_tripped = [Finding.from_dict(f) for f in report["findings"]]
        assert [f.rule for f in round_tripped] == ["RPR005"]
        assert round_tripped[0].location.endswith("m.py:5")

    def test_exit_zero_on_clean_tree(self, tmp_path):
        root = self._write_tree(tmp_path, "def f():\n    return 1\n")
        out = StringIO()
        status = run_check(config_path=root / "analysis.toml", out=out)
        assert status == 0
        assert "0 finding(s)" in out.getvalue()

    def test_exit_zero_when_every_finding_is_suppressed(self, tmp_path):
        source = self.BAD.replace(
            "except Exception:",
            "except Exception:  # repro: ignore[RPR005] fixture boundary",
        )
        root = self._write_tree(tmp_path, source)
        out = StringIO()
        status = run_check(config_path=root / "analysis.toml", out=out)
        assert status == 0
        assert "1 suppressed" in out.getvalue()

    def test_unknown_rule_id_exits_two(self, tmp_path):
        root = self._write_tree(tmp_path, "x = 1\n")
        out = StringIO()
        status = run_check(
            rule_ids=["RPRXYZ"], config_path=root / "analysis.toml", out=out
        )
        assert status == 2

    def test_rule_filter_limits_the_run(self, tmp_path):
        root = self._write_tree(tmp_path, self.BAD)
        out = StringIO()
        status = run_check(
            rule_ids=["RPR001"], config_path=root / "analysis.toml", out=out
        )
        assert status == 0  # the RPR005 finding is filtered out

    def test_list_rules_names_every_rule(self, tmp_path):
        out = StringIO()
        assert run_check(list_rules=True, out=out) == 0
        listed = out.getvalue()
        for cls in ALL_RULES:
            assert cls.rule_id in listed

    def test_syntax_errors_surface_as_findings(self, tmp_path):
        root = self._write_tree(tmp_path, "def f(:\n")
        out = StringIO()
        status = run_check(config_path=root / "analysis.toml", out=out)
        assert status == 1
        assert "RPR000" in out.getvalue()


class TestRepositoryIsClean:
    def test_repro_check_is_green_on_the_repo(self):
        """The gate CI enforces: the shipped tree has no unsuppressed findings."""
        out = StringIO()
        assert run_check(out=out) == 0, out.getvalue()

    def test_every_rule_has_default_config_and_unique_id(self):
        ids = [cls.rule_id for cls in ALL_RULES]
        assert len(ids) == len(set(ids))
        assert ids == sorted(ids)
        config = AnalysisConfig.discover()
        rules = make_rules(config)
        assert [r.rule_id for r in rules] == ids
