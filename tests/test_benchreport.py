"""bench-report: parsing and rendering the build-time trajectory."""

import pytest

from repro.benchreport import (
    BuildRecord,
    append_build_time,
    format_report,
    parse_build_times,
    report_file,
)
from repro.cli import main

FIXTURE = """\
2026-07-01T10:00:00 n=1000 seed=42 workers=1 seconds=2.500
2026-07-02T10:00:00 n=1000 seed=42 workers=1 seconds=2.000

# a comment line
2026-07-03T10:00:00 n=1000 seed=42 workers=1 seconds=1.000
2026-07-03T11:00:00 n=3000 seed=42 workers=4 chunk_size=256 seconds=5.125
2026-07-04T11:00:00 n=3000 seed=42 workers=4 chunk_size=256 shards=4 seconds=5.250
2026-07-05T11:00:00 n=3000 seed=42 workers=1 chunk_size=256 shards=1 oracle=labels seconds=0.750
"""


class TestParse:
    def test_parses_fields(self):
        records = parse_build_times(FIXTURE)
        assert len(records) == 6
        assert records[0] == BuildRecord(
            stamp="2026-07-01T10:00:00", n=1000, seed=42, workers=1, seconds=2.5
        )
        assert records[3].workers == 4
        assert records[3].chunk_size == 256
        assert records[4].shards == 4
        assert records[5].oracle == "labels"

    def test_chunkless_legacy_lines_parse(self):
        records = parse_build_times(FIXTURE)
        assert records[0].chunk_size is None
        assert records[0].shards is None
        assert records[0].oracle is None
        assert records[3].shards is None
        assert records[4].oracle is None

    def test_blank_and_comment_lines_skipped(self):
        assert len(parse_build_times("\n# only a comment\n")) == 0

    def test_malformed_line_is_loud(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_build_times("2026-07-01T10:00:00 n=notanint seed=1\n")


class TestAppend:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "build_times.txt"
        append_build_time(3000, 42, 2, 256, 1.25, path=path)
        records = parse_build_times(path.read_text())
        assert len(records) == 1
        r = records[0]
        assert (r.n, r.seed, r.workers, r.chunk_size, r.seconds, r.shards) == (
            3000, 42, 2, 256, 1.25, 1
        )
        assert r.oracle == "silc"

    def test_shards_round_trip(self, tmp_path):
        path = tmp_path / "build_times.txt"
        append_build_time(1200, 42, 2, 256, 3.5, path=path, shards=4)
        r = parse_build_times(path.read_text())[0]
        assert r.shards == 4

    def test_oracle_round_trip(self, tmp_path):
        path = tmp_path / "build_times.txt"
        append_build_time(1200, 42, 1, 256, 0.4, path=path, oracle="labels")
        r = parse_build_times(path.read_text())[0]
        assert r.oracle == "labels"

    def test_appends_not_truncates(self, tmp_path):
        path = tmp_path / "build_times.txt"
        append_build_time(100, 1, 1, 64, 0.5, path=path)
        append_build_time(100, 1, 2, 64, 0.3, path=path)
        assert len(parse_build_times(path.read_text())) == 2


class TestFormat:
    def test_trajectory_columns(self):
        text = format_report(parse_build_times(FIXTURE))
        lines = text.splitlines()
        assert lines[0].split() == [
            "n", "workers", "chunk", "shards", "oracle", "builds",
            "first_s", "latest_s", "best_s", "median_s",
        ]
        row_1000 = next(l for l in lines if l.strip().startswith("1000"))
        assert row_1000.split() == [
            "1000", "1", "-", "-", "-", "3",
            "2.500", "1.000", "1.000", "2.000",
        ]
        row_3000 = next(l for l in lines if l.strip().startswith("3000"))
        assert row_3000.split()[:6] == ["3000", "1", "256", "1", "labels", "1"]
        sharded = next(
            l for l in lines if l.split()[:5] == ["3000", "4", "256", "4", "-"]
        )
        assert sharded.split()[5] == "1"
        assert "(6 builds, 2026-07-01T10:00:00 .. 2026-07-05T11:00:00)" in text

    def test_empty_history(self):
        assert "no build timings" in format_report([])


class TestReportFile:
    def test_reads_fixture_file(self, tmp_path):
        path = tmp_path / "build_times.txt"
        path.write_text(FIXTURE)
        text = report_file(path)
        assert "3000" in text and "5.125" in text

    def test_missing_file_is_a_message_not_an_error(self, tmp_path):
        text = report_file(tmp_path / "nope.txt")
        assert "no build-times history" in text


class TestCli:
    def test_bench_report_subcommand(self, tmp_path, capsys):
        path = tmp_path / "build_times.txt"
        path.write_text(FIXTURE)
        assert main(["bench-report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "median_s" in out
        assert "5.125" in out

    def test_bench_report_missing_file(self, tmp_path, capsys):
        assert main(["bench-report", str(tmp_path / "absent.txt")]) == 0
        assert "no build-times history" in capsys.readouterr().out
