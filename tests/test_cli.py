"""Tests for the command-line interface."""

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.fixture()
def built(tmp_path, capsys):
    net_path = tmp_path / "net.txt"
    idx_path = tmp_path / "index.silc"
    assert main(["generate", str(net_path), "--size", "120", "--seed", "3"]) == 0
    assert main(["build", str(net_path), str(idx_path)]) == 0
    capsys.readouterr()
    return net_path, idx_path


def _rank_dists(out: str) -> list[float]:
    return [
        float(l.split("distance")[1])
        for l in out.splitlines()
        if l.startswith("#")
    ]


class TestGenerate:
    @pytest.mark.parametrize("kind", ["road", "grid", "planar"])
    def test_generates_loadable_network(self, kind, tmp_path, capsys):
        path = tmp_path / "net.txt"
        rc = main(["generate", str(path), "--kind", kind, "--size", "80"])
        assert rc == 0
        assert path.exists()
        out = capsys.readouterr().out
        assert "vertices" in out
        from repro.network import load_text

        net = load_text(path)
        net.require_strongly_connected()


class TestBuildAndStats:
    def test_stats_reports_blocks(self, built, capsys):
        net_path, idx_path = built
        assert main(["stats", str(net_path), str(idx_path)]) == 0
        out = capsys.readouterr().out
        assert "morton blocks" in out
        assert "blocks/vertex" in out
        assert "storage (8 B):" in out  # a grid of order <= 8: uint16 codes

    def test_index_file_exists(self, built):
        _, idx_path = built
        assert (idx_path / "codes.npy").stat().st_size > 0
        assert (idx_path / "MANIFEST.json").exists()

    def test_pooled_build_files_identical_to_serial(self, built, tmp_path, capsys):
        """What CI's smoke step checks with ``cmp``: a pooled build
        writes the serial build's bytes, file by file."""
        net_path, serial = built
        pooled = tmp_path / "index.pooled"
        assert main(["build", str(net_path), str(pooled), "--workers", "2",
                     "--chunk-size", "32"]) == 0
        names = sorted(p.name for p in serial.iterdir())
        assert names == sorted(p.name for p in pooled.iterdir())
        assert filecmp.cmpfiles(serial, pooled, names, shallow=False)[1:] == ([], [])


class TestPath:
    def test_path_output(self, built, capsys):
        net_path, idx_path = built
        assert main(["path", str(net_path), str(idx_path), "0", "100"]) == 0
        out = capsys.readouterr().out
        assert "->" in out
        assert "network distance" in out
        first_line = out.splitlines()[0]
        assert first_line.startswith("0 ")
        assert first_line.strip().endswith(" 100")

    def test_path_matches_library(self, built, capsys):
        from repro.network import load_text, shortest_path

        net_path, idx_path = built
        main(["path", str(net_path), str(idx_path), "0", "100"])
        out = capsys.readouterr().out
        cli_dist = float(out.splitlines()[1].split(":")[1].split("(")[0])
        net = load_text(net_path)
        _, true_dist, _ = shortest_path(net, 0, 100)
        assert cli_dist == pytest.approx(true_dist, rel=1e-5)


class TestKnn:
    def test_knn_output(self, built, capsys):
        net_path, idx_path = built
        rc = main([
            "knn", str(net_path), str(idx_path),
            "--query", "0", "--k", "3", "--objects", "20",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        ranks = [l for l in out.splitlines() if l.startswith("#")]
        assert len(ranks) == 3
        assert "refinements" in out

    def test_knn_matches_library(self, built, capsys):
        from repro.datasets import random_vertex_objects
        from repro.network import load_text
        from repro.objects import ObjectIndex
        from repro.query import knn
        from repro.silc import SILCIndex

        net_path, idx_path = built
        main([
            "knn", str(net_path), str(idx_path),
            "--query", "5", "--k", "3", "--objects", "20", "--seed", "1",
        ])
        out = capsys.readouterr().out
        cli_dists = [
            float(l.split("distance")[1]) for l in out.splitlines() if l.startswith("#")
        ]
        net = load_text(net_path)
        index = SILCIndex.load(idx_path, net)
        objects = random_vertex_objects(net, count=20, seed=1)
        oi = ObjectIndex(net, objects, index.embedding)
        lib = knn(index, oi, 5, 3, exact=True)
        assert cli_dists == pytest.approx(
            [n.distance for n in lib.neighbors], rel=1e-5
        )


class TestOracles:
    def test_build_labels_persists_columns(self, built, capsys):
        net_path, idx_path = built
        rc = main(["build-labels", str(net_path), str(idx_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned-landmark labelling" in out
        assert "calibrated planner cost model" in out
        # one label set on a symmetric network: 2 x 1905 / 120 vertices = 31.75
        assert "1905 entries stored (31.8/vertex out+in)" in out
        labels_dir = idx_path / "labels"
        from repro.oracle import PrunedLabellingOracle

        assert PrunedLabellingOracle.saved_at(labels_dir)
        assert {p.name for p in labels_dir.iterdir()} == {
            "MANIFEST.json", "cost_model.json", "out_offsets.npy", "out_hubs.npy", "out_dists.npy",
        }

    def test_build_labels_needs_an_index_directory(self, built, tmp_path, capsys):
        net_path, _ = built
        for not_an_index in (tmp_path / "absent", net_path):
            rc = main(["build-labels", str(net_path), str(not_an_index)])
            assert rc == 2
            assert "not an index directory" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle", ["labels", "ine", "auto"])
    def test_oracle_backends_match_silc(self, oracle, built, capsys):
        net_path, idx_path = built
        main(["build-labels", str(net_path), str(idx_path)])
        capsys.readouterr()
        base_args = ["knn", str(net_path), str(idx_path),
                     "--query", "5", "--k", "3", "--objects", "20"]
        assert main(base_args + ["--oracle", "silc"]) == 0
        silc_dists = _rank_dists(capsys.readouterr().out)
        assert main(base_args + ["--oracle", oracle]) == 0
        assert _rank_dists(capsys.readouterr().out) == pytest.approx(
            silc_dists, rel=1e-9
        )

    def test_oracle_labels_builds_in_memory_without_saved(self, built,
                                                          capsys):
        net_path, idx_path = built
        rc = main(["knn", str(net_path), str(idx_path),
                   "--query", "5", "--k", "3", "--oracle", "labels"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "label scans" in captured.out
        assert "build-labels" in captured.err  # the persist hint

    @pytest.mark.parametrize("file, damage", [
        ("out_hubs.npy", "delete"), ("out_hubs.npy", "truncate"), ("MANIFEST.json", "delete"),
    ])
    @pytest.mark.parametrize("oracle", ["labels", "auto"])
    def test_a_damaged_labelling_fails_the_load(self, built, capsys, oracle, file, damage):
        """A labelling with a column gone or cut short, or its manifest
        gone, is refused naming the file, not read as no labelling
        (built in memory, or planned without)."""
        from repro.faults import truncate_file

        net_path, idx_path = built
        main(["build-labels", str(net_path), str(idx_path), "--skip-calibration"])
        path = idx_path / "labels" / file
        path.unlink() if damage == "delete" else truncate_file(path)
        capsys.readouterr()
        rc = main(["knn", str(net_path), str(idx_path), "--query", "5", "--k", "3",
                   "--oracle", oracle])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro knn: error:") and err.count("\n") == 1
        assert ("'out_hubs'" if file == "out_hubs.npy" else "MANIFEST.json") in err
        assert "building in memory" not in err

    def test_an_edited_cost_model_fails_the_load(self, built, capsys):
        """One digit of a calibrated per-op time changed by hand: the
        file's checksum refuses it, so ``--oracle auto`` never plans on it."""
        net_path, idx_path = built
        assert main(["build-labels", str(net_path), str(idx_path)]) == 0
        path = idx_path / "labels" / "cost_model.json"
        text = path.read_text()
        old = repr(json.loads(text)["op_seconds"]["ine"])
        assert text.count(old) == 1
        path.write_text(text.replace(old, ("8" if old[0] == "9" else "9") + old[1:]))
        capsys.readouterr()
        rc = main(["knn", str(net_path), str(idx_path), "--query", "5", "--k", "3",
                   "--oracle", "auto"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro knn: error: corrupt cost model") and err.count("\n") == 1
        assert str(path) in err and "fail their checksum" in err

    @pytest.mark.parametrize("layout, served", [
        ("stale-in-columns", "symmetric"),
        ("three-columns", "directed"),
        ("six-columns", "symmetric"),
    ])
    def test_a_labelling_of_the_wrong_layout_fails_the_load(self, built, capsys, layout, served):
        """A symmetric labelling saved with its in-labels (the layout
        before one label set), and the labellings of a network and of its
        one-way twin swapped, are refused naming the rebuild."""
        from repro.integrity import write_manifest
        from repro.network import load_text
        from repro.network.io import save_text
        from test_properties import one_way

        net_path, idx_path = built
        one_way_net = net_path.with_name("one-way.txt")
        save_text(one_way(load_text(net_path), 3), one_way_net)
        assert main(["build", str(one_way_net), str(net_path.with_name("one-way.silc"))]) == 0
        runs = {"symmetric": (net_path, idx_path),
                "directed": (one_way_net, net_path.with_name("one-way.silc"))}
        for net, idx in runs.values():
            main(["build-labels", str(net), str(idx), "--skip-calibration"])
        labels = {kind: idx / "labels" for kind, (_, idx) in runs.items()}
        if layout == "stale-in-columns":
            for column in ("offsets", "hubs", "dists"):
                shutil.copyfile(labels["symmetric"] / f"out_{column}.npy",
                                labels["symmetric"] / f"in_{column}.npy")
            write_manifest(labels["symmetric"], manifest_format=2)
        else:
            aside = net_path.with_name("aside")
            os.replace(labels["symmetric"], aside)
            os.replace(labels["directed"], labels["symmetric"])
            os.replace(aside, labels["directed"])
        capsys.readouterr()
        rc = main(["knn", *map(str, runs[served]), "--query", "5", "--k", "3", "--oracle", "auto"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("repro knn: error: corrupt labelling") and "'in_offsets'" in err
        assert "rebuild it with `repro build-labels`" in err

    def test_epsilon_relaxation(self, built, capsys):
        net_path, idx_path = built
        args = ["knn", str(net_path), str(idx_path),
                "--query", "5", "--k", "3", "--objects", "20"]
        assert main(args + ["--epsilon", "0"]) == 0
        exact = _rank_dists(capsys.readouterr().out)
        assert main(args + ["--epsilon", "0.5"]) == 0
        approx = _rank_dists(capsys.readouterr().out)
        assert len(approx) == len(exact) == 3
        # interval midpoints never undercut the exact distance, and the
        # (1+eps) contract bounds the kth overshoot
        assert approx[-1] <= (1 + 0.5) * exact[-1] + 1e-9


class TestServe:
    def test_serve_oracle_auto_matches_silc(self, built, tmp_path,
                                            capsys):
        net_path, idx_path = built
        main(["build-labels", str(net_path), str(idx_path)])
        capsys.readouterr()
        infile = tmp_path / "requests.jsonl"
        requests = [
            {"id": i, "kind": "knn", "query": q, "k": 3}
            for i, q in enumerate([0, 5, 37, 5])
        ]
        requests.append(
            {"id": 99, "kind": "knn", "query": 8, "k": 2, "oracle": "labels"}
        )
        infile.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        answers = {}
        for oracle in ("silc", "auto"):
            rc = main(["serve", str(net_path), str(idx_path),
                       "--objects", "20", "--seed", "1",
                       "--oracle", oracle, "--input", str(infile)])
            assert rc == 0
            records = [json.loads(l)
                       for l in capsys.readouterr().out.splitlines()]
            assert all(r["status"] == "ok" for r in records)
            answers[oracle] = {r["id"]: (r["ids"], r["distances"])
                               for r in records}
        assert answers["auto"].keys() == answers["silc"].keys()
        for rid, (ids, dists) in answers["silc"].items():
            assert answers["auto"][rid][0] == ids
            assert answers["auto"][rid][1] == pytest.approx(dists, rel=1e-9)

    def test_serve_rejects_unknown_oracle_request(self, built, tmp_path,
                                                  capsys):
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text(
            json.dumps({"id": 1, "kind": "knn", "query": 0, "k": 2,
                        "oracle": "quantum"}) + "\n"
        )
        assert main(["serve", str(net_path), str(idx_path),
                     "--objects", "20", "--input", str(infile)]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["status"] == "error"
        assert "quantum" in record["error"]
    def test_jsonl_loop_answers_requests(self, built, tmp_path, capsys):
        net_path, idx_path = built
        requests = [
            {"id": 1, "client": "web", "kind": "knn", "query": 0, "k": 3},
            {"id": 2, "client": "web", "kind": "distance", "source": 0, "target": 60},
            {"id": 3, "client": "bulk", "kind": "knn_batch",
             "queries": [4, 8, 15], "k": 2},
        ]
        infile = tmp_path / "requests.jsonl"
        infile.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        rc = main([
            "serve", str(net_path), str(idx_path),
            "--objects", "20", "--input", str(infile),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        records = [json.loads(l) for l in captured.out.splitlines()]
        by_id = {r["id"]: r for r in records}
        assert set(by_id) == {1, 2, 3}
        assert all(r["status"] == "ok" for r in records)
        assert len(by_id[1]["ids"]) == 3
        assert by_id[2]["distance"] > 0
        assert len(by_id[3]["ids"]) == 3  # one id list per batch query
        assert "latency p50" in captured.err  # metrics snapshot on stderr

    def test_serve_matches_knn_subcommand(self, built, tmp_path, capsys):
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text(
            json.dumps({"id": 9, "kind": "knn", "query": 5, "k": 3}) + "\n"
        )
        main(["serve", str(net_path), str(idx_path),
              "--objects", "20", "--seed", "1", "--input", str(infile)])
        served = json.loads(capsys.readouterr().out.splitlines()[0])
        main(["knn", str(net_path), str(idx_path),
              "--query", "5", "--k", "3", "--objects", "20", "--seed", "1"])
        cli_dists = [
            float(l.split("distance")[1])
            for l in capsys.readouterr().out.splitlines() if l.startswith("#")
        ]
        assert served["distances"] == pytest.approx(cli_dists, rel=1e-5)

    def test_sharded_serve_matches_unsharded(self, built, tmp_path, capsys):
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        requests = [
            {"id": i, "kind": "knn", "query": q, "k": 3}
            for i, q in enumerate([0, 5, 37])
        ]
        infile.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        main(["serve", str(net_path), str(idx_path),
              "--objects", "20", "--seed", "1", "--input", str(infile)])
        plain = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        rc = main(["serve", str(net_path), str(idx_path),
                   "--objects", "20", "--seed", "1", "--shards", "2",
                   "--input", str(infile)])
        assert rc == 0
        sharded = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        plain_by_id = {r["id"]: r for r in plain}
        for record in sharded:
            assert record["status"] == "ok"
            expected = plain_by_id[record["id"]]
            assert record["ids"] == expected["ids"]
            assert record["distances"] == pytest.approx(
                expected["distances"], rel=1e-5
            )

    def test_rejects_past_in_flight_cap(self, built, tmp_path, capsys):
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text(
            json.dumps({"id": 1, "kind": "knn_batch",
                        "queries": list(range(20)), "k": 2}) + "\n"
        )
        rc = main([
            "serve", str(net_path), str(idx_path),
            "--objects", "20", "--max-in-flight", "5", "--input", str(infile),
        ])
        assert rc == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["status"] == "rejected"
        # 20 queries can never fit under a cap of 5: terminal rejection
        assert record["reason"] == "request_too_large"
        assert record["retry_after"] == 0


def test_every_variant_serves_the_answers_of_dijkstras_ball(built, tmp_path, capsys):
    """CI's walk smoke: exact k = 25 requests of all four variants served
    on the SILC walk and on INE, compared by the tool CI uses (kNN-M's
    unranked replies as sets)."""
    net_path, idx_path = built
    infile = tmp_path / "requests.jsonl"
    infile.write_text("\n".join(
        json.dumps({"id": i, "kind": "knn", "query": q, "k": 25, "variant": v})
        for i, (v, q) in enumerate(
            ((v, q) for v in ("knn", "inn", "knn_i", "knn_m") for q in (0, 17, 42, 99)), 1
        )
    ) + "\n")
    for oracle in ("silc", "ine"):
        assert main([
            "serve", str(net_path), str(idx_path), "--objects", "40",
            "--oracle", oracle, "--input", str(infile),
        ]) == 0
        (tmp_path / f"{oracle}.out").write_text(capsys.readouterr().out)
    done = subprocess.run(
        [sys.executable, str(TOOLS / "compare_serve_outputs.py"),
         str(tmp_path / "silc.out"), str(tmp_path / "ine.out"),
         "--expect", "16", "--requests", str(infile)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


class TestServeOverStdin:
    def test_closed_loop_over_the_stdin_pipe_matches_the_input_file(
        self, built, tmp_path, capsys
    ):
        """CI's stdin-pipe smoke, with the two tools it chains."""
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text("\n".join(json.dumps(r) for r in [
            {"id": 1, "client": "web", "kind": "knn", "query": 0, "k": 5},
            {"id": 2, "client": "bulk", "kind": "knn_batch",
             "queries": [5, 9, 23], "k": 2},
            {"id": 3, "client": "web", "kind": "path", "source": 0, "target": 100},
            {"id": 4, "client": "web", "kind": "distance", "source": 0, "target": 100},
        ]) + "\n")
        serve_args = [str(net_path), str(idx_path), "--objects", "20"]
        assert main(["serve", *serve_args, "--input", str(infile)]) == 0
        (tmp_path / "file.out").write_text(capsys.readouterr().out)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for tool, args in (
            ("serve_closed_loop.py",
             [str(infile), str(tmp_path / "piped.out"), "--", *serve_args]),
            ("compare_serve_outputs.py",
             [str(tmp_path / "file.out"), str(tmp_path / "piped.out"),
              "--expect", "4"]),
        ):
            done = subprocess.run(
                [sys.executable, str(TOOLS / tool), *args],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout + done.stderr

    def test_a_worker_respawned_under_the_stdin_reader_answers(self, built, tmp_path):
        """A respawn forks while the server is reading the stdin pipe;
        the child must not wait on a lock of that read when it closes
        its stdin.  Two kills of the serving worker (slot 0 serves one
        client), both recovered, counted by a last stats line that the
        closed loop sends after the answers are in."""
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text("\n".join(json.dumps(r) for r in [
            {"id": 1, "kind": "knn", "query": 0, "k": 5},
            {"id": 2, "kind": "knn", "query": 17, "k": 3},
            {"id": 3, "kind": "stats"},
        ]) + "\n")
        out = tmp_path / "piped.out"
        done = subprocess.run(
            [sys.executable, str(TOOLS / "serve_closed_loop.py"), str(infile), str(out),
             "--", str(net_path), str(idx_path), "--objects", "20", "--shards", "2",
             "--inject-kill", "0:1", "--inject-kill", "0:3"],
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stdout + done.stderr
        replies = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["status"] for r in replies] == ["ok"] * 3
        events = {
            c["labels"]["event"]: c["value"] for c in replies[2]["metrics"]["counters"]
            if c["name"] == "fault_events_total" and c["labels"]["stage"] == "shard"
        }
        assert events["worker_crash"] == events["respawn"] == 2

    def test_one_deployment_counts_one_set_of_engine_ops(self, built, tmp_path):
        """``repro serve`` builds one engine, without a page simulator,
        whether it answers in process or on two shard workers: the same
        closed-loop requests count the same ``engine_ops_total``, read by
        a stats line sent after their replies, and no simulated
        ``io_accesses`` / ``io_misses`` among them.  The stats say how
        much of the mapped index the OS page cache holds instead."""
        net_path, idx_path = built
        infile = tmp_path / "requests.jsonl"
        infile.write_text("\n".join(json.dumps(r) for r in [
            *({"id": i, "kind": "knn", "query": q, "k": 4, "variant": v}
              for i, (q, v) in enumerate(zip((0, 17, 42, 88), ("knn", "inn", "knn_i", "knn_m")))),
            {"id": 4, "kind": "knn_batch", "queries": [5, 9, 23], "k": 3},
            {"id": 5, "kind": "stats"},
        ]) + "\n")
        ops = {}
        for shards in ("1", "2"):
            out = tmp_path / f"shards-{shards}.out"
            done = subprocess.run(
                [sys.executable, str(TOOLS / "serve_closed_loop.py"), str(infile), str(out),
                 "--", str(net_path), str(idx_path), "--objects", "20", "--mmap",
                 "--shards", shards],
                env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stdout + done.stderr
            replies = [json.loads(line) for line in out.read_text().splitlines()]
            assert [r["status"] for r in replies] == ["ok"] * 6
            metrics = replies[-1]["metrics"]
            ops[shards] = {c["labels"]["op"]: c["value"] for c in metrics["counters"]
                           if c["name"] == "engine_ops_total"}
            gauges = {g["name"]: g["value"] for g in metrics["gauges"]}
            assert 0 < gauges.get("index_resident_bytes", 1) <= gauges["index_mapped_bytes"]
        assert ops["1"] == ops["2"]
        assert ops["1"]["refinements"] > 0
        assert not {"io_accesses", "io_misses"} & set(ops["1"])


    def test_a_broken_reply_pipe_ends_the_server_with_stdin_still_open(self, built):
        """The client reads one reply, closes its end of the reply pipe
        and sends a second line, but keeps stdin open: the reply that
        cannot be written ends the server (status 1) there and then,
        not when stdin closes."""
        net_path, idx_path = built
        line = (json.dumps({"id": 1, "kind": "knn", "query": 0, "k": 3}) + "\n").encode()
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(net_path), str(idx_path),
             "--objects", "20"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        try:
            server.stdin.write(line)
            server.stdin.flush()
            assert json.loads(server.stdout.readline())["status"] == "ok"
            server.stdout.close()
            server.stdin.write(line)  # its reply has nowhere to go
            server.stdin.flush()
            returncode = server.wait(timeout=30)
        finally:
            server.kill()
            server.wait()
            server.stdin.close()
        assert returncode == 1
        assert b"BrokenPipeError" in server.stderr.read()
        server.stderr.close()


class TestObservability:
    def _request_file(self, tmp_path, with_stats=True):
        infile = tmp_path / "requests.jsonl"
        requests = [
            {"id": i, "client": "web", "kind": "knn", "query": q, "k": 3}
            for i, q in enumerate([0, 5, 37])
        ]
        if with_stats:
            requests.append({"id": 99, "client": "ops", "kind": "stats"})
        infile.write_text("\n".join(json.dumps(r) for r in requests) + "\n")
        return infile

    def test_traced_serve_emits_traces_and_stats(self, built, tmp_path,
                                                 capsys):
        net_path, idx_path = built
        trace_path = tmp_path / "trace.jsonl"
        slow_path = tmp_path / "slow.jsonl"
        rc = main(["serve", str(net_path), str(idx_path),
                   "--objects", "20", "--seed", "1",
                   "--input", str(self._request_file(tmp_path)),
                   "--trace-file", str(trace_path),
                   "--slow-log", str(slow_path),
                   "--slow-threshold-ms", "0"])
        assert rc == 0
        out, err = capsys.readouterr()
        records = {json.loads(l)["id"]: json.loads(l)
                   for l in out.splitlines()}
        assert all(r["status"] == "ok" for r in records.values())
        # The stats request returned the live registry over the wire.
        # It bypasses the scheduler, so which of the three traces it
        # already counts is not specified for a request file; what it
        # reports once the replies are in is checked over a pipe in
        # tests/test_serve_jsonl.py.
        assert set(records[99]["metrics"]) == {"counters", "gauges", "histograms"}
        # one trace per traced request (stats bypasses tracing)
        assert "3 traces" in err
        trace_lines = trace_path.read_text().splitlines()
        assert len(trace_lines) == 3
        # threshold 0 sends every trace to the slow log too
        assert len(slow_path.read_text().splitlines()) == 3

    def test_trace_report_renders(self, built, tmp_path, capsys):
        net_path, idx_path = built
        trace_path = tmp_path / "trace.jsonl"
        main(["serve", str(net_path), str(idx_path),
              "--objects", "20", "--seed", "1",
              "--input", str(self._request_file(tmp_path, with_stats=False)),
              "--trace-file", str(trace_path)])
        capsys.readouterr()
        assert main(["trace-report", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "traces: 3" in out
        assert "p95_ms" in out

    def test_trace_report_fails_loudly_on_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "trace.jsonl"
        bad.write_text('{"trace": "t-1"}\n')  # missing required keys
        assert main(["trace-report", str(bad)]) == 1
        assert "missing key" in capsys.readouterr().err
        assert main(["trace-report", str(tmp_path / "absent.jsonl")]) == 1

    def test_sharded_traced_serve_carries_worker_spans(self, built,
                                                       tmp_path, capsys):
        net_path, idx_path = built
        trace_path = tmp_path / "trace.jsonl"
        rc = main(["serve", str(net_path), str(idx_path),
                   "--objects", "20", "--seed", "1", "--shards", "2",
                   "--input",
                   str(self._request_file(tmp_path, with_stats=False)),
                   "--trace-file", str(trace_path)])
        assert rc == 0
        capsys.readouterr()
        from repro.obs import load_trace_file

        traces = load_trace_file(trace_path)  # validates every span
        names = {s["name"] for t in traces for s in t["spans"]}
        assert any(n.startswith("shard:") for n in names)
        assert "worker" in names


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize("command, args, message", [
        ("serve", ["--chunk-size", "0"], "chunk_size must be at least 1"),
        ("knn", ["--query", "0", "--k", "0"], "k must be at least 1"),
        ("path", ["3", "9999"], "vertex 9999 not in [0, 120)"),
        ("serve", ["--max-locations", "0"], "max_locations must be at least 1 (or None)"),
        ("serve", ["--rate", "nan"], "rate must be positive (or None for unlimited)"),
        ("serve", ["--rate", "2", "--burst", "nan"],
         "burst must be positive (or None to default to max(rate, 1))"),
        ("serve", ["--burst", "4"], "burst needs a rate (without one there is no token bucket)"),
        ("serve", ["--slow-log", os.devnull, "--slow-threshold-ms", "nan"],
         "threshold must be non-negative seconds"),
    ])
    def test_an_operator_error_is_one_line_and_exit_2(self, built, command, args, message):
        """A bad value or vertex is reported the way argparse reports a
        bad flag: one stderr line, exit 2, no traceback."""
        net_path, idx_path = built
        done = subprocess.run(
            [sys.executable, "-m", "repro", command, str(net_path), str(idx_path), *args],
            input="", capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert done.returncode == 2, done.stderr
        assert done.stderr == f"repro {command}: error: {message}\n"
        assert "Traceback" not in done.stderr
