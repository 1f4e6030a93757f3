"""Tests for the command-line interface."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main


@pytest.fixture(scope="module")
def extract(tmp_path_factory):
    directory = tmp_path_factory.mktemp("extract")
    code = main([
        "generate", str(directory),
        "--persons", "60", "--companies", "40", "--seed", "5",
    ])
    assert code == 0
    return directory


class TestGenerate:
    def test_files_written(self, extract):
        for name in ("companies.csv", "persons.csv", "shareholdings.csv",
                     "ground_truth.json"):
            assert (extract / name).exists()

    def test_ground_truth_shape(self, extract):
        payload = json.loads((extract / "ground_truth.json").read_text())
        assert payload["links"]
        assert payload["families"]

    def test_bad_density_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", str(tmp_path), "--density", "bogus"])


class TestProfile:
    def test_prints_indicators(self, extract, capsys):
        assert main(["profile", str(extract)]) == 0
        out = capsys.readouterr().out
        assert "nodes" in out and "WCCs" in out


class TestControl:
    def test_all_pairs(self, extract, capsys):
        assert main(["control", str(extract)]) == 0
        captured = capsys.readouterr()
        assert "control pairs" in captured.err

    def test_single_source(self, extract, capsys):
        assert main(["control", str(extract), "--source", "P000000"]) == 0
        out = capsys.readouterr().out
        for line in out.strip().splitlines():
            assert line.startswith("P000000,")


class TestCloseLinks:
    def test_runs(self, extract, capsys):
        assert main(["close-links", str(extract)]) == 0
        assert "close-link" in capsys.readouterr().err


class TestFamily:
    def test_with_training(self, extract, capsys):
        truth = extract / "ground_truth.json"
        assert main(["family", str(extract), "--truth", str(truth)]) == 0
        captured = capsys.readouterr()
        assert "personal links" in captured.err
        for line in captured.out.strip().splitlines():
            assert line.count(",") == 2


class TestUbo:
    def test_runs(self, extract, capsys):
        assert main(["ubo", str(extract)]) == 0
        captured = capsys.readouterr()
        assert "beneficial owners" in captured.err


class TestAugment:
    def test_writes_json(self, extract, tmp_path, capsys):
        output = tmp_path / "augmented.json"
        assert main(["augment", str(extract), str(output)]) == 0
        payload = json.loads(output.read_text())
        assert payload["nodes"] and payload["edges"]


class TestReason:
    def test_custom_program(self, extract, tmp_path, capsys):
        program = tmp_path / "big_owners.vada"
        program.write_text(
            'own(X, Y, W, R), W >= 0.5 -> big_owner(X, Y, W).\n'
        )
        assert main([
            "reason", str(extract), str(program), "--query", "big_owner",
        ]) == 0
        captured = capsys.readouterr()
        assert "facts of big_owner" in captured.err
        for line in captured.out.strip().splitlines():
            assert float(line.split(",")[2]) >= 0.5


class TestExportDot:
    def test_writes_dot_file(self, extract, tmp_path, capsys):
        output = tmp_path / "graph.dot"
        assert main(["export-dot", str(extract), str(output)]) == 0
        content = output.read_text()
        assert content.startswith("digraph")
        assert "shape=box" in content

    def test_augmented_export_has_derived_edges(self, extract, tmp_path, capsys):
        output = tmp_path / "augmented.dot"
        assert main(["export-dot", str(extract), str(output), "--augment"]) == 0
        content = output.read_text()
        assert "forestgreen" in content or "magenta" in content or "red" in content


class TestErrorExitPaths:
    """Bad input -> exit 2 with one ``error:`` line, never a traceback."""

    def assert_one_line_error(self, capsys):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def must_not_run(*_args, **_kwargs):
        raise AssertionError("the pipeline started before the input was checked")

    def test_missing_extract_directory(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        assert main(["control", str(missing)]) == 2
        self.assert_one_line_error(capsys)

    def test_profile_missing_directory(self, tmp_path, capsys):
        assert main(["profile", str(tmp_path / "gone")]) == 2
        self.assert_one_line_error(capsys)

    def test_reason_missing_program(self, extract, tmp_path, capsys):
        assert main([
            "reason", str(extract), str(tmp_path / "no.vada"), "--query", "q",
        ]) == 2
        self.assert_one_line_error(capsys)

    def test_reason_malformed_program(self, extract, tmp_path, capsys):
        program = tmp_path / "broken.vada"
        program.write_text("this is not ( a rule\n")
        assert main([
            "reason", str(extract), str(program), "--query", "q",
        ]) == 2
        self.assert_one_line_error(capsys)

    def test_serve_rejects_out_of_range_port(self, extract, capsys):
        assert main(["serve", str(extract), "--port", "99999"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: port must be in 0..65535")
        assert "Traceback" not in err

    def test_serve_rejects_missing_directory(self, tmp_path, capsys):
        assert main(["serve", str(tmp_path / "void"), "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: extract directory not found")
        assert "Traceback" not in err

    def test_serve_rejects_bad_worker_counts(self, extract, capsys):
        for workers in ("0", "-2", "65"):
            assert main(["serve", str(extract), "--workers", workers]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: --workers must be in 1..64")
            assert "Traceback" not in err

    def test_serve_rejects_bad_max_concurrency(self, extract, capsys):
        assert main(["serve", str(extract), "--max-concurrency", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-concurrency must be >= 1")
        assert "Traceback" not in err

    def test_serve_rejects_negative_max_queue(self, extract, capsys):
        assert main(["serve", str(extract), "--max-queue", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --max-queue must be >= 0")
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value, message", [
        ("--cache-capacity", "0", "--cache-capacity must be >= 1"),
        ("--cache-capacity", "-3", "--cache-capacity must be >= 1"),
        ("--request-timeout", "0", "--request-timeout must be a finite number"),
        ("--request-timeout", "-1", "--request-timeout must be a finite number"),
        ("--request-timeout", "nan", "--request-timeout must be a finite number"),
        ("--request-timeout", "inf", "--request-timeout must be a finite number"),
    ])
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_serve_rejects_unusable_service_settings(
        self, flag, value, message, workers, extract, capsys, monkeypatch
    ):
        # checked before the extract is read: a zero cache used to fail
        # after the cold build (or stall pool start), a non-positive
        # timeout to boot and then answer 504 to every computed request
        monkeypatch.setattr("repro.cli._read_extract", self.must_not_run)
        assert main(["serve", str(extract), "--port", "0", "--workers", workers,
                     flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert len(err.strip().splitlines()) == 1

    def test_serve_port_in_use(self, extract, capsys):
        import socket

        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            assert main([
                "serve", str(extract), "--port", str(port), "--no-augment",
            ]) == 2
        self.assert_one_line_error(capsys)

    @pytest.mark.parametrize("command", ["control", "close-links", "ubo"])
    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1", "7", "1.0001"])
    def test_threshold_outside_the_unit_interval(
        self, command, threshold, extract, capsys, monkeypatch
    ):
        monkeypatch.setattr("repro.cli._read_extract", self.must_not_run)
        assert main([command, str(extract), "--threshold", threshold]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --threshold must be in [0, 1]")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["augment", "family", "serve"])
    @pytest.mark.parametrize("clusters", ["0", "-3"])
    def test_clusters_below_one(
        self, command, clusters, extract, tmp_path, capsys, monkeypatch
    ):
        # these used to run silently as --clusters 1
        monkeypatch.setattr("repro.cli._read_extract", self.must_not_run)
        argv = {
            "augment": ["augment", str(extract), str(tmp_path / "out.json")],
            "family": ["family", str(extract)],
            "serve": ["serve", str(extract), "--port", "0"],
        }[command]
        assert main([*argv, "--clusters", clusters]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: --clusters must be >= 1, got {clusters}")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("threshold", ["0", "1", "0.25"])
    def test_threshold_bounds_are_inclusive(self, threshold, extract, capsys):
        assert main(["control", str(extract), "--threshold", threshold]) == 0

    @pytest.mark.parametrize("counts", [
        ["--persons", "-1"], ["--companies", "-1"],
        ["--persons", "-5", "--companies", "-5"],
    ])
    def test_generate_rejects_negative_counts(self, counts, tmp_path, capsys):
        target = tmp_path / "extract"
        assert main(["generate", str(target), *counts]) == 2
        self.assert_one_line_error(capsys)
        assert not target.exists()

    @pytest.mark.parametrize("command", ["augment", "export-dot"])
    def test_unusable_output_fails_before_the_pipeline(
        self, command, extract, tmp_path, capsys, monkeypatch
    ):
        (tmp_path / "file").write_text("not a directory")
        monkeypatch.setattr("repro.cli._read_extract", self.must_not_run)
        assert main([command, str(extract), str(tmp_path / "file" / "out")]) == 2
        self.assert_one_line_error(capsys)


class TestOutputDirectoryIsCreated:
    def test_augment(self, extract, tmp_path):
        output = tmp_path / "sub" / "dir" / "out.json"
        assert main(["augment", str(extract), str(output)]) == 0
        assert json.loads(output.read_text())["nodes"]

    def test_export_dot(self, extract, tmp_path):
        output = tmp_path / "sub" / "dir" / "out.dot"
        assert main(["export-dot", str(extract), str(output)]) == 0
        assert output.read_text().startswith("digraph")


class TestProfileFlags:
    def test_profile_prints_span_tree(self, extract, capsys):
        assert main(["--profile", "control", str(extract)]) == 0
        err = capsys.readouterr().err
        assert "repro control" in err
        assert "control.procedural" in err
        assert "pairs=" in err

    def test_profile_json_emits_consumable_tree(self, extract, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        output = tmp_path / "augmented.json"
        assert main([
            "--profile-json", str(trace_path),
            "augment", str(extract), str(output),
        ]) == 0
        payload = json.loads(trace_path.read_text())
        assert payload["name"] == "repro augment"

        def walk(node):
            yield node
            for child in node.get("children", []):
                yield from walk(child)

        names = [node["name"] for node in walk(payload)]
        assert "pipeline.augment" in names
        assert "engine.run" in names
        assert any(name.startswith("stratum[") for name in names)
        assert any(name.startswith("rule:") for name in names)
        for node in walk(payload):
            assert node["duration_s"] >= 0.0
        run = next(n for n in walk(payload) if n["name"] == "engine.run")
        assert run["attributes"]["facts_derived"] >= 0

    def test_reason_profile_covers_engine(self, extract, tmp_path, capsys):
        program = tmp_path / "closure.vada"
        program.write_text(
            "own(X, Y, W, R) -> reach(X, Y).\n"
            "reach(X, Z), own(Z, Y, W, R) -> reach(X, Y).\n"
        )
        trace_path = tmp_path / "reason.json"
        assert main([
            "--profile", "--profile-json", str(trace_path),
            "reason", str(extract), str(program), "--query", "reach",
        ]) == 0
        err = capsys.readouterr().err
        assert "engine.run" in err
        payload = json.loads(trace_path.read_text())
        assert payload["children"][0]["name"] == "engine.run"

    def test_no_profile_flag_stays_silent(self, extract, capsys):
        assert main(["control", str(extract)]) == 0
        err = capsys.readouterr().err
        assert "control.procedural" not in err


class TestServeStoreValidation:
    """``serve --store`` misuse -> exit 2 with one ``error:`` line."""

    def assert_one_line_error(self, capsys, fragment):
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert fragment in err
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_version_without_store(self, capsys):
        assert main(["serve", "--version", "3"]) == 2
        self.assert_one_line_error(capsys, "--version requires --store")

    def test_version_with_extract_directory(self, extract, tmp_path, capsys):
        assert main([
            "serve", str(extract), "--store", str(tmp_path / "s"), "--version", "1",
        ]) == 2
        self.assert_one_line_error(capsys, "drop the extract directory")

    def test_neither_directory_nor_store(self, capsys):
        assert main(["serve"]) == 2
        self.assert_one_line_error(capsys, "extract directory or --store")

    def test_store_directory_missing(self, tmp_path, capsys):
        assert main(["serve", "--store", str(tmp_path / "nowhere")]) == 2
        self.assert_one_line_error(capsys, "store not found")

    def test_corrupt_catalog(self, tmp_path, capsys):
        root = tmp_path / "bad"
        root.mkdir()
        (root / "catalog.db").write_text("definitely not a database")
        assert main(["serve", "--store", str(root)]) == 2
        self.assert_one_line_error(capsys, "corrupt store catalog")

    def test_version_not_found(self, extract, tmp_path, capsys):
        store_dir = tmp_path / "store"
        from repro.datagen.company_generator import CompanySpec, generate_company_graph
        from repro.service import SnapshotBuilder, SnapshotConfig
        from repro.storage import FrameStore

        graph, _ = generate_company_graph(CompanySpec(persons=20, companies=15, seed=1))
        snapshot = SnapshotBuilder(SnapshotConfig(augment=False)).build(graph)
        FrameStore.create(store_dir).persist(snapshot)
        assert main(["serve", "--store", str(store_dir), "--version", "42"]) == 2
        self.assert_one_line_error(capsys, "not found in store")

    def test_empty_store_has_nothing_to_attach(self, tmp_path, capsys):
        from repro.storage import FrameStore

        root = tmp_path / "empty"
        FrameStore.create(root)
        assert main(["serve", "--store", str(root)]) == 2
        self.assert_one_line_error(capsys, "no published snapshot versions")


class TestAugmentOutputIsPinned:
    """``repro augment`` writes what it wrote before ``fl_*`` went
    columnar, and the same bytes under every hash seed.  The digest is the
    output of these two commands at the commit before batch externals
    (scalar ``$link_probability``, per-row tail) — same nodes, same
    extensional edges and ids, same 426 derived edges — with the derived
    edges in the sorted order ``augment`` adds them in (it used to follow
    set iteration, which is why that commit needed a pinned seed)."""

    DIGEST = "903f03009465c73c270af5e1735cdd703111608f8eb0ca47ba0d89359b511953"

    def test_sparse_extract(self, tmp_path):
        def run(hash_seed, *arguments):
            env = dict(
                os.environ,
                PYTHONHASHSEED=hash_seed,
                PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
            )
            subprocess.run(
                [sys.executable, "-m", "repro", *arguments],
                cwd=tmp_path, env=env, check=True, capture_output=True, timeout=120,
            )

        run("0", "generate", "extract", "--persons", "150", "--companies", "110",
            "--density", "sparse", "--seed", "1")
        digests = set()
        for hash_seed in ("1", "2"):
            run(hash_seed, "augment", "extract", f"out{hash_seed}.json")
            content = (tmp_path / f"out{hash_seed}.json").read_bytes()
            digests.add(hashlib.sha256(content).hexdigest())
        assert digests == {self.DIGEST}


class _Served:
    """``python -m repro serve <args>`` in a child process."""

    def __init__(self, args, cwd):
        import re

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args, "--port", "0"],
            cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        self.banner = self.proc.stdout.readline()
        match = re.search(r"serving snapshot v(\d+) .* on http://[^:]+:(\d+)", self.banner)
        assert match, f"no banner, got {self.banner!r}"
        self.version, self.port = int(match.group(1)), int(match.group(2))

    def request(self, path, body=None):
        from urllib.request import Request, urlopen

        data = None if body is None else json.dumps(body).encode()
        with urlopen(Request(f"http://127.0.0.1:{self.port}{path}", data=data),
                     timeout=60) as reply:
            return json.loads(reply.read())

    def stop(self):
        import signal

        self.proc.send_signal(signal.SIGTERM if "workers" in self.banner else signal.SIGINT)
        try:
            self.proc.wait(timeout=30)
        finally:
            self.proc.kill()
            self.proc.stdout.close()


class TestServeShutdownIsQuiet:
    def test_sigint_with_a_connection_open_writes_no_traceback(self, extract):
        """An open keep-alive connection is cancelled by the loop's
        shutdown; that is not an error and must not reach stderr (it
        also lands in the e2e benchmark's ``disk_mb``)."""
        import re
        import signal
        import socket

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(extract), "--no-augment",
             "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            port = int(re.search(r":(\d+)$", proc.stdout.readline().strip()).group(1))
            with socket.create_connection(("127.0.0.1", port), timeout=30) as conn:
                conn.sendall(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                assert conn.recv(65536).startswith(b"HTTP/1.1 200")
                proc.send_signal(signal.SIGINT)  # the connection is still open
                _out, err = proc.communicate(timeout=30)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert err == "shutting down\n"


    def test_sigint_stops_a_serve_that_inherited_it_ignored(self, extract):
        """A non-interactive shell starts a background job with SIGINT
        ignored; ``kill -INT`` must still shut ``serve`` down."""
        import signal

        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", str(extract), "--no-augment",
             "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            assert "serving snapshot" in proc.stdout.readline()
            proc.send_signal(signal.SIGINT)
            _out, err = proc.communicate(timeout=10)
        finally:
            proc.kill()
        assert proc.returncode == 0
        assert "shutting down" in err


class TestServeRollbackKeepsPersisting:
    """``serve --store S --version N`` serves the old version N but numbers
    its next publish after the store's newest, so the write is durable."""

    @pytest.fixture
    def store_dir(self, tmp_path):
        from repro.datagen.company_generator import CompanySpec, generate_company_graph
        from repro.service import SnapshotBuilder, SnapshotConfig
        from repro.storage import FrameStore

        graph, _ = generate_company_graph(CompanySpec(persons=20, companies=15, seed=1))
        builder = SnapshotBuilder(SnapshotConfig(augment=False))
        store = FrameStore.create(tmp_path / "store")
        for i in range(5):
            graph = graph.copy()
            graph.add_company(f"C_V{i + 1}")
            store.persist(builder.build(graph))
        return tmp_path / "store"

    @pytest.mark.parametrize("workers", [1, 2])
    def test_mutation_after_rollback_becomes_version_6(self, store_dir, tmp_path, workers):
        from repro.storage import FrameStore

        args = ["--store", str(store_dir), "--version", "2"]
        if workers > 1:
            args += ["--workers", str(workers)]
        served = _Served(args, tmp_path)
        try:
            assert served.version == 2
            assert served.request("/healthz")["version"] == 2
            reply = served.request(
                "/mutations?wait=1", {"deltas": [{"op": "add_company", "id": "C_NEW"}]}
            )
            assert reply["status"] == "published" and reply["version"] == 6
            persist = served.request("/stats")["persist"]
            assert persist["persist_failures"] == 0
            assert persist["last_persist_error"] is None
            wrote = persist["last_persist"]
            assert wrote["version"] == 6
            assert {"rows_inserted", "rows_closed", "columns_written",
                    "columns_shared", "column_bytes", "seconds"} <= set(wrote)
        finally:
            served.stop()

        store = FrameStore.open(store_dir)
        assert store.published_versions() == [1, 2, 3, 4, 5, 6]
        # version 6 continues version 2's graph: the rollback is what was served
        graph = store.attach(6).graph
        assert graph.has_node("C_NEW") and graph.has_node("C_V2")
        assert not graph.has_node("C_V3")

        restarted = _Served(["--store", str(store_dir)], tmp_path)
        try:
            assert restarted.version == 6
            assert restarted.request("/neighbors/C_NEW")["id"] == "C_NEW"
        finally:
            restarted.stop()


class TestStoreVersionsCommand:
    def test_lists_model_rows_per_version(self, tmp_path, capsys):
        from repro.datagen.company_generator import CompanySpec, generate_company_graph
        from repro.service import SnapshotBuilder, SnapshotConfig
        from repro.storage import FrameStore

        graph, _ = generate_company_graph(CompanySpec(persons=20, companies=15, seed=1))
        builder = SnapshotBuilder(SnapshotConfig(augment=False))
        store = FrameStore.create(tmp_path / "store")
        store.persist(builder.build(graph))
        first = store.last_persist
        graph = graph.copy()
        graph.add_company("C_TWO")
        store.persist(builder.build(graph))
        second = store.last_persist
        capsys.readouterr()
        assert main(["store", "versions", str(tmp_path / "store")]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == (
            "tenant,version,state,nodes,edges,model_rows,"
            "columns_written,column_bytes"
        )
        assert lines[1].startswith("default,1,published,")
        assert lines[1].endswith(
            f",{first['rows_inserted']},11,{first['column_bytes']}"
        )
        # one node row, no properties; only the columns its code shifted
        assert second["columns_written"] < 11
        assert lines[2].endswith(
            f",1,{second['columns_written']},{second['column_bytes']}"
        )
