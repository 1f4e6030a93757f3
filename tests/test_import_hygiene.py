"""A process loads what its command uses, and the lazy package surface
is the parent commit's surface.

Everything here runs in fresh interpreters and asserts on
``sys.modules`` — never on wall time — because pytest's own process has
long since imported every ``repro`` module (and numpy, and scipy).
"""

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.cli import main

SRC = str(Path(repro.__file__).resolve().parents[1])
SURFACE = json.loads(Path(__file__).with_name("public_surface.json").read_text())


def run_fresh(code: str, *argv: str) -> dict:
    """Run *code* in a new interpreter; it reports by writing one JSON
    object as the last line of stdout."""
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code), *map(str, argv)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def heavy(modules) -> set[str]:
    return {name for name in modules if name in ("numpy", "scipy")}


#: ``python -m repro <argv>`` to completion, then exit status + sys.modules
RUN_CLI = """
    import contextlib, io, json, runpy, sys
    sys.argv = ["repro", *sys.argv[1:]]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("repro", run_name="__main__")
        except SystemExit as exc:
            status = exc.code
    print(json.dumps({"status": status, "modules": sorted(sys.modules)}))
"""


def cli_modules(*argv) -> set[str]:
    report = run_fresh(RUN_CLI, *argv)
    assert report["status"] == 0, argv
    return set(report["modules"])


def import_modules(statement: str) -> set[str]:
    report = run_fresh(
        f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    )
    return set(report)


@pytest.fixture(scope="module")
def extract(tmp_path_factory):
    directory = tmp_path_factory.mktemp("extract")
    assert main(["generate", str(directory), "--persons", "40", "--companies", "30",
                 "--seed", "5"]) == 0
    return directory


@pytest.fixture(scope="module")
def program(tmp_path_factory):
    from repro.core import close_link_program, input_mapping

    path = tmp_path_factory.mktemp("program") / "close.vada"
    path.write_text(input_mapping(False) + "\n" + close_link_program(0.2))
    return path


class TestImportSets:
    def test_help_loads_the_cli_and_nothing_else(self):
        modules = cli_modules("--help")
        assert not heavy(modules)
        assert {m for m in modules if m.startswith("repro")} == {"repro", "repro.cli"}

    def test_generate_needs_neither_numpy_nor_scipy(self, tmp_path):
        modules = cli_modules("generate", tmp_path / "ex", "--persons", "30",
                              "--companies", "20")
        assert not heavy(modules)
        assert (tmp_path / "ex" / "companies.csv").exists()

    @pytest.mark.parametrize("statement", [
        "import repro.datagen",
        "from repro.bench.workloads import ownership_pyramid",
        "from repro.graph.io import write_company_csv",
    ])
    def test_numpy_free_imports(self, statement):
        assert not heavy(import_modules(statement))

    def test_importing_a_package_imports_no_submodule(self):
        modules = import_modules("import repro.graph, repro.core, repro.service")
        assert {m for m in modules if m.startswith("repro")} == {
            "repro", "repro._lazy", "repro.graph", "repro.core", "repro.service",
        }

    @pytest.mark.parametrize("command", [
        ("augment", "{extract}", "{tmp}/out.json"),
        ("reason", "{extract}", "{program}", "--query", "candidate"),
        ("control", "{extract}"),
        ("close-links", "{extract}"),
        ("family", "{extract}"),
        ("profile", "{extract}"),
    ], ids=lambda command: command[0])
    def test_batch_commands_load_no_scipy(self, command, extract, program, tmp_path):
        argv = [part.format(extract=extract, program=program, tmp=tmp_path)
                for part in command]
        assert "scipy" not in cli_modules(*argv)

    @pytest.mark.parametrize("command", [
        ("augment", "{extract}", "{tmp}/out.json"),
        ("reason", "{extract}", "{program}", "--query", "candidate"),
        ("control", "{extract}"),
        ("family", "{extract}"),
        ("generate", "{tmp}/ex", "--persons", "30", "--companies", "20"),
    ], ids=lambda command: command[0])
    def test_batch_commands_load_no_openssl(self, command, extract, program, tmp_path):
        # Skolem ids, block keys and walk seeds hash with _blake2's blake2b
        # (which is hashlib's); importing hashlib would map libcrypto
        argv = [part.format(extract=extract, program=program, tmp=tmp_path)
                for part in command]
        modules = cli_modules(*argv)
        assert "_hashlib" not in modules and "hashlib" not in modules

    @pytest.mark.parametrize("clusters", [[], ["--clusters", "3"]],
                             ids=["no-clusters", "clusters"])
    def test_augment_loads_no_multiprocessing(self, clusters, extract, tmp_path):
        # walks run in-process: nothing on the batch path forks
        modules = cli_modules("augment", extract, tmp_path / "out.json", *clusters)
        assert "multiprocessing" not in modules

    def test_store_versions_loads_no_scipy(self, tmp_path):
        from repro.storage import FrameStore

        FrameStore.create(tmp_path / "store")
        assert "scipy" not in cli_modules("store", "versions", tmp_path / "store")

    def test_ubo_loads_no_scipy(self, extract):
        assert "scipy" not in cli_modules("ubo", extract)
        # the positive control: the probe does see scipy when it is used
        assert "scipy" in import_modules(
            "from repro.graph import figure1_graph\n"
            "from repro.ownership import integrated_ownership_matrix\n"
            "integrated_ownership_matrix(figure1_graph())"
        )

    def test_only_the_oracle_imports_the_sparse_solver(self):
        users = [
            str(path.relative_to(SRC))
            for path in sorted(Path(SRC, "repro").rglob("*.py"))
            if "scipy.sparse.linalg" in path.read_text()
        ]
        assert users == [str(Path("repro", "ownership", "matrix.py"))]

    def test_no_module_level_scipy_import_in_src(self):
        offenders = [
            f"{path.relative_to(SRC)}:{number}"
            for path in sorted(Path(SRC, "repro").rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if line.startswith(("import scipy", "from scipy"))
        ]
        assert offenders == []


#: every frozen name of one package through all four access paths
CHECK_SURFACE = """
    import importlib, inspect, json, sys, types
    package, expected = sys.argv[1], json.loads(sys.argv[2])
    module = importlib.import_module(package)
    problems = []
    star = {}
    exec(f"from {package} import *", star)
    for name, origin in expected.items():
        value = getattr(module, name)
        single = {}
        exec(f"from {package} import {name}", single)
        if single[name] is not value or star.get(name) is not value:
            problems.append(f"{name}: access paths disagree")
        if name not in module.__all__ or name not in dir(module):
            problems.append(f"{name}: not listed")
        if origin == "<module>":
            found = "<module>" if isinstance(value, types.ModuleType) else "not a module"
        elif inspect.isclass(value) or inspect.isfunction(value):
            found = value.__module__
        else:
            found = None
        if found != origin:
            problems.append(f"{name}: {found} != {origin}")
    extra = sorted(set(module.__all__) - set(expected))
    print(json.dumps({"problems": problems, "extra": extra}))
"""


class TestSurfaceParity:
    def test_the_frozen_list_covers_every_package(self):
        packages = {
            path.parent.name
            for path in Path(SRC, "repro").glob("*/__init__.py")
        }
        assert packages == set(SURFACE)

    def test_every_package_directory_is_installed(self):
        """``pip install .`` ships what setuptools' ``include`` patterns
        match — a package missing there imports fine from a checkout."""
        from fnmatch import fnmatchcase

        text = Path(SRC).parent.joinpath("pyproject.toml").read_text()
        try:
            import tomllib
        except ModuleNotFoundError:  # Python 3.10
            block = re.search(
                r"^\[tool\.setuptools\.packages\.find\].*?^include\s*=\s*\[(.*?)\]",
                text, re.S | re.M,
            ).group(1)
            patterns = re.findall(r'"([^"]+)"', block)
        else:
            patterns = tomllib.loads(text)["tool"]["setuptools"]["packages"]["find"]["include"]
        packages = {
            ".".join(path.parent.relative_to(SRC).parts)
            for path in Path(SRC, "repro").rglob("__init__.py")
        }
        assert {"repro", "repro.service", "repro.storage"} <= packages
        assert [
            package for package in sorted(packages)
            if not any(fnmatchcase(package, pattern) for pattern in patterns)
        ] == []

    @pytest.mark.parametrize("package", sorted(SURFACE))
    def test_every_parent_export_resolves_unchanged(self, package):
        report = run_fresh(CHECK_SURFACE, f"repro.{package}", json.dumps(SURFACE[package]))
        assert report == {"problems": [], "extra": []}


    def test_the_out_of_core_stream_is_gone(self, tmp_path, capsys):
        import repro.storage

        for name in ("GRAPH_COLUMNS", "OutOfCoreGraph", "StreamingGraphWriter",
                     "generate_company_graph_stream"):
            with pytest.raises(AttributeError):
                getattr(repro.storage, name)
        with pytest.raises(SystemExit) as exited:  # argparse: unrecognized arguments
            main(["generate", str(tmp_path / "ex"), "--store", "x"])
        assert exited.value.code == 2
        assert "--store" in capsys.readouterr().err
        assert not (tmp_path / "ex").exists()

    def test_the_dred_maintainer_is_gone(self):
        import importlib

        import repro.datalog
        from repro.core.pipeline import PipelineConfig

        for name in ("IncrementalEngine", "UpdateStats"):
            with pytest.raises(AttributeError):
                getattr(repro.datalog, name)
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.datalog.incremental")
        # facts are append-only: nothing can take one back out
        assert not hasattr(repro.datalog.Database, "remove")
        assert not hasattr(repro.datalog.Database, "removal_count")
        with pytest.raises(TypeError):
            PipelineConfig(incremental_reasoning=True)

    def test_the_graph_store_is_gone(self):
        import importlib

        import repro.graph
        from repro.service import SnapshotConfig

        with pytest.raises(AttributeError):
            repro.graph.GraphStore
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.graph.store")
        # a snapshot holds one graph, and the solver is never patched
        for name in ("index_properties", "low_rank_updates", "max_update_rank"):
            with pytest.raises(TypeError):
                SnapshotConfig(**{name: None})
        assert not hasattr(repro.graph.GraphFrame, "adopt_ownership_system")
        assert not hasattr(importlib.import_module("repro.ownership.matrix"),
                           "try_low_rank_update")

    def test_the_global_factorisation_is_gone(self):
        import importlib
        import inspect

        import repro.ownership
        from repro.graph import GraphFrame, figure2_graph

        assert not hasattr(GraphFrame, "release_ownership_systems")
        frame = GraphFrame(figure2_graph())
        assert frame.ownership_system() is None
        assert not hasattr(frame, "_ownership_systems")
        assert not hasattr(importlib.import_module("repro.service.server"),
                           "import_before_serving")
        for name in ("integrated_ownership", "integrated_ownership_from",
                     "integrated_ownership_matrix"):
            parameters = inspect.signature(getattr(repro.ownership, name)).parameters
            assert "damping" not in parameters

    def test_the_depth_bound_is_gone(self):
        import repro.ownership
        from repro.core.pipeline import PipelineConfig
        from repro.graph import figure2_graph
        from repro.service import SnapshotConfig

        # accumulated ownership is exact: no depth bound, no strategy switch
        with pytest.raises(TypeError):
            SnapshotConfig(max_path_depth=12)
        for name in ("max_path_depth", "close_links_via"):
            with pytest.raises(TypeError):
                PipelineConfig(**{name: None})
        with pytest.raises(AttributeError):
            repro.ownership.accumulated_ownership_dag
        graph = figure2_graph()
        with pytest.raises(ValueError):
            repro.ownership.close_link_pairs(graph, max_depth=12)
        assert repro.ownership.close_link_pairs(graph, max_depth=None) == (
            repro.ownership.close_link_pairs(graph)
        )

    def test_the_sequential_sampler_is_gone(self):
        import importlib

        import repro.core
        import repro.embeddings
        from repro.embeddings import Node2VecConfig, RandomWalker
        from repro.service import SnapshotConfig

        # one walk sampler (the per-(node, walk-index) kernel), one embedder
        with pytest.raises(AttributeError):
            repro.embeddings.Node2Vec
        for name in ("walk", "_sample", "_biased_sample"):
            assert not hasattr(RandomWalker, name)
        walker = RandomWalker({0: [(1, 1.0)], 1: [(0, 1.0)]})
        assert not hasattr(walker, "_rng")
        with pytest.raises(TypeError):
            walker.walks([0], 1, 3, workers=None)
        assert not hasattr(Node2VecConfig(), "workers")
        # one embedding default, and no switch around the embedder
        for name in ("dirty_hops", "node2vec", "embedding_features"):
            with pytest.raises(TypeError):
                SnapshotConfig(**{name: None})
        # one Algorithm 1: the procedural loop, its config and its pairwise
        # rules are gone, and the pipeline grew no knob in their place
        for module in ("repro.core.vadalink", "repro.core.candidates"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        gone = {"vadalink", "vadalinkconfig", "candidaterule"}
        assert not gone & {name.lower() for name in dir(repro.core)}
        for name in ("max_rounds", "recursive", "incremental"):
            with pytest.raises(TypeError):
                repro.core.PipelineConfig(**{name: None})

    def test_the_unset_knobs_are_gone(self):
        import importlib

        import repro.service
        from repro.embeddings import Node2VecConfig
        from repro.service import SnapshotConfig

        # a snapshot precomputes at the paper's thresholds
        for name in ("control_threshold", "close_link_threshold", "ubo_threshold"):
            with pytest.raises(TypeError):
                SnapshotConfig(**{name: 0.3})
        # one derivation per relation: no cold arm, no second control sweep
        incremental = importlib.import_module("repro.service.incremental")
        for name in ("control_rows", "patch_ubo_rows"):
            assert not hasattr(incremental, name)
        # walks run in-process, the pool's settings are module constants
        with pytest.raises(TypeError):
            Node2VecConfig(workers=1)
        walks = importlib.import_module("repro.embeddings.walks")
        for name in ("_map_payloads", "_pool_walk_shard", "_FORK_WALKER"):
            assert not hasattr(walks, name)
        with pytest.raises(AttributeError):
            repro.service.PoolConfig

    def test_the_batch_window_is_gone(self):
        import inspect

        from repro.graph import figure2_graph
        from repro.service import (
            MicroBatcher,
            ReasoningService,
            ServiceConfig,
            build_service,
        )

        # a batch is one loop turn of /ubo misses; /neighbors is not batched
        for name in ("batch_max", "batch_delay_s"):
            with pytest.raises(TypeError):
                ServiceConfig(**{name: None})
        assert list(inspect.signature(MicroBatcher.__init__).parameters) == [
            "self", "batch_fn",
        ]
        assert [
            name for name in dir(ReasoningService)
            if name.startswith("_neighbors_batch")
        ] == []
        service = build_service(figure2_graph(), config=ServiceConfig(port=0))
        assert not hasattr(service, "_neighbors_batcher")

    def test_the_per_request_reply_bookkeeping_is_gone(self):
        import inspect

        from repro.graph import figure2_graph
        from repro.service import ServiceConfig, build_service, workers

        # one call table, one reply op, one forwarding hook
        pool = workers.ServicePool(figure2_graph(), workers=1,
                                   config=ServiceConfig(port=0))
        for name in ("_acks", "_attach_errors", "_publish_events",
                     "_metric_replies", "_metric_events", "_request_seq"):
            assert not hasattr(pool, name)
        for name in ("_await_fleet", "_fleet_attached", "_handle_forwarded"):
            assert not hasattr(workers.ServicePool, name)
        source = inspect.getsource(workers)
        for op in ("attached", "attach_failed", "retired_tenant", "metrics?", "result"):
            assert f'"op": "{op}"' not in source and f'op == "{op}"' not in source
        service = build_service(figure2_graph(), config=ServiceConfig(port=0))
        for name in ("mutation_forwarder", "admin_forwarder", "cluster_metrics_provider"):
            assert not hasattr(service, name)
        assert service.forward is None


class TestLazyHelper:
    @pytest.mark.parametrize("package, name", [
        ("repro.datalog", "stratify"),
        ("repro.embeddings", "kmeans"),
        ("repro.ownership", "close_links"),
    ])
    def test_export_wins_over_same_named_submodule(self, package, name):
        # the order that used to leave the *module* bound on the package:
        # submodule imported first, by someone else, then the export used
        report = run_fresh(f"""
            import json
            import {package}.{name}
            from {package} import {name} as exported
            import {package} as pkg
            print(json.dumps([callable(exported), callable(pkg.{name}),
                              exported.__module__]))
        """)
        assert report == [True, True, f"{package}.{name}"]

    def test_plain_submodule_access(self):
        report = run_fresh("""
            import json, types
            import repro.graph
            before = "columnar" in vars(repro.graph)
            module = repro.graph.columnar
            print(json.dumps([before, isinstance(module, types.ModuleType),
                              module.__name__, "columnar" in vars(repro.graph)]))
        """)
        assert report == [False, True, "repro.graph.columnar", True]

    def test_unknown_names_raise_attribute_error(self):
        import repro.graph

        for name in ("no_such_thing", "_private", "__wrapped__"):
            with pytest.raises(AttributeError, match=name):
                getattr(repro.graph, name)
        assert not hasattr(repro.graph, "no_such_thing")
        with pytest.raises(ImportError):
            exec("from repro.graph import no_such_thing", {})

    def test_resolved_names_are_cached_in_the_package(self):
        report = run_fresh("""
            import json
            import repro.telemetry as pkg
            before = "Tracer" in vars(pkg)
            first = pkg.Tracer
            print(json.dumps([before, vars(pkg).get("Tracer") is first]))
        """)
        assert report == [False, True]

    def test_first_touch_from_many_threads(self):
        report = run_fresh("""
            import json
            from concurrent.futures import ThreadPoolExecutor
            import repro.datalog, repro.graph
            def touch(i):
                pkg = repro.graph if i % 2 else repro.datalog
                return id(pkg.GraphFrame if i % 2 else pkg.Engine)
            with ThreadPoolExecutor(8) as executor:
                seen = list(executor.map(touch, range(32)))
            print(json.dumps([len(set(seen[0::2])), len(set(seen[1::2]))]))
        """)
        assert report == [1, 1]


#: ``serve`` booted the two ways the CLI boots it, then one request per
#: endpoint; reports what the serving process imported after it was ready
SERVE_AND_DIFF = """
    import asyncio, json, sys
    mode, source = sys.argv[1], sys.argv[2]
    from repro.service import GraphRegistry, ServiceConfig
    PATHS = ["/healthz", "/control", "/control?threshold=0.4", "/control?source={node}",
             "/close-links", "/close-links?threshold=0.3", "/family", "/ubo/{node}",
             "/ubo/{node}?threshold=0.1", "/neighbors/{node}?depth=2", "/stats",
             "/metrics", "/tenants", "/nope"]

    def ours(modules):
        return {m for m in modules if m.split(".")[0] in ("repro", "numpy", "scipy")}

    async def get(port, path):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        head = f"GET {path} HTTP/1.1\\r\\nHost: t\\r\\nConnection: close\\r\\n\\r\\n"
        writer.write(head.encode())
        await writer.drain()
        raw = await reader.read()
        writer.close()
        head, _, body = raw.partition(b"\\r\\n\\r\\n")
        return int(head.split()[1]), json.loads(body)

    def registry_of():
        from repro.storage import FrameStore
        attached = FrameStore.open(source).attach_latest()
        registry = GraphRegistry(attached.config)
        registry.create("default", snapshot=attached)
        return registry, next(attached.graph.companies()).id

    if mode == "pool":
        # a worker reports its modules through the metrics it already
        # answers the parent with; patched before the fork, so inherited
        from repro.service import workers
        from repro.service.server import Metrics
        plain = Metrics.to_dict
        Metrics.to_dict = lambda self: {**plain(self), "modules": sorted(sys.modules)}
        at_fork = []
        spawn = workers.ServicePool._spawn
        def recording_spawn(self, worker_id):
            at_fork.append(set(sys.modules))
            spawn(self, worker_id)
        workers.ServicePool._spawn = recording_spawn
        registry, node = registry_of()
        with workers.ServicePool(registry, workers=1, config=ServiceConfig(port=0)) as pool:
            statuses = [asyncio.run(get(pool.port, p.format(node=node)))[0] for p in PATHS]
            served = pool.cluster_metrics()["per_worker"][0]["modules"]
        late = ours(served) - at_fork[0]
        solver = "scipy" in served
    else:
        from repro.service import ReasoningService
        registry, node = registry_of()
        async def serve():
            service = ReasoningService(config=ServiceConfig(port=0), registry=registry)
            await service.start()
            ready = set(sys.modules)
            statuses = [(await get(service.port, p.format(node=node)))[0] for p in PATHS]
            await service.stop()
            return statuses, ours(sys.modules) - ready
        statuses, late = asyncio.run(serve())
        solver = "scipy" in sys.modules
    print(json.dumps({"statuses": statuses, "late": sorted(late), "scipy": solver}))
"""


class TestForkAfterImport:
    """The hard boot is the attach from ``--store``: nothing was built,
    so nothing a build imports is loaded.  No request may import a module
    either, and none needs scipy: serving never loads it."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        from repro.datagen.company_generator import CompanySpec, generate_company_graph
        from repro.service import SnapshotBuilder, SnapshotConfig
        from repro.storage import FrameStore

        graph, _ = generate_company_graph(CompanySpec(persons=30, companies=24, seed=11))
        config = SnapshotConfig(augment=True, first_level_clusters=1, use_embeddings=False)
        root = tmp_path_factory.mktemp("attach") / "store"
        FrameStore.create(root).persist(SnapshotBuilder(config).build(graph))
        return root

    @pytest.mark.parametrize("mode", ["pool", "single"])
    def test_no_request_imports_a_module(self, mode, store):
        report = run_fresh(SERVE_AND_DIFF, mode, store)
        assert report["statuses"] == [200] * 13 + [404]
        assert report["late"] == []
        assert report["scipy"] is False


#: ``python -m repro serve ...`` that writes its ``sys.modules`` as JSON to
#: the file named by the first argument when it exits
SERVE_PROBE = """
    import atexit, json, runpy, sys
    report = sys.argv.pop(1)
    def dump():
        with open(report, "w") as handle:
            json.dump(sorted(sys.modules), handle)
    atexit.register(dump)
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__")
"""


class ServeProcess:
    """A ``serve`` process tree on an ephemeral port."""

    def __init__(self, report: Path, *argv):
        self.report = report
        env = dict(os.environ, PYTHONPATH=SRC)
        self.proc = subprocess.Popen(
            [sys.executable, "-c", textwrap.dedent(SERVE_PROBE), str(report),
             "serve", *map(str, argv), "--port", "0"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        banner = self.proc.stdout.readline()
        match = re.search(r"on http://[^:]+:(\d+)", banner)
        if match is None:
            self.proc.kill()
            raise AssertionError(f"no banner, got {banner!r}")
        self.port = int(match.group(1))

    def request(self, path: str, body=None) -> bytes:
        from urllib.request import Request, urlopen

        data = None if body is None else json.dumps(body).encode()
        with urlopen(Request(f"http://127.0.0.1:{self.port}{path}", data=data),
                     timeout=60) as reply:
            assert reply.status == 200, path
            return reply.read()

    def pids(self) -> list[int]:
        """This process and its children (the pool's workers, and
        multiprocessing's resource tracker once a segment exists)."""
        children = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as stat:
                    ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
            except OSError:
                continue
            if ppid == self.proc.pid:
                children.append(int(entry))
        return [self.proc.pid, *sorted(children)]

    def stop(self) -> set[str]:
        """SIGTERM, then the modules the process held when it exited."""
        import signal

        self.proc.send_signal(signal.SIGTERM)
        try:
            assert self.proc.wait(timeout=60) == 0
        finally:
            self.proc.kill()
            self.proc.stdout.close()
        return set(json.loads(self.report.read_text()))


def openssl_maps(pid: int) -> list[str]:
    with open(f"/proc/{pid}/maps") as maps:
        return sorted({line.split()[-1] for line in maps
                       if "libssl" in line or "libcrypto" in line})


class TestServeMapsNoOpenSSL:
    """No serving process speaks TLS or hashes with OpenSSL, so none maps
    libssl or libcrypto: asyncio is imported with ``ssl`` blocked, and a
    segment is created without ``multiprocessing.shared_memory`` (whose
    random names import ``secrets`` -> ``hmac`` -> ``_hashlib``)."""

    def test_single_pool_and_store_restart(self, extract, tmp_path):
        store = tmp_path / "store"
        runs = [
            ("serve", [extract]),
            ("pool", [extract, "--workers", "2", "--store", store]),
            ("restart", ["--store", store]),
        ]
        for label, argv in runs:
            served = ServeProcess(tmp_path / f"{label}.json", *argv)
            try:
                served.request("/control")
                if label == "pool":
                    # a publish: the parent seals a new segment at run time
                    served.request("/mutations?wait=1", {"deltas": [
                        {"op": "add_company", "id": "C_PROBE"}]})
                    served.request("/control?threshold=0.4")
                pids = served.pids()
                mapped = {pid: openssl_maps(pid) for pid in pids}
            finally:
                modules = served.stop()
            if label == "pool":
                assert len(pids) >= 3, pids  # the parent and both workers
            assert mapped == {pid: [] for pid in pids}, label
            assert not {"ssl", "_ssl", "_hashlib"} & modules, label

    @pytest.mark.parametrize("clusters", [[], ["--clusters", "3"]],
                             ids=["no-clusters", "clusters"])
    def test_serve_loads_the_embedder_only_for_clusters(self, clusters, extract, tmp_path):
        served = ServeProcess(tmp_path / "modules.json", extract, *clusters)
        modules = served.stop()
        embedder = {"repro.embeddings.incremental", "repro.embeddings.skipgram"}
        assert embedder & modules == (embedder if clusters else set())
