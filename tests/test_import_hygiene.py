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

    def test_store_versions_loads_no_scipy(self, tmp_path):
        from repro.storage import FrameStore

        FrameStore.create(tmp_path / "store")
        assert "scipy" not in cli_modules("store", "versions", tmp_path / "store")

    def test_ubo_is_the_command_that_solves(self, extract):
        # the positive control: the probe does see scipy when it is used
        assert "scipy" in cli_modules("ubo", extract)

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
    print(json.dumps({"statuses": statuses, "late": sorted(late)}))
"""


class TestForkAfterImport:
    """The hard boot is the attach from ``--store``: nothing was built,
    so nothing has factorised, so nothing has imported the solver."""

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
