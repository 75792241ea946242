"""The names the benchmark harness reads from the package still exist.

perfbench looks its tracer targets up by name at run time and leaves out the
metric of a name it cannot find, so a renamed function would silently zero a
per-layer metric.  Most tests here read perfbench's sources without running
them; the last runs two commands under its tracer, as a traced benchmark
run does, so a call that goes round a traced function fails it too.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from latticeproj import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

# tracer targets the package no longer has: the line recursion replaced the
# first, and detect_lattice's (k, 1) shape is the cross chain
KNOWN_MISSING = {
    "latticeproj.evaluate.line_amplitude",
    "latticeproj.graph.detect_cross_chain",
}


def _tracer_targets():
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TARGETS":
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracing.py defines no TARGETS")


def _resolves(module_name, path):
    """Whether the tracer finds ``path`` in ``module_name``, as Tracer.install looks it up."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    return attr in getattr(owner, "__dict__", {})


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    missing = {f"{module}.{path}" for module, path, _, _ in targets if not _resolves(module, path)}
    assert missing == KNOWN_MISSING


def _package_names(source):
    """(line, module, name) of every name the source takes from latticeproj:
    ``from latticeproj[.x] import name`` and ``alias.name`` after
    ``import latticeproj as alias``."""
    tree = ast.parse(source.read_text())
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "latticeproj":
            for alias in node.names:
                yield node.lineno, node.module, alias.name
        elif isinstance(node, ast.Import):
            aliases.update(a.asname or a.name for a in node.names if a.name == "latticeproj")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in aliases:
            yield node.lineno, "latticeproj", node.attr


@pytest.mark.parametrize("source", SOURCES, ids=[p.name for p in SOURCES])
def test_perfbench_imports_exist(source):
    for lineno, module, name in _package_names(source):
        owner = importlib.import_module(module)
        exists = hasattr(owner, name)
        if not exists:
            try:
                importlib.import_module(f"{module}.{name}")
                exists = True
            except ModuleNotFoundError:
                pass
        assert exists, f"{source.name}:{lineno}: {module}.{name}"


def test_perfbench_reads_the_package():
    # the scan above must see the package API it guards
    names = {name for source in SOURCES for _, _, name in _package_names(source)}
    assert {"compile_circuit", "sweep_polynomial", "applicable_engines"} <= names


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_traced_verify_times_every_engine_layer(capsys):
    # one verify op of the lattice-verify and of the oracle-verify workload
    tracer = _tracer()
    tracer.install()
    # an earlier command may have built lattice:3x10 already; this op builds it
    cli._built.cache_clear()
    try:
        for index, graph_args in enumerate(
            (["--builder", "lattice:3x10"], ["--graph", "fivecross_17.graph"])
        ):
            tracer.begin_op(index)
            try:
                assert cli.main(["verify", *graph_args, "--trials", "1"]) == 0
            finally:
                tracer.end_op()
    finally:
        tracer.uninstall()
    capsys.readouterr()
    lattice, fivecross = tracer.per_op_self_s([1.0, 1.0])
    for metric in ("evaluate.column_ms", "evaluate.sweep_ms", "graph.build_ms"):
        assert lattice[metric] > 0, metric
    # the lone spec reaches every batching row's own evaluate
    for metric in (
        "oracle.project_ms", "oracle.statevector_ms", "oracle.direct_sum_ms", "evaluate.sweep_ms"
    ):
        assert fivecross[metric] > 0, metric
