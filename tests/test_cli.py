"""End-to-end runs of the command-line surface."""

import csv
import errno
import hashlib
import importlib.util
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import latticeproj
from latticeproj import cli, graph, mbqc, oracle
from latticeproj.cli import main
from latticeproj.errors import TooLarge
from latticeproj.factorize import ProjectionSpec, load_angles
from latticeproj.graph import GRAPH_QUBIT_CAP, ClusterGraph, load_graph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_project_bell_all_plus(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--builder", "line:2",
        "--angles", "all:0.7853981634,0", "--engine", "sweep",
    )
    assert code == 0
    assert out.strip() == "0.5 0.0"


def test_project_cross_statevector(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--builder", "cross:1",
        "--angles", "all:0,0", "--engine", "statevector",
    )
    assert code == 0
    assert out.strip() == "0.1767766953 0.0"


def test_project_fixture_engines_agree(capsys):
    amps = {}
    for engine in ("sweep", "statevector"):
        code, out, _ = run_cli(
            capsys, "project", "--graph", "fixtures/lattice_3x3.graph",
            "--random", "--seed", "7", "--engine", engine,
        )
        assert code == 0
        amps[engine] = complex(*map(float, out.split()))
    assert abs(amps["sweep"] - amps["statevector"]) < 1e-9


@pytest.mark.parametrize("argv,needle", [
    (("project", "--builder", "line:3", "--angles", "all:0,0", "--engine", "column"),
     "does not fit"),
    (("project", "--builder", "nope:3", "--angles", "all:0,0"), "unknown builder"),
    (("project", "--graph", "missing.graph", "--angles", "all:0,0"), "not found"),
    (("project", "--builder", "line:3"), "angles are required"),
    (("project", "--builder", "line:3", "--graph", "x", "--angles", "all:0,0"),
     "not both"),
    (("bench", "--suite", "fig10", "--trials", "0"), "--trials must be at least 1"),
    (("project", "--builder", "line:5", "--random", "--seed", "-1"), "--seed must be non-negative"),
    (("verify", "--builder", "line:5", "--seed", "-3"), "--seed must be non-negative"),
    (("verify", "--builder", "line:5", "--engines", "sweep,sweep"), "engine twice"),
    # bad angles, input files, directories and unwritable outputs; {tmp} is a
    # directory holding the bad files the test writes
    (("project", "--builder", "line:3", "--angles", "all:nan,0"), "must be finite"),
    (("project", "--builder", "line:3", "--angles", "all:1e400,0"), "must be finite"),
    (("project", "--builder", "line:1", "--angles", "{tmp}/nan.angles"), "must be finite"),
    (("project", "--builder", "line:1", "--angles", "{tmp}/abc.angles"), "bad angle file"),
    (("project", "--graph", "{tmp}/bad.graph", "--angles", "all:0,0"), "bad graph file"),
    (("project", "--graph", "{tmp}", "--angles", "all:0,0"), "Is a directory"),
    (("project", "--builder", "line:3", "--angles", "{tmp}"), "Is a directory"),
    (("compile", "--circuit", "{tmp}", "--out", "{tmp}/p"), "Is a directory"),
    (("project", "--builder", "line:3", "--angles", "all:0,0", "--output", "{tmp}/no/x"),
     "No such file"),
    (("verify", "--builder", "line:3", "--trials", "1", "--output", "{tmp}/no/x"),
     "No such file"),
    (("bench", "--suite", "lattice-width", "--output", "{tmp}/no/x"), "No such file"),
    (("compile", "--circuit", "{tmp}/h.circuit", "--out", "{tmp}/no/p"), "No such file"),
    (("compile", "--circuit", "{tmp}/bad.bytes", "--out", "{tmp}/p"), "cannot compile"),
    (("verify", "--builder", "line:3", "--tolerance", "nan"), "--tolerance must be"),
    (("verify", "--builder", "line:3", "--tolerance", "-1"), "--tolerance must be"),
    (("verify", "--builder", "line:5", "--engines", ","), "unknown engine ''"),
    (("verify", "--builder", "line:5", "--engines", ""), "unknown engine ''"),
    # a missing path with a directory is not the packaged fixture of its basename
    (("project", "--graph", "{tmp}/no/fivecross_17.graph", "--angles", "all:0,0"), "not found"),
    (("project", "--angles", "all:0,0"), "a graph is required"),
    (("project", "--builder", "line:3", "--angles", "{tmp}/no.angles"), "not found"),
    (("project", "--builder", "line:3", "--angles", "{tmp}/two.angles"),
     "angle file holds 2 qubits, graph has 3"),
    (("project", "--builder", "line:3", "--angles", "{tmp}/none.angles"), "no angle lines"),
    (("verify", "--builder", "line:3", "--engines", "sweep"), "at least two engines"),
    (("compile", "--circuit", "{tmp}/no.circuit", "--out", "{tmp}/p"), "not found"),
    (("project", "--graph", "{tmp}/zero.graph", "--angles", "all:0,0"), "at least one qubit"),
    (("project", "--graph", "{tmp}/pair.graph", "--angles", "all:0,0"),
     "first data line must be the qubit count"),
    (("project", "--graph", "{tmp}/triple.graph", "--angles", "all:0,0"),
     "edge lines carry two indices"),
])
def test_config_errors_exit_2(capsys, tmp_path, argv, needle):
    for name, text in (("nan.angles", "nan 0\n"), ("abc.angles", "abc 0\n"),
                       ("two.angles", "0 0\n0 0\n"), ("none.angles", "# no angles\n"),
                       ("bad.graph", "2\nx y\n"), ("zero.graph", "0\n"),
                       ("pair.graph", "3 4\n"), ("triple.graph", "3\n0 1 2\n"),
                       ("h.circuit", "H 0\n")):
        (tmp_path / name).write_text(text)
    (tmp_path / "bad.bytes").write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert needle in err


@pytest.mark.parametrize("angles", ["all:0,0", "/nonexistent"])
def test_project_refuses_angles_with_random(capsys, angles):
    # --random would draw its own angles and drop the given ones
    code, out, err = run_cli(
        capsys, "project", "--builder", "line:3", "--angles", angles, "--random"
    )
    assert code == 2
    assert out == ""
    assert err == "error: give either --angles or --random, not both\n"


@pytest.mark.parametrize("message", ["", "Unable to allocate 64.0 GiB"])
def test_memory_error_exits_2_without_traceback(capsys, monkeypatch, message):
    # stands in for a statevector within the cap that the machine cannot hold
    from latticeproj import engines

    def out_of_memory(g):
        raise MemoryError(message)

    monkeypatch.setattr(engines, "build_statevector", out_of_memory)
    code, out, err = run_cli(
        capsys, "project", "--builder", "line:3",
        "--angles", "all:0.3,0.2", "--engine", "statevector",
    )
    assert code == 2
    assert err.splitlines() == [f"error: out of memory{': ' + message if message else ''}"]
    assert out == ""


def test_parser_built_once_and_defaults_stay_independent(capsys, monkeypatch):
    from latticeproj import cli

    builds = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
    cli._parser.cache_clear()
    code, first, _ = run_cli(
        capsys, "project", "--builder", "line:4", "--random", "--seed", "5",
        "--engine", "statevector",
    )
    assert code == 0
    # verify keeps its own --seed default, not project's 5
    code, out, _ = run_cli(capsys, "verify", "--builder", "line:4", "--trials", "1")
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["seed"] == "0"
    # and project is back on its defaults: seed 0, engine sweep
    code, again, _ = run_cli(capsys, "project", "--builder", "line:4", "--random")
    code, explicit, _ = run_cli(
        capsys, "project", "--builder", "line:4", "--random", "--seed", "0",
        "--engine", "sweep",
    )
    assert again == explicit != first
    assert len(builds) == 1


# (argv, exit code, first 16 hex digits of stdout's SHA-256, stderr) as the
# top-level parser printed them when every command line went through it,
# help pages wrapped at 80 columns; a SystemExit's code is the exit code
PARSES = [
    ([], 2, "e3b0c44298fc1c14",
     "usage: latticeproj [-h] {project,verify,bench,compile} ...\n"
     "latticeproj: error: the following arguments are required: command\n"),
    (["--help"], 0, "5f0af74f4054d7c8", ""),
    (["nope"], 2, "e3b0c44298fc1c14",
     "usage: latticeproj [-h] {project,verify,bench,compile} ...\n"
     "latticeproj: error: argument command: invalid choice: 'nope' "
     "(choose from 'project', 'verify', 'bench', 'compile')\n"),
    (["verify", "--help"], 0, "3021755550958d3c", ""),
    (["verify", "--bogus"], 2, "e3b0c44298fc1c14",
     "usage: latticeproj [-h] {project,verify,bench,compile} ...\n"
     "latticeproj: error: unrecognized arguments: --bogus\n"),
    (["project", "--seed", "x", "--builder", "line:3", "--random"], 2, "e3b0c44298fc1c14",
     "usage: latticeproj project [-h] [--builder BUILDER] [--graph GRAPH]\n"
     "                           [--angles ANGLES] [--random] [--seed SEED]\n"
     "                           [--engine ENGINE] [--output OUTPUT]\n"
     "latticeproj project: error: argument --seed: invalid int value: 'x'\n"),
    # an abbreviated flag: --tri is --trials
    (["verify", "--builder", "line:3", "--tri", "1"], 0, "6703259e6dad04b7", ""),
]


@pytest.mark.parametrize(
    "argv,code,out_digest,err", PARSES, ids=[" ".join(p[0]) or "(none)" for p in PARSES]
)
def test_command_lines_parse_as_they_always_did(capsys, monkeypatch, argv, code, out_digest, err):
    # a command's parser alone parses what follows its name; what the
    # top-level parser printed stays byte for byte the same
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as exc:
        got = exc.code
    captured = capsys.readouterr()
    assert got == code
    assert hashlib.sha256(captured.out.encode()).hexdigest()[:16] == out_digest
    assert captured.err == err


FIXTURE = "fivecross_17.graph"
FIXTURE_ANGLES = "all:0.3,0.1"


def _project_graph(capsys, graph_arg):
    return run_cli(capsys, "project", "--graph", graph_arg, "--angles", FIXTURE_ANGLES)


# a missing bare NAME or fixtures/NAME, as pathlib spells it, is the packaged
# fixture NAME: './' and a trailing slash change nothing
@pytest.mark.parametrize("form", ["{}", "./{}", "fixtures/{}", "./fixtures/{}", "{}/"])
def test_a_missing_bare_or_fixtures_path_loads_the_packaged_fixture(
    capsys, monkeypatch, tmp_path, form
):
    monkeypatch.chdir(tmp_path)
    packaged = _project_graph(capsys, str(graph.fixture_path(FIXTURE)))
    assert packaged == (0, "0.03599274504 0.009626748533\n", "")
    assert _project_graph(capsys, form.format(FIXTURE)) == packaged


@pytest.mark.parametrize("form", ["sub/fixtures/{}", "{tmp}/no/{}", "{tmp}/{}"])
def test_any_other_missing_path_is_not_found(capsys, monkeypatch, tmp_path, form):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub" / "fixtures").mkdir(parents=True)
    arg = form.format(FIXTURE, tmp=tmp_path)
    assert _project_graph(capsys, arg) == (2, "", f"error: graph file {arg!r} not found\n")


@pytest.mark.parametrize("form", ["{}", "./{}", "{}/", "{tmp}/{}"])
def test_a_local_file_with_a_fixtures_name_is_loaded_instead(capsys, monkeypatch, tmp_path, form):
    monkeypatch.chdir(tmp_path)
    (tmp_path / FIXTURE).write_text("3\n0 1\n1 2\n")
    line = run_cli(capsys, "project", "--builder", "line:3", "--angles", FIXTURE_ANGLES)
    assert line[0] == 0
    assert _project_graph(capsys, form.format(FIXTURE, tmp=tmp_path)) == line
    # fixtures/NAME is missing here, so it is still the packaged fixture
    assert _project_graph(capsys, f"fixtures/{FIXTURE}")[1] == "0.03599274504 0.009626748533\n"


def test_a_graph_path_whose_stat_fails_otherwise_exits_2_with_the_os_error(capsys):
    # only a missing path falls back or reads "not found"; a name past the
    # file system's limit is reported as the stat reported it
    arg = "x" * 300 + ".graph"
    too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
    assert _project_graph(capsys, arg) == (2, "", f"error: {too_long}: {arg!r}\n")


@pytest.mark.parametrize("builder", ["lattice:17x1", "cross:64"])
def test_column_over_cap_exits_2(capsys, builder):
    # lattices taller than the column cap (cross:K reads as a K x 1 lattice)
    # are not offered the column engine, so asking for it is a config error
    code, _, err = run_cli(
        capsys, "project", "--builder", builder,
        "--angles", "all:0,0", "--engine", "column",
    )
    assert code == 2
    assert "does not fit" in err


def _unreachable(*args):
    raise AssertionError("a graph past the qubit cap was built")


@pytest.mark.parametrize("builder", ["line:99999999999", "cross:99999999999", "lattice:99999x99999"])
def test_builder_past_the_qubit_cap_exits_2_before_building(capsys, monkeypatch, builder):
    for name in ("build_line", "build_cross_chain", "build_lattice"):
        monkeypatch.setattr(cli, name, _unreachable)
    code, out, err = run_cli(capsys, "project", "--builder", builder, "--random")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"above the cap of {GRAPH_QUBIT_CAP} qubits" in err


@pytest.mark.parametrize("k", [0, -1])
def test_cross_chain_below_one_cross_names_the_chain(capsys, k):
    code, out, err = run_cli(capsys, "project", "--builder", f"cross:{k}", "--random")
    assert code == 2 and out == ""
    assert err == f"error: bad --builder 'cross:{k}': cross chain needs k >= 1, got {k}\n"


def test_builder_graph_is_built_once_per_spelling_of_its_sizes():
    # repeated and aliased specs return the one instance graph_family holds
    cli._built.cache_clear()
    line = cli._build("line:10")
    assert cli._build("line:10") is line and cli._build("line:010") is line
    assert graph.graph_family(line).graph is line
    # cross:K is the K x 1 lattice: two memo keys, one graph_family instance
    cross = cli._build("cross:3")
    assert cli._build("lattice:3x1") is cross
    assert graph.graph_family(cross).graph is cross


def test_builder_memo_builds_each_graph_once(capsys, monkeypatch):
    cli._built.cache_clear()
    built = []
    real = graph.build_lattice
    monkeypatch.setattr(cli, "build_lattice", lambda m, n: built.append((m, n)) or real(m, n))
    for _ in range(3):
        assert run_cli(capsys, "project", "--builder", "lattice:2x3", "--random")[0] == 0
    assert built == [(2, 3)]


def test_warm_builder_past_a_lowered_cap_exits_2(capsys, monkeypatch):
    # the cap is checked on every command, not only when the graph is built
    argv = ("project", "--builder", "line:15", "--random", "--seed", "3")
    assert run_cli(capsys, *argv)[0] == 0
    monkeypatch.setattr(graph, "GRAPH_QUBIT_CAP", 14)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == "error: bad --builder 'line:15': graph of 15 qubits, above the cap of 14 qubits\n"


@pytest.mark.parametrize("builder,needle", [
    ("lattice:3x", "invalid literal for int()"),
    ("cross:0", "cross chain needs k >= 1, got 0"),
])
def test_bad_builder_exits_2_on_every_repeat(capsys, builder, needle):
    # an error is never remembered as a graph
    for _ in range(3):
        code, out, err = run_cli(capsys, "project", "--builder", builder, "--random")
        assert code == 2 and out == ""
        assert err.startswith(f"error: bad --builder {builder!r}: ") and needle in err


@pytest.mark.parametrize("n", [1, 74])
@pytest.mark.parametrize("seed", [0, 7, 2**63 - 1, 2**64 + 5])
def test_random_spec_is_default_rngs_draw_bit_for_bit(n, seed):
    spec = cli._random_spec(n, seed)
    expected = ProjectionSpec.random(n, np.random.default_rng(seed))
    for got, want in ((spec.c, expected.c), (spec.s, expected.s)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_graph_file_past_the_qubit_cap_exits_2_before_building(capsys, monkeypatch, tmp_path):
    path = tmp_path / "huge.graph"
    path.write_text("# a billion qubits and no edges\n1000000000\n")
    # a graph file's edges are validated and built by the core that
    # build_from_edges shares
    for name in ("build_from_edges", "_edges_graph"):
        monkeypatch.setattr(graph, name, _unreachable)
    code, out, err = run_cli(capsys, "project", "--graph", str(path), "--random")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and f"above the cap of {GRAPH_QUBIT_CAP} qubits" in err


def test_qubit_cap_admits_its_own_size(capsys, monkeypatch, tmp_path):
    # line:14, cross:4 and lattice:1x4 hold 14 qubits each
    monkeypatch.setattr(graph, "GRAPH_QUBIT_CAP", 14)
    path = tmp_path / "g.graph"
    for builder, bigger in (("line:14", "line:15"), ("cross:4", "cross:5"), ("lattice:1x4", "lattice:1x5")):
        assert run_cli(capsys, "project", "--builder", builder, "--random")[0] == 0
        code, _, err = run_cli(capsys, "project", "--builder", bigger, "--random")
        assert code == 2 and "above the cap of 14 qubits" in err
    for n, expect in ((14, 0), (15, 2)):
        path.write_text(f"{n}\n0 1\n")
        assert run_cli(capsys, "project", "--graph", str(path), "--random")[0] == expect


def test_compile_past_the_qubit_cap_exits_2_and_writes_nothing(capsys, monkeypatch, tmp_path):
    # each CZ adds 8 qubits to the pattern's 2 wires: 2 CZs make 18, 3 make 26
    monkeypatch.setattr(graph, "GRAPH_QUBIT_CAP", 18)
    circuit = tmp_path / "cz.circuit"
    for count, expect in ((2, 0), (3, 2)):
        circuit.write_text("CZ 0 1\n" * count)
        prefix = tmp_path / f"p{count}"
        code, _, err = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(prefix))
        assert code == expect
        written = [Path(f"{prefix}.{ext}").exists() for ext in ("graph", "angles")]
        assert written == [not expect] * 2
    assert err == "error: graph of 26 qubits, above the cap of 18 qubits\n"
    assert run_cli(capsys, "project", "--graph", f"{tmp_path}/p2.graph", "--random")[0] == 0


def test_verify_compares_graphs_by_value_at_most_once(capsys, monkeypatch):
    # the CLI goes on with the instance graph_family holds, so after one
    # comparison every graph-keyed cache finds its graph by identity
    argv = ["verify", "--builder", "lattice:3x10", "--trials", "1"]
    assert main(argv) == 0  # every cache now holds an equal graph
    compared = []
    equal = ClusterGraph.__eq__

    def counting(a, b):
        if a is not b:
            compared.append((a, b))
        return equal(a, b)

    monkeypatch.setattr(ClusterGraph, "__eq__", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(compared) <= 1


def test_sweep_over_width_cap_exits_2(capsys):
    # the 40x40 frontier would need 2^42 entries; the engine refuses first
    code, out, err = run_cli(
        capsys, "project", "--builder", "lattice:40x40",
        "--angles", "all:0,0", "--engine", "sweep",
    )
    assert code == 2
    assert "does not fit" in err and "bytes" in err and "engine error" not in err
    assert out == ""


@pytest.mark.parametrize("argv", [
    ("project", "--builder", "line:3", "--angles", "all:0,0"),
    ("verify", "--graph", "fivecross_17.graph", "--trials", "100"),
    ("bench", "--suite", "fig10"),
])
def test_unwritable_output_fails_before_any_amplitude(capsys, monkeypatch, tmp_path, argv):
    from latticeproj import cli

    def no_work(*args, **kwargs):
        raise AssertionError("an amplitude was computed before --output was opened")

    monkeypatch.setattr(cli, "compute_amplitude", no_work)
    monkeypatch.setattr(cli, "compute_amplitudes", no_work)
    code, _, err = run_cli(capsys, *argv, "--output", str(tmp_path / "no" / "x"))
    assert code == 2
    assert "No such file" in err


def test_verify_tall_lattice_leaves_out_column(capsys):
    code, out, err = run_cli(capsys, "verify", "--builder", "cross:64", "--trials", "1")
    assert code == 0, err
    header = out.splitlines()[0]
    assert "sweep_re" in header and "cross_recursion_re" in header
    assert "column_re" not in header


def test_engine_invariant_breach_exits_3(capsys, monkeypatch):
    from latticeproj import cli
    from latticeproj.errors import NonScalarResidue

    def breach(*args, **kwargs):
        raise NonScalarResidue("sweep left unretired word")

    monkeypatch.setattr(cli, "compute_amplitude", breach)
    code, _, err = run_cli(
        capsys, "project", "--builder", "line:3", "--angles", "all:0,0",
    )
    assert code == 3
    assert "engine error" in err and "unretired" in err


def test_verify_csv_and_determinism(capsys, tmp_path):
    args = (
        "verify", "--builder", "cross:2", "--trials", "4", "--seed", "11",
        "--engines", "statevector,sweep,cross-recursion",
    )
    code, out1, _ = run_cli(capsys, *args)
    assert code == 0
    code, out2, _ = run_cli(capsys, *args)
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert len(rows) == 4
    assert set(rows[0]) == {
        "trial", "seed", "statevector_re", "statevector_im",
        "sweep_re", "sweep_im", "cross_recursion_re", "cross_recursion_im",
        "max_abs_delta",
    }
    assert all(float(r["max_abs_delta"]) <= 1e-9 for r in rows)


def test_verify_line10_uses_all_four_applicable_engines(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--builder", "line:10", "--trials", "3", "--seed", "2",
    )
    assert code == 0
    header = out.splitlines()[0]
    for engine in ("statevector", "direct_sum", "sweep", "line_recursion"):
        assert f"{engine}_re" in header


def test_bench_line_scaling_counts_double(capsys):
    code, out, _ = run_cli(
        capsys, "bench", "--suite", "line-scaling", "--trials", "2",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    for engine in ("line-recursion", "sweep"):
        muls = {
            int(r["qubits"]): int(r["mul_count"])
            for r in rows
            if r["engine"] == engine
        }
        assert abs(muls[128] / muls[64] - 2.0) <= 0.2
        assert abs(muls[256] / muls[128] - 2.0) <= 0.2


def test_verify_cross64_sweep_against_cross_recursion(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--builder", "cross:64",
        "--engines", "sweep,cross-recursion", "--trials", "31",
    )
    assert code == 0, err


def test_verify_fails_when_every_amplitude_underflows(capsys):
    # line:4096 amplitudes are near 2^-2048, below the smallest double
    code, out, err = run_cli(capsys, "verify", "--builder", "line:4096", "--trials", "2")
    assert code == 1
    assert "2 of 2 trials" in err and "below the double range" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    assert all(float(r["line_recursion_re"]) == 0.0 for r in rows)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the amplitude underflows to 0.0")
def test_project_on_a_long_line_prints_no_silent_zero(capsys):
    code, out, _ = run_cli(
        capsys, "project", "--builder", "line:3000", "--angles", "all:0.785398,0"
    )
    assert code == 0
    assert out.split() != ["0.0", "0.0"]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: every amplitude underflows to 0.0")
def test_verify_passes_on_a_line_of_2048(capsys):
    code, _, err = run_cli(capsys, "verify", "--builder", "line:2048")
    assert code == 0, err


def test_verify_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "verify", "--builder", "line:5", "--trials", "2",
        "--tolerance", "1e-30",
    )
    assert code == 1
    assert "exceeds tolerance" in err


def test_verify_fails_an_engine_that_returns_zero_on_tiny_amplitudes(capsys, monkeypatch):
    from latticeproj import engines
    from latticeproj.evaluate import EvalReport

    # lattice:3x10 amplitudes are about 1e-12, below any absolute tolerance
    monkeypatch.setitem(
        engines.ENGINES, "column",
        engines.Engine(engines.ENGINES["column"].misfit, lambda g, spec: EvalReport(0j, 1, 0, 0)),
    )
    code, out, err = run_cli(
        capsys, "verify", "--builder", "lattice:3x10", "--trials", "3",
    )
    assert code == 1
    assert "relative" in err
    rows = list(csv.DictReader(io.StringIO(out)))
    assert all(float(r["column_re"]) == 0.0 for r in rows)
    assert all(float(r["max_abs_delta"]) < 1e-9 for r in rows)


@pytest.mark.parametrize("engine", ["statevector", "sweep"])
@pytest.mark.parametrize("value", [complex("nan+nanj"), complex("inf"), complex(0, -float("inf"))])
def test_verify_fails_an_engine_that_returns_a_non_finite_amplitude(
    capsys, monkeypatch, engine, value
):
    from latticeproj import engines
    from latticeproj.evaluate import EvalReport

    # the first column too: max() drops a NaN that does not come first
    monkeypatch.setitem(
        engines.ENGINES, engine,
        engines.Engine(engines.ENGINES[engine].misfit, lambda g, spec: EvalReport(value, 1, 0, 0)),
    )
    code, out, err = run_cli(
        capsys, "verify", "--builder", "line:6", "--trials", "5", "--tolerance", "inf",
    )
    assert code == 1
    assert "NaN or infinite amplitude on 5 of 5 trials" in err
    assert len(list(csv.DictReader(io.StringIO(out)))) == 5


@pytest.mark.parametrize("command", [
    ("project", "--builder", "line:3", "--angles", "all:0,0"),
    ("verify", "--builder", "line:3", "--trials", "1"),
])
def test_ordering_flag_is_gone(capsys, command):
    # the sweep always runs the auto order; --ordering is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main([*command, "--ordering", "auto"])
    assert exc.value.code == 2
    assert "--ordering" in capsys.readouterr().err


def test_verify_writes_file(capsys, tmp_path):
    out = tmp_path / "verify.csv"
    code, _, _ = run_cli(
        capsys, "verify", "--builder", "line:4", "--trials", "2",
        "--output", str(out),
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 2


def test_bench_lattice_width_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "bench", "--suite", "lattice-width")
    assert code == 0
    code, out2, _ = run_cli(capsys, "bench", "--suite", "lattice-width")
    assert out1 == out2
    rows = list(csv.DictReader(io.StringIO(out1)))
    assert [int(r["width"]) for r in rows] == [2, 3, 4, 5, 6]


def test_bench_fig10_small(capsys, tmp_path):
    out = tmp_path / "bench.csv"
    code, _, _ = run_cli(
        capsys, "bench", "--suite", "fig10", "--trials", "3", "--output", str(out)
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 9
    assert {r["engine"] for r in rows} == {"statevector", "sweep", "line-recursion"}


def test_bench_is_deterministic_outside_runtime_columns(capsys):
    def strip_times(text):
        rows = list(csv.DictReader(io.StringIO(text)))
        keep = [k for k in rows[0] if not k.endswith("_s")]
        return [[r[k] for k in keep] for r in rows]

    code, out1, _ = run_cli(capsys, "bench", "--suite", "fig10", "--trials", "2")
    assert code == 0
    code, out2, _ = run_cli(capsys, "bench", "--suite", "fig10", "--trials", "2")
    assert strip_times(out1) == strip_times(out2)


def test_compile_round_trips_through_project(capsys, tmp_path):
    circuit = tmp_path / "circ.txt"
    circuit.write_text("CPHASE 0 1 1.25\nCPHASE 1 2 0.75\n")
    prefix = tmp_path / "pattern"
    code, out, _ = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(prefix))
    assert code == 0
    assert "input wire 0" in out

    g = load_graph(f"{prefix}.graph")
    spec = load_angles(f"{prefix}.angles")
    assert spec.n == g.n
    code, out, _ = run_cli(
        capsys, "project", "--graph", f"{prefix}.graph",
        "--angles", f"{prefix}.angles", "--engine", "sweep",
    )
    assert code == 0
    sweep_amp = complex(*map(float, out.split()))
    code, out, _ = run_cli(
        capsys, "project", "--graph", f"{prefix}.graph",
        "--angles", f"{prefix}.angles", "--engine", "statevector",
    )
    assert abs(sweep_amp - complex(*map(float, out.split()))) < 1e-9


def test_compile_prints_the_circuits_wire_labels(capsys, tmp_path):
    # wires 3 and 7 are the composite's sorted wires; the I-shape CZ takes
    # qubits 0-4 for the first and 5-9 for the second
    circuit = tmp_path / "gap.txt"
    circuit.write_text("CZ 3 7\n")
    code, out, _ = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(tmp_path / "g"))
    assert code == 0
    assert out.splitlines()[:4] == [
        "input wire 3 -> qubit 0",
        "input wire 7 -> qubit 5",
        "output wire 3 -> qubit 4",
        "output wire 7 -> qubit 9",
    ]


def test_compile_past_the_semantics_cap_exits_0(capsys, tmp_path, monkeypatch):
    # a w-wire semantics matrix is as large as a 2w-qubit statevector; its
    # cap applies on the first read of the semantics, which compile never makes
    monkeypatch.setattr(oracle, "STATEVEC_CAP", 6)
    wide = tmp_path / "wide.txt"
    wide.write_text("CZ 0 1\nCZ 2 3\n")
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(wide), "--out", str(tmp_path / "w"))
    assert code == 0
    assert load_graph(tmp_path / "w.graph").n == 20
    pattern = mbqc.compile_circuit(mbqc.parse_circuit(wide.read_text()))
    with monkeypatch.context() as m:
        # refused before the product starts
        m.setattr(mbqc, "_apply_on_wires", None)
        with pytest.raises(TooLarge, match="4 wires.*cap of 6"):
            pattern.semantics
    narrow = mbqc.compile_circuit(mbqc.parse_circuit("CZ 0 1\nRZ 2 0.5\n"))
    assert narrow.semantics.shape == (8, 8)


def _chain(gate, wires):
    return "".join(f"{gate} {w} {w + 1}\n" for w in range(wires - 1))


# perfbench's mbqc-verify draws this five-wire chain first at seed 71
CPHASE_CHAIN_71 = (
    "CPHASE 0 1 1.5922450947124074\n"
    "CPHASE 1 2 3.314624261100249\n"
    "CPHASE 2 3 4.781419564901903\n"
    "CPHASE 3 4 3.9883213817271375\n"
)


@pytest.mark.parametrize("text", [CPHASE_CHAIN_71, _chain("CZ", 12)], ids=["chain-5", "cz-12"])
def test_compile_never_builds_the_semantics(capsys, tmp_path, monkeypatch, text):
    def refuse(*args):
        raise AssertionError("compile built the dense semantics")

    monkeypatch.setattr(mbqc, "_apply_on_wires", refuse)
    circuit = tmp_path / "c.txt"
    circuit.write_text(text)
    code, _, err = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(tmp_path / "p"))
    assert (code, err) == (0, "")


# md5 of (.graph, .angles) as compile wrote them before the semantics went
# lazy; the graph's header names the circuit file, so the names are pinned too
GOLDEN_COMPILES = {
    "chain71.txt": (
        CPHASE_CHAIN_71,
        "c084d184b37cdb6cbe13598681bd9bfc",
        "f74d65c5fd9c55976a3a806bfb457da1",
    ),
    "mixed.txt": (
        "H 0\nRZ 1 0.375\nRX 2 1.25\nCZ 0 1\nCNOT 1 2\nCPHASE 2 3 2.5\nH 3\n"
        "RX 0 0.75\nCNOT 3 0\n",
        "c62460413b364083eb9eef859d32236c",
        "620c6bd8ad8dbc167bfcb95199993966",
    ),
}


@pytest.mark.parametrize("name", GOLDEN_COMPILES)
def test_compile_outputs_match_recorded_digests(capsys, tmp_path, name):
    text, graph_md5, angles_md5 = GOLDEN_COMPILES[name]
    circuit = tmp_path / name
    circuit.write_text(text)
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(tmp_path / "p"))
    assert code == 0
    digests = [hashlib.md5((tmp_path / f"p{s}").read_bytes()).hexdigest() for s in (".graph", ".angles")]
    assert digests == [graph_md5, angles_md5]


def test_forty_wire_ladder_compiles_and_projects_within_a_second(capsys, tmp_path):
    # 434 qubits; the sweep's frontier on the compiled pattern is 3 slots wide
    lines = []
    for w in range(39):
        if w % 10 == 0:
            lines.append(f"RZ {w} {0.1 + w / 40}")
        lines.append(f"CNOT {w} {w + 1}")
    circuit = tmp_path / "ladder.txt"
    circuit.write_text("\n".join(lines) + "\n")
    prefix = str(tmp_path / "p")
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", prefix)
    assert code == 0
    code, out, _ = run_cli(capsys, "project", "--graph", f"{prefix}.graph", "--angles", f"{prefix}.angles")
    elapsed = time.perf_counter() - start
    assert code == 0
    assert complex(*map(float, out.split())) != 0
    assert elapsed < 1.0


def test_compile_over_a_longer_pair_writes_what_a_fresh_compile_does(capsys, tmp_path):
    long_circuit = tmp_path / "chain.txt"
    long_circuit.write_text("CPHASE 0 1 0.5\nCPHASE 1 2 0.25\nCZ 2 3\nCNOT 3 4\n")
    prefix = tmp_path / "p"
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(long_circuit), "--out", str(prefix))
    assert code == 0
    short_circuit = tmp_path / "one" / "chain.txt"
    short_circuit.parent.mkdir()
    short_circuit.write_text("RZ 0 0.5\n")
    old_size = Path(f"{prefix}.graph").stat().st_size
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(short_circuit), "--out", str(prefix))
    assert code == 0
    fresh = tmp_path / "one" / "fresh"
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(short_circuit), "--out", str(fresh))
    assert code == 0
    for suffix in (".graph", ".angles"):
        assert Path(f"{prefix}{suffix}").read_bytes() == Path(f"{fresh}{suffix}").read_bytes()
    assert Path(f"{prefix}.graph").stat().st_size < old_size


def test_compile_rejects_a_non_finite_angle(capsys, tmp_path):
    circuit = tmp_path / "nan.txt"
    circuit.write_text("RZ 0 nan\nCZ 0 1\n")
    code, _, err = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(tmp_path / "p"))
    assert code == 2
    assert "line 1: angle must be finite" in err
    assert not list(tmp_path.glob("p.*"))


def test_compile_leaves_no_half_pair_when_an_output_cannot_be_opened(capsys, tmp_path):
    circuit = tmp_path / "cz.txt"
    circuit.write_text("CZ 0 1\n")
    prefix = tmp_path / "p"
    (tmp_path / "p.graph").write_text("# an older pattern\n2\n0 1\n")
    (tmp_path / "p.angles").mkdir()
    code, _, err = run_cli(capsys, "compile", "--circuit", str(circuit), "--out", str(prefix))
    assert code == 2
    assert "Is a directory" in err
    assert "compiled from" not in (tmp_path / "p.graph").read_text()
    code, _, _ = run_cli(
        capsys, "project", "--graph", f"{prefix}.graph", "--angles", f"{prefix}.angles",
    )
    assert code != 0


@pytest.mark.parametrize("argv", [
    ("project", "--builder", "line:3", "--angles", "all:0.3,0.2"),
    ("verify", "--builder", "lattice:2x2", "--trials", "3"),
    ("bench", "--suite", "lattice-width"),
])
def test_output_over_a_longer_file_holds_exactly_the_new_csv(capsys, tmp_path, argv):
    code, printed, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "out.csv"
    path.write_text("stale row\n" * 2000)
    code, _, _ = run_cli(capsys, *argv, "--output", str(path))
    assert code == 0
    assert path.read_bytes() == printed.encode()


def test_output_to_dev_null_and_to_a_pipe(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--builder", "line:3", "--trials", "2", "--output", os.devnull
    )
    assert (code, out, err) == (0, "", "")
    src = str(Path(latticeproj.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "latticeproj.cli", "verify", "--builder", "line:3",
         "--trials", "2", "--output", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].startswith("trial,seed,")
    assert len(proc.stdout.splitlines()) == 3


def test_compile_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("RZ 0 0.5\nWOBBLE 1\n")
    code, _, err = run_cli(capsys, "compile", "--circuit", str(bad), "--out", str(tmp_path / "x"))
    assert code == 2
    assert "line 2" in err


def _dictwriter_csv(rows):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def _write_csv_text(rows):
    buf = io.StringIO()
    cli._write_csv(buf, rows)
    return buf.getvalue()


def test_csv_bytes_equal_the_csv_modules():
    awkward = ["", ",", '"', "\r", "\n", "a,b", 'say "hi"', "\r\n", "  lead", " ,", '""', "x\ny"]
    floats = [float("nan"), float("inf"), -float("inf"), -0.0, 1e-300, 0.1]
    rows = [
        {"trial": t, "name, quoted": text, " spaced": 10**20 - t, 'q"': repr(value), "f": value}
        for t, (text, value) in enumerate(zip(awkward, floats * 2))
    ]
    assert _write_csv_text(rows) == _dictwriter_csv(rows)
    assert _write_csv_text([{"a": 1, "b": ""}]) == "a,b\r\n1,\r\n"


def test_verify_csv_equals_the_csv_modules_rendering(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--builder", "lattice:3x10", "--trials", "31", "--seed", "0"
    )
    assert code == 0
    g = graph.build_lattice(3, 10)
    rows, *_ = cli.run_verify(g, latticeproj.applicable_engines(g), 31, 0)
    assert out == _dictwriter_csv(rows)


def _op_peak_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "op_peak.py"
    spec = importlib.util.spec_from_file_location("op_peak", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv,cap_kib", [
    # one trial: the engines' work, with no 128 KiB csv record buffer
    (("verify", "--builder", "lattice:3x10", "--trials", "1"), 96),
    (("verify", "--graph", "fivecross_17.graph", "--trials", "1"), 64),
    # 31 trials: the sweep's step values, one block of them at a time
    (("verify", "--builder", "lattice:3x10", "--seed", "0"), 1280),
])
def test_verify_op_allocation_peak(argv, cap_kib):
    # as perfbench's peak_alloc_mb takes it: warm, after a full collection
    assert _op_peak_script().op_peak_kib(list(argv)) < cap_kib


def test_verify_op_allocation_peak_without_graph_rebuild():
    # one trial on a warm builder graph: no rebuild of the graph per command
    # (31.7 KiB when each command built it)
    argv = ["verify", "--builder", "lattice:3x10", "--trials", "1"]
    assert _op_peak_script().op_peak_kib(argv) < 28


def test_sweep_contract_peak(capsys):
    # one projection on lattice:3x10: a 32-entry frontier and one block of
    # values (29.9 KiB when every step's values were built at once)
    script = _op_peak_script()
    assert script.main(["sweep", "lattice:3x10", "1"]) == 0
    number, unit = capsys.readouterr().out.split()
    assert unit == "KiB" and float(number) < 24
    for argv in (["sweep", "lattice:3x10"], ["sweep", "lattice:3x10", "0"]):
        assert script.main(argv) == 2


def _chain_action_peak_kib(tmp_path):
    """op_peak's action peak on mbqc-verify's five-wire CPhase chain."""
    circuit = tmp_path / "chain.txt"
    circuit.write_text("".join(f"CPHASE {w} {w + 1} {0.5 + w}\n" for w in range(4)))
    return _op_peak_script().action_peak_kib(str(circuit))


def test_action_allocation_peak(tmp_path):
    # mbqc-verify's five-wire CPhase chain: compile and action, bounded buffers
    assert _chain_action_peak_kib(tmp_path) < 80


def test_action_allocation_peak_without_full_size_temporaries(tmp_path):
    # no step-local slot reaches the frontier and the action is written
    # straight into its result (70.0 KiB with the doubled frontier and the
    # one-hot and transposed copies)
    assert _chain_action_peak_kib(tmp_path) < 56
