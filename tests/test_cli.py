"""End-to-end runs of the command-line surface."""

import csv
import hashlib
import io
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import latticeproj
from latticeproj import cli, graph, mbqc
from latticeproj.cli import main
from latticeproj.errors import TooLarge
from latticeproj.factorize import load_angles
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
])
def test_config_errors_exit_2(capsys, tmp_path, argv, needle):
    for name, text in (("nan.angles", "nan 0\n"), ("abc.angles", "abc 0\n"),
                       ("bad.graph", "2\nx y\n"), ("h.circuit", "H 0\n")):
        (tmp_path / name).write_text(text)
    (tmp_path / "bad.bytes").write_bytes(b"\xff\xfe")
    code, _, err = run_cli(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert needle in err


def test_bad_statevector_cap_setting_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("LATTICEPROJ_STATEVEC_CAP", "abc")
    code, out, err = run_cli(capsys, "verify", "--builder", "line:5", "--trials", "1")
    assert code == 2
    assert "LATTICEPROJ_STATEVEC_CAP" in err and "engine error" not in err
    assert out == ""


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


def test_graph_file_past_the_qubit_cap_exits_2_before_building(capsys, monkeypatch, tmp_path):
    path = tmp_path / "huge.graph"
    path.write_text("# a billion qubits and no edges\n1000000000\n")
    monkeypatch.setattr(graph, "build_from_edges", _unreachable)
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
    monkeypatch.setenv("LATTICEPROJ_STATEVEC_CAP", "6")
    wide = tmp_path / "wide.txt"
    wide.write_text("CZ 0 1\nCZ 2 3\n")
    code, _, _ = run_cli(capsys, "compile", "--circuit", str(wide), "--out", str(tmp_path / "w"))
    assert code == 0
    assert load_graph(tmp_path / "w.graph").n == 20
    pattern = mbqc.compile_circuit(mbqc.parse_circuit(wide.read_text()))
    with monkeypatch.context() as m:
        # refused before the product starts
        m.setattr(mbqc, "_apply_on_wires", None)
        with pytest.raises(TooLarge, match="4 wires.*LATTICEPROJ_STATEVEC_CAP"):
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
