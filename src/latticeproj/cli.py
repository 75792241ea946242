"""Command-line driver: project, verify, bench, compile.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error (running out of memory included), 3 engine-internal invariant breach.
All CSV output is deterministic for a fixed configuration (including seeds)
except wall-clock columns.
"""

from __future__ import annotations

import argparse
import cmath
import errno
import os
import statistics
import sys
import time
from contextlib import contextmanager
from functools import cache, lru_cache
from pathlib import Path
from typing import Callable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .engines import (
    ENGINE_NAMES,
    ENGINES,
    applicable_engines,
    compute_amplitude,
    compute_amplitudes,
)
from .errors import CircuitParseError, LatticeProjError, TooLarge
from .evaluate import lattice_width_profile
from .factorize import ProjectionSpec, load_angles
from .graph import (
    ClusterGraph,
    build_cross_chain,
    build_lattice,
    build_line,
    check_qubit_count,
    fixture_file,
    fixture_path,
    format_graph_text,
    graph_family,
    load_graph,
    read_text,
    rewrite,
)
from .mbqc import (
    compile_circuit,
    parse_circuit,
    pattern_rotation_angles,
    rotation_projector_to_spec,
)


class ConfigError(Exception):
    """Bad flags, missing files, or an engine that does not fit the graph."""


def _check_engine(engine: str, g: ClusterGraph, name: str) -> None:
    if engine not in ENGINE_NAMES:
        raise ConfigError(f"unknown engine {engine!r} (choose from {ENGINE_NAMES})")
    error = ENGINES[engine].misfit(g)
    if error is not None:
        raise ConfigError(f"engine {engine!r} does not fit graph {name}: {error}")


def _fmt_float(v: float) -> str:
    v = v + 0.0  # normalize -0.0
    s = f"{v:.10g}"
    if "." not in s and "e" not in s and "inf" not in s and "nan" not in s:
        s += ".0"
    return s


def _build(builder: str) -> ClusterGraph:
    """The ``--builder`` graph, as the instance graph_family holds for it.

    Every call parses ``KIND:SIZES`` and checks the qubit count against
    graph.GRAPH_QUBIT_CAP before anything is built; ``_built`` then builds
    each (kind, sizes) once per process."""
    kind, _, rest = builder.partition(":")
    if kind == "line":
        sizes = (int(rest),)
        qubits = sizes[0]
    elif kind == "cross":
        sizes = (int(rest),)
        qubits = 3 * sizes[0] + 2
    elif kind == "lattice":
        m, _, n = rest.partition("x")
        rows, cols = sizes = (int(m), int(n))
        qubits = (rows + 1) * (cols + 1) + rows * cols
    else:
        raise ConfigError(f"unknown builder {kind!r} (use line:N, cross:K, lattice:MxN)")
    if min(sizes) >= 1:  # the builder itself rejects a size below 1
        check_qubit_count(qubits)
    return _built(kind, sizes)


@lru_cache(maxsize=16)
def _built(kind: str, sizes: tuple[int, ...]) -> ClusterGraph:
    # the builders are read as module globals on each miss, so a rebinding
    # of cli.build_line (say) is seen; an error raised here is not cached
    build = {"line": build_line, "cross": build_cross_chain, "lattice": build_lattice}[kind]
    return graph_family(build(*sizes)).graph


def _path_arg(arg: str) -> str:
    """A path argument as pathlib spells it, ``str(Path(arg))``: no empty or
    ``.`` component and no trailing slash.  An argument that already reads
    so, as most do, is returned without building a Path."""
    if not arg or arg.startswith("./") or arg.endswith("/") or "//" in arg or "/." in arg:
        return str(Path(arg))
    return arg


def _exists(path: str) -> bool:
    """``Path(path).exists()``: a missing, looping or not-a-directory path
    component reads False, and any other failure of the stat (such as a name
    too long) is raised."""
    try:
        os.stat(path)
    except OSError as exc:
        if exc.errno in (errno.ENOENT, errno.ENOTDIR, errno.EBADF, errno.ELOOP):
            return False
        raise
    except ValueError:  # a null byte in the path
        return False
    return True


def _resolve_graph(args: argparse.Namespace) -> tuple[str, ClusterGraph]:
    """The graph's name and the graph, as the instance graph_family holds
    for it, so every graph-keyed cache after this finds it by identity."""
    if args.builder and args.graph:
        raise ConfigError("give either --builder or --graph, not both")
    if args.builder:
        try:
            return args.builder, _build(args.builder)
        except (ValueError, LatticeProjError) as exc:
            raise ConfigError(f"bad --builder {args.builder!r}: {exc}")
    if args.graph:
        # a missing bare NAME or fixtures/NAME is the packaged fixture NAME
        path = _path_arg(args.graph)
        if not _exists(path):
            packaged = fixture_file(os.path.basename(path))
            if os.path.dirname(path) in ("", "fixtures") and _exists(packaged):
                path = packaged
            else:
                raise ConfigError(f"graph file {args.graph!r} not found")
        try:
            g = load_graph(path)
        except (ValueError, LatticeProjError) as exc:
            raise ConfigError(f"bad graph file {path}: {exc}")
        return os.path.basename(path), graph_family(g).graph
    raise ConfigError("a graph is required (--builder or --graph)")


def _check_seed(seed: int) -> None:
    # numpy's generators take non-negative seeds only
    if seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {seed}")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise ConfigError("--trials must be at least 1")


def _random_spec(n: int, seed: int) -> ProjectionSpec:
    """``ProjectionSpec.random(n, np.random.default_rng(seed))``, bit for bit:
    default_rng builds this same PCG64 generator after checking its
    argument's type."""
    return ProjectionSpec.random(n, np.random.Generator(np.random.PCG64(seed)))


def _resolve_angles(args: argparse.Namespace, n: int) -> ProjectionSpec:
    if args.random and args.angles:
        raise ConfigError("give either --angles or --random, not both")
    if args.random:
        _check_seed(args.seed)
        return _random_spec(n, args.seed)
    if not args.angles:
        raise ConfigError("angles are required (--angles or --random)")
    if args.angles.startswith("all:"):
        try:
            theta, phi = (float(x) for x in args.angles[4:].split(","))
            return ProjectionSpec.constant(n, theta, phi)
        except ValueError as exc:
            raise ConfigError(f"bad --angles {args.angles!r} (use all:THETA,PHI): {exc}")
    path = _path_arg(args.angles)
    if not _exists(path):
        raise ConfigError(f"angle file {args.angles!r} not found")
    try:
        spec = load_angles(path)
    except (ValueError, LatticeProjError) as exc:
        raise ConfigError(f"bad angle file {path}: {exc}")
    if spec.n != n:
        raise ConfigError(f"angle file holds {spec.n} qubits, graph has {n}")
    return spec


@contextmanager
def _output(path: Optional[str]) -> Iterator[TextIO]:
    """The ``--output`` stream: stdout, or ``path`` rewritten in place.

    Opened before the work starts, so an unwritable path fails at once.  A
    file is rewritten by ``graph.rewrite`` (never truncated to zero first);
    ``/dev/null`` and pipes such as ``/dev/stdout`` work as they do with
    ``"w"``.
    """
    if not path:
        yield sys.stdout
        return
    with rewrite(path) as out:
        yield out


def _csv_field(value: object) -> str:
    text = str(value)
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_csv(out: TextIO, rows: list[dict]) -> None:
    """The header and rows as csv.DictWriter's excel dialect writes them, one join
    per row, without the 128 KiB buffer of CPython's C writer (rows have 2+ fields)."""
    fields = list(rows[0])
    out.write(",".join(map(_csv_field, fields)) + "\r\n")
    for row in rows:
        out.write(",".join([_csv_field(row[key]) for key in fields]) + "\r\n")


# ---------------------------------------------------------------------------
# project


def cmd_project(args: argparse.Namespace) -> int:
    name, g = _resolve_graph(args)
    spec = _resolve_angles(args, g.n)
    _check_engine(args.engine, g, name)
    with _output(args.output) as out:
        amp = compute_amplitude(g, spec, args.engine).amplitude
        print(f"{_fmt_float(amp.real)} {_fmt_float(amp.imag)}", file=out)
    return 0


# ---------------------------------------------------------------------------
# verify


def run_verify(
    g: ClusterGraph, engines: Sequence[str], trials: int, seed: int
) -> tuple[list[dict], float, int, int]:
    """Per-trial amplitudes for every engine, the worst relative delta, the
    number of trials whose every amplitude is exactly zero and the number of
    trials with a NaN or infinite amplitude.

    Trial t draws its projection from seed + t.  Each engine is checked
    against the graph once and asked for all T amplitudes in one
    ``evaluate_batch`` pass (chunked within its cap; see engines).
    A trial's relative delta is its largest pairwise |a - b| over its
    largest |amplitude|, so an engine that returns 0 against a non-zero
    amplitude reads 1.0 however small the amplitudes are.  Random angles
    give an exact zero amplitude only on a set of measure zero, so a trial
    where every engine returns 0 has underflowed the double range; it is
    counted apart (its relative delta is 0) and fails verification.  So is
    a trial with a non-finite amplitude, whose deltas max() would drop.  The
    CSV's max_abs_delta stays absolute.
    """
    specs = [_random_spec(g.n, seed + t) for t in range(trials)]
    batches = {e: compute_amplitudes(g, specs, e) for e in engines}
    rows = []
    worst = 0.0
    zeros = nonfinite = 0
    for trial in range(trials):
        amps = {e: batches[e][trial] for e in engines}
        values = list(amps.values())
        delta = max(
            (abs(a - b) for i, a in enumerate(values) for b in values[i + 1 :]),
            default=0.0,
        )
        scale = max((abs(a) for a in values), default=0.0)
        if not all(map(cmath.isfinite, values)):
            nonfinite += 1
        elif scale:
            worst = max(worst, delta / scale)
        else:
            zeros += 1
        row: dict = {"trial": trial, "seed": seed + trial}
        for e in engines:
            key = e.replace("-", "_")
            row[f"{key}_re"] = repr(amps[e].real)
            row[f"{key}_im"] = repr(amps[e].imag)
        row["max_abs_delta"] = repr(delta)
        rows.append(row)
    return rows, worst, zeros, nonfinite


def cmd_verify(args: argparse.Namespace) -> int:
    name, g = _resolve_graph(args)
    _check_trials(args.trials)
    _check_seed(args.seed)
    if not args.tolerance >= 0:
        # a NaN tolerance would pass every delta
        raise ConfigError(f"--tolerance must be non-negative, got {args.tolerance}")
    if args.engines is not None:
        engines = [e.strip() for e in args.engines.split(",")]
        for e in engines:
            _check_engine(e, g, name)
        if len(set(engines)) < len(engines):
            raise ConfigError(f"--engines lists an engine twice: {args.engines!r}")
    else:
        engines = applicable_engines(g)
    if len(engines) < 2:
        raise ConfigError("verification needs at least two engines")

    with _output(args.output) as out:
        rows, worst, zeros, nonfinite = run_verify(g, engines, args.trials, args.seed)
        _write_csv(out, rows)
    failures = []
    if worst > args.tolerance:
        failures.append(
            f"max relative engine delta {worst:.3e} exceeds tolerance {args.tolerance:.3e}"
        )
    if zeros:
        failures.append(
            f"every engine returned exactly 0 on {zeros} of {len(rows)} trials: "
            "the amplitude is below the double range"
        )
    if nonfinite:
        failures.append(
            f"an engine returned a NaN or infinite amplitude on {nonfinite} of {len(rows)} trials"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# bench


def bench_points(
    points: Sequence[tuple[str, ClusterGraph]],
    engines: Sequence[str],
    trials: int,
    seed: int,
) -> list[dict]:
    """Time each engine on each graph over the same per-trial random projections.

    Runs are interleaved: trial t runs every (graph, engine) pair on the
    graph's projection t, starting from pair t mod the pair count, so a
    change in host speed during the suite falls on every graph and engine
    alike instead of on one pair's block of trials.  Timing runs are
    sequential on purpose; medians keep stray scheduling noise out of the
    comparisons.  Every engine's counters depend on the graph alone, so
    each pair keeps one trial's.  One row per pair, graphs in the given
    order, then engines.
    """
    runs = [(name, g, engine) for name, g in points for engine in engines]
    specs = {
        name: [_random_spec(g.n, seed + t) for t in range(trials)]
        for name, g in points
    }
    times: list[list[float]] = [[] for _ in runs]
    reports: list = [None] * len(runs)
    for t in range(trials):
        for k in range(len(runs)):
            i = (t + k) % len(runs)
            name, g, engine = runs[i]
            start = time.perf_counter()
            reports[i] = compute_amplitude(g, specs[name][t], engine)
            times[i].append(time.perf_counter() - start)
    return [
        {
            "graph": name,
            "qubits": g.n,
            "engine": engine,
            "trials": trials,
            "median_s": repr(statistics.median(times[i])),
            "mean_s": repr(statistics.fmean(times[i])),
            "stddev_s": repr(statistics.pstdev(times[i])),
            "mul_count": reports[i].mul_count,
            "add_count": reports[i].add_count,
            "max_live_terms": reports[i].max_live_terms,
        }
        for i, (name, g, engine) in enumerate(runs)
    ]


def bench_fig10(trials: int = 25, seed: int = 0) -> list[dict]:
    """Scaling study on the 4/7/12-qubit fixtures, three engines per point."""
    points = [
        (fixture, load_graph(fixture_path(fixture)))
        for fixture in ("fig10_a4.graph", "fig10_b7.graph", "fig10_c12.graph")
    ]
    return bench_points(points, ("statevector", "sweep", "line-recursion"), trials, seed)


def bench_line_scaling(trials: int = 25, seed: int = 0) -> list[dict]:
    points = [(f"line:{n}", build_line(n)) for n in (64, 128, 256)]
    return bench_points(points, ("line-recursion", "sweep"), trials, seed)


# every bench suite by name: (trials, seed) -> CSV rows
SUITES: dict[str, Callable[[int, int], list[dict]]] = {
    "fig10": bench_fig10,
    "line-scaling": bench_line_scaling,
    "lattice-width": lambda trials, seed: lattice_width_profile(2, range(2, 7)),
}


def cmd_bench(args: argparse.Namespace) -> int:
    _check_trials(args.trials)
    _check_seed(args.seed)
    with _output(args.output) as out:
        _write_csv(out, SUITES[args.suite](args.trials, args.seed))
    return 0


# ---------------------------------------------------------------------------
# compile


def cmd_compile(args: argparse.Namespace) -> int:
    path = _path_arg(args.circuit)
    if not _exists(path):
        raise ConfigError(f"circuit file {args.circuit!r} not found")
    try:
        gates = parse_circuit(read_text(path))
        pattern = compile_circuit(gates)
    except (UnicodeDecodeError, CircuitParseError) as exc:
        raise ConfigError(f"cannot compile {args.circuit}: {exc}")
    # a pattern project would refuse is not written
    check_qubit_count(pattern.graph.n)
    graph_path = _path_arg(args.out + ".graph")
    angles_path = _path_arg(args.out + ".angles")
    graph_text = format_graph_text(
        pattern.graph, header=f"pattern compiled from {os.path.basename(path)}"
    )
    rotations = pattern_rotation_angles(pattern)
    lines = [f"# projector angles (theta phi) per qubit; outputs default to <+|"]
    for q, rot in enumerate(rotations):
        theta, phi = rotation_projector_to_spec(rot)
        role = "output" if q in pattern.outputs else "measured"
        lines.append(f"{theta!r} {phi!r}  # qubit {q} ({role}, rotation {rot!r})")
    # both opened before either is written: if the second cannot be opened,
    # the first is left empty rather than holding half of a new pair
    with rewrite(graph_path) as graph_out, rewrite(angles_path) as angles_out:
        graph_out.write(graph_text)
        angles_out.write("\n".join(lines) + "\n")
    # the pattern's inputs and outputs follow the circuit's sorted wire labels
    wires = sorted({w for gate in gates for w in gate.qubits})
    for wire, q in zip(wires, pattern.inputs):
        print(f"input wire {wire} -> qubit {q}")
    for wire, q in zip(wires, pattern.outputs):
        print(f"output wire {wire} -> qubit {q}")
    print(f"wrote {graph_path} and {angles_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_graph_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--builder", help="line:N | cross:K | lattice:MxN")
    p.add_argument("--graph", help="graph file path (or a packaged fixture's NAME)")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each command's own parser, by command name."""
    parser = argparse.ArgumentParser(
        prog="latticeproj",
        description="Local projections on cluster states, factorized and brute force.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("project", help="print one amplitude as 're im'")
    _add_graph_args(p)
    p.add_argument("--angles", help="all:THETA,PHI or an angle file path")
    p.add_argument("--random", action="store_true", help="draw angles uniform on [0, 2pi)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", default="sweep", help=f"one of {', '.join(ENGINE_NAMES)}")
    p.add_argument("--output", help="write the amplitude here instead of stdout")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("verify", help="cross-check engines over random trials (CSV)")
    _add_graph_args(p)
    p.add_argument("--engines", help="comma-separated engine list (default: all applicable)")
    p.add_argument("--trials", type=int, default=31)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-9,
                   help="bound on each trial's largest engine delta relative to "
                        "its largest |amplitude|")
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="timing and op-count tables (CSV)")
    p.add_argument("--suite", required=True,
                   choices=tuple(SUITES))
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("compile", help="compile a circuit file to pattern files")
    p.add_argument("--circuit", required=True, help="circuit DSL file")
    p.add_argument("--out", required=True, help="output prefix for .graph/.angles")
    p.set_defaults(func=cmd_compile)

    return parser, sub.choices


@cache
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # built on the first call, then shared: every parse returns a fresh
    # namespace, so one command's flags never leak into the next
    return build_parser()


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed as the top-level parser parses it, in one pass.

    The top-level parser hands everything after a command's name to that
    command's parser and reports what it leaves over, so a command line
    that names a command goes to the command's parser alone.  The rest (no
    arguments, ``--help``, an unknown command) keep the top-level usage.
    """
    parser, commands = _parser()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except (ConfigError, TooLarge, OSError) as exc:
        # a size over a cap or a path that cannot be read or written is usage
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # a size within every cap that still does not fit in this machine
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2
    except LatticeProjError as exc:
        print(f"engine error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
