"""The allocation peak of one warm CLI command, MBQC action or sweep, in KiB.

    python3 scripts/op_peak.py verify --builder lattice:3x10 --trials 1
    python3 scripts/op_peak.py verify --graph fivecross_17.graph --seed 0
    python3 scripts/op_peak.py action CIRCUIT_FILE
    python3 scripts/op_peak.py sweep BUILDER TRIALS

Runs ``latticeproj.cli.main(ARGV)`` twice with stdout discarded, so that
imports, caches and plans are warm, then a full collection, then a third
run under ``tracemalloc``, and prints that run's peak.  ``action
CIRCUIT_FILE`` measures ``pattern_action_matrix(compile_circuit(
parse_circuit(text)))`` on the file's text the same way: the MBQC action,
which no CLI command runs apart.  ``sweep BUILDER TRIALS`` (BUILDER as
``--builder`` takes it, such as ``line:8192``) measures the sweep's
contraction core, ``evaluate._contract``, the same way on the graph's
sweep plan and TRIALS seeded random projections: their stacked (T, n) C/S
arrays, or one projection's (n,) arrays for TRIALS = 1, built before the
first call, as the sweep engine passes them.  The peak counts Python
objects and numpy buffers, as the benchmark's ``peak_alloc_mb`` does; it
does not depend on how the allocator lays out or returns memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path
from typing import Callable

if __name__ == "__main__":
    # this checkout's package, ahead of an installed copy or PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from latticeproj import cli, compile_circuit, parse_circuit, pattern_action_matrix  # noqa: E402
from latticeproj.engines import sweep_polynomial  # noqa: E402
from latticeproj.evaluate import _contract, frontier_plan  # noqa: E402
from latticeproj.factorize import ProjectionSpec, stack_specs  # noqa: E402


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def peak_kib(run: Callable[[], object]) -> float:
    """tracemalloc's peak over the third of three calls of ``run``."""
    run()
    run()
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def op_peak_kib(argv: list[str]) -> float:
    """tracemalloc's peak over the third of three runs of ``cli.main(argv)``."""
    return peak_kib(lambda: _run(argv))


def action_peak_kib(circuit_file: str) -> float:
    """tracemalloc's peak over the third of three compilations of the
    circuit file's text and ``pattern_action_matrix`` of the pattern."""
    text = Path(circuit_file).read_text()
    return peak_kib(lambda: pattern_action_matrix(compile_circuit(parse_circuit(text))))


def sweep_peak_kib(builder: str, trials: int) -> float:
    """tracemalloc's peak over the third of three ``_contract`` calls on the
    builder graph's sweep plan, for ``trials`` projections seeded 0, 1, ..."""
    g = cli._build(builder)
    specs = [ProjectionSpec.random(g.n, np.random.default_rng(t)) for t in range(trials)]
    plan = frontier_plan(sweep_polynomial(g, specs[0]))
    c, s = stack_specs(specs, g.n) if trials > 1 else (specs[0].c, specs[0].s)
    return peak_kib(lambda: _contract(plan, c, s))


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    if argv[0] == "action":
        if len(argv) != 2:
            print("usage: op_peak.py action CIRCUIT_FILE", file=sys.stderr)
            return 2
        kib = action_peak_kib(argv[1])
    elif argv[0] == "sweep":
        if len(argv) != 3 or not argv[2].isdigit() or int(argv[2]) < 1:
            print("usage: op_peak.py sweep BUILDER TRIALS (TRIALS >= 1)", file=sys.stderr)
            return 2
        kib = sweep_peak_kib(argv[1], int(argv[2]))
    else:
        kib = op_peak_kib(argv)
    print(f"{kib:.1f} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
