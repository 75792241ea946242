"""The four workloads: inputs from a seed, one op each, and its output check.

Every op goes through ``latticeproj.cli.main(argv)`` (stdout captured), plus
the public ``latticeproj`` API for the MBQC action-matrix check.  Inputs are
a pool of ``POOL`` per-op configurations drawn from the workload seed; the
closed loop cycles through the pool.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import time
from pathlib import Path
from typing import Any

import numpy as np

import checks

POOL = 64
MBQC_POOL = 8
CPHASE_WIRES = ((0, 1), (1, 2), (2, 3), (3, 4))


class OpFailed(Exception):
    """A CLI command of the op exited non-zero."""


def call_cli(argv: list[str]) -> str:
    """Run one CLI command in this process; return its stdout."""
    from latticeproj import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    if code != 0:
        raise OpFailed(f"{' '.join(argv[:3])} exited {code}")
    return buf.getvalue()


def cphase_chain(rng: np.random.Generator) -> str:
    """Circuit text: CPHASE gates along wires 0-4, angles uniform on [0, 2pi)."""
    angles = rng.uniform(0.0, 2.0 * np.pi, len(CPHASE_WIRES))
    return "".join(f"CPHASE {a} {b} {float(t)!r}\n" for (a, b), t in zip(CPHASE_WIRES, angles))


def op_seeds(seed: int, count: int) -> list[int]:
    return [seed * 1000 + i for i in range(count)]


class Workload:
    name = ""
    # each op runs in a process forked after import, so nothing is cached
    fresh_process = False
    # op times are scaled by the host-speed factor (hostspeed.py)
    host_adjusted = True
    # op_tail_ms is taken from the scaled times, not the raw ones
    tail_adjusted = True

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> list[Any]:
        raise NotImplementedError

    def op(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, inp: Any, output: Any) -> bool:
        raise NotImplementedError


class VerifyWorkload(Workload):
    graph_args: list[str] = []

    def setup(self) -> list[list[str]]:
        return [
            ["verify", *self.graph_args, "--trials", "1", "--seed", str(s)]
            for s in op_seeds(self.seed, POOL)
        ]

    def op(self, argv: list[str]) -> str:
        return call_cli(argv)

    def check(self, argv: list[str], output: str) -> bool:
        return checks.verify_csv_ok(output)


class LatticeVerify(VerifyWorkload):
    name = "lattice-verify"
    graph_args = ["--builder", "lattice:3x10"]


class OracleVerify(VerifyWorkload):
    name = "oracle-verify"
    graph_args = ["--graph", "fivecross_17.graph"]
    # The tail (~94th percentile of each window) is set by brief stalls that
    # the per-op factor over- or under-corrects; the median is set by the
    # host's drift, which the factor removes.  Over three sets of runs the
    # windowed tail read IQR/median 0.12, 0.04 and 0.08 raw against 0.10,
    # 0.19 and 0.26 adjusted; the median read 0.02, 0.07 and 0.10 raw
    # against 0.04, 0.06 and 0.03 adjusted.
    tail_adjusted = False


class LineProject(Workload):
    name = "line-project"
    fresh_process = True
    size = 4096

    def setup(self) -> list[list[str]]:
        return [
            ["project", "--builder", f"line:{self.size}", "--random", "--seed", str(s)]
            for s in op_seeds(self.seed, POOL)
        ]

    def op(self, argv: list[str]) -> str:
        return call_cli(argv)

    def check(self, argv: list[str], output: str) -> bool:
        return checks.printed_matches(output, *_line_reference(self.size, int(argv[-1])))


@functools.lru_cache(maxsize=POOL)
def _line_reference(n: int, seed: int) -> tuple[complex, int]:
    """Reference for ``project --builder line:n --random --seed seed``."""
    from latticeproj import ProjectionSpec

    spec = ProjectionSpec.random(n, np.random.default_rng(seed))
    return checks.line_reference(spec.c, spec.s)


class MbqcVerify(Workload):
    """Five-wire CPhase chain: compile, check the action matrix, tie back."""

    name = "mbqc-verify"
    # The op runs mostly in numpy: two-thread BLAS contractions and fresh
    # 16-32 MB arrays.  The single-thread interpreter mix does not track its
    # speed; over ten seeds the median op read IQR/median 0.09 raw against
    # 0.17 adjusted, and 0.12 against 0.24 over five more.
    host_adjusted = False

    def setup(self) -> list[tuple[Path, str]]:
        rng = np.random.default_rng(self.seed)
        self.workdir.mkdir(parents=True, exist_ok=True)
        inputs = []
        for i in range(MBQC_POOL):
            circuit = self.workdir / f"chain{i}.txt"
            circuit.write_text(cphase_chain(rng))
            inputs.append((circuit, str(self.workdir / f"chain{i}")))
        return inputs

    def op(self, inp: tuple[Path, str]) -> tuple[Any, np.ndarray, str]:
        from latticeproj import compile_circuit, parse_circuit, pattern_action_matrix

        circuit, prefix = inp
        call_cli(["compile", "--circuit", str(circuit), "--out", prefix])
        pattern = compile_circuit(parse_circuit(circuit.read_text()))
        action = pattern_action_matrix(pattern)
        printed = call_cli(["project", "--graph", prefix + ".graph", "--angles", prefix + ".angles"])
        return pattern, action, printed

    def check(self, inp: Any, output: tuple[Any, np.ndarray, str]) -> bool:
        pattern, action, printed = output
        if not checks.pattern_action_ok(action, pattern.semantics):
            return False
        return checks.printed_matches(printed, checks.pattern_tie_back(action, pattern.measurements))


WORKLOADS = {w.name: w for w in (LatticeVerify, LineProject, OracleVerify, MbqcVerify)}


# ---------------------------------------------------------------------------
# running one op


def run_in_fork(fn, tracer=None, op_index: int = 0) -> tuple[bool, Any, float]:
    """Run ``fn()`` in a child forked from this process.

    Returns (True, payload, t) when the child reported back, where payload
    holds ``ok``, ``output`` and, when traced, the child's spans and counters;
    or (False, message, t) when it died without reporting.  ``t`` is the
    ``perf_counter`` time at which the parent held the result: the child's
    teardown, which the parent waits for next, is not part of the op.  The
    child leaves with ``os._exit`` so that nothing of the parent's state is
    flushed or torn down twice.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        payload: dict = {}
        try:
            if tracer is not None:
                tracer.clear_records()
                tracer.begin_op(op_index)
            try:
                payload["output"] = fn()
                payload["ok"] = True
            except Exception as exc:  # the op's failure is data for the parent
                payload = {"ok": False, "output": repr(exc)}
            if tracer is not None:
                tracer.end_op()
                payload["trace"] = tracer.records()
            data = json.dumps(payload).encode()
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(data)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    payload = json.loads(data) if data else None
    done = time.perf_counter()
    _, status = os.waitpid(pid, 0)
    if payload is None or os.waitstatus_to_exitcode(status) != 0:
        return False, f"forked op ended with status {status}", done
    return True, payload, done


def run_op(workload: Workload, inp: Any, tracer=None, op_index: int = 0) -> tuple[float, bool, Any]:
    """(seconds, ok, output) of one op, timed as its caller would see it."""
    start = time.perf_counter()
    if workload.fresh_process:
        ok, payload, done = run_in_fork(lambda: workload.op(inp), tracer, op_index)
        elapsed = done - start
        if not ok:
            return elapsed, False, payload
        if tracer is not None:
            tracer.merge_forked(payload["trace"], elapsed)
        return elapsed, payload["ok"], payload["output"]
    if tracer is not None:
        tracer.begin_op(op_index)
    try:
        output = workload.op(inp)
        ok = True
    except Exception as exc:  # counted in fail_frac, never fatal to the run
        output, ok = repr(exc), False
    finally:
        if tracer is not None:
            tracer.end_op()
    return time.perf_counter() - start, ok, output
