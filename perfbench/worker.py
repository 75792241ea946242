"""One workload in its own process: set up, warm up, closed loop, check.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --seconds S --setup-only

``run.py`` starts this process and reads the JSON report it prints as its
last line of standard output.  One client runs a closed loop: the next op
starts when the previous one has finished, with no extra threads.  With ``--trace 1`` untraced and traced ops alternate,
followed by the applicability probe; the per-layer metrics come from the
traced ops, and the tracing overhead from comparing the two kinds.
Op times and span self times are reported adjusted for the host's CPU speed
(see hostspeed.py), except on workloads that set ``host_adjusted = False``
(and ``op_tail_ms`` where they set ``tail_adjusted = False``); the raw op
times are kept in the run record.
``--setup-only`` stops once the workload's inputs exist; ``run.py`` times
that from a fresh interpreter as the set-up cost.

Memory is reported as ``peak_alloc_mb``: the peak of what one op allocates
(Python objects and numpy buffers, as ``tracemalloc`` counts them), measured
after the timed loop on a further op outside it.  The process's
``ru_maxrss`` is kept as ``peak_rss_mb`` in the table and the run record
but is not a metric: on mbqc-verify it reads ~102 or ~134 MB for the same
code, depending on whether glibc trims a ~32 MB free block at the top of the
heap that sits right at its trim threshold.  Which way it goes is decided by
a few bytes of heap layout set before the first op, for instance by the size
of the environment of the process that starts the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from typing import Any, NamedTuple

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TAIL_WINDOW = 150  # ops per window of the tail, see latency()


def import_program() -> None:
    """Import ``latticeproj.cli`` from this checkout's ``src``, nowhere else."""
    if not (SRC / "latticeproj" / "__init__.py").is_file():
        raise SystemExit(f"error: no latticeproj sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import latticeproj
    import latticeproj.cli  # noqa: F401  (the import set-up pays for)

    if SRC.resolve() not in Path(latticeproj.__file__).resolve().parents:
        raise SystemExit(f"error: latticeproj imported from {latticeproj.__file__}, not {SRC}")


class OpResult(NamedTuple):
    seconds: float  # raw wall time
    adjusted: float  # seconds * host-speed factor, see hostspeed.py
    ok: bool
    inp: Any
    output: Any
    traced: bool


def closed_loop(workload, inputs, seconds: float, tracer=None, first: int = 0) -> list[OpResult]:
    """Ops back to back within ``seconds``, host-speed samples in between.

    At least one op runs; another starts only if one more op as long as the
    last would still end within ``seconds``.  Given a tracer, every second op
    runs traced (installed just before it, removed just after), so traced and
    untraced ops see the same host drift; at least one of each runs.
    """
    from workloads import run_op

    speed = hostspeed.SpeedTrace()
    speed.sample()
    ops = []
    start = time.perf_counter()
    i = n_traced = 0
    while True:
        inp = inputs[(first + i) % len(inputs)]
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        op_start = time.perf_counter()
        try:
            dt, ok, output = run_op(workload, inp, tracer if traced else None, n_traced)
        finally:
            if traced:
                tracer.uninstall()
        ops.append((op_start, dt, ok, inp, output, traced))
        i += 1
        n_traced += traced
        done = time.perf_counter() - start + dt > seconds and (tracer is None or i >= 2)
        if done or speed.due():
            speed.sample()
        if done:
            break
    if not workload.host_adjusted:
        return [OpResult(dt, dt, *rest) for _, dt, *rest in ops]
    return [OpResult(dt, dt * speed.factor(t0, t0 + dt), *rest) for t0, dt, *rest in ops]


def window_tail(times: list[float]) -> tuple[float, int]:
    """(value, index) of the highest nearest-rank percentile with >= 10 ops
    beyond it; below 21 ops, where no percentile above the median has 10 ops
    beyond it, the median."""
    t = sorted(times)
    k = len(t) - 11 if len(t) >= 21 else (len(t) - 1) // 2
    return max(t[k], statistics.median(t)), k


def latency(times: list[float]) -> dict:
    """Median, and the tail: the median over windows of the run of each
    window's ``window_tail``.

    ``times`` are in the order the ops ran.  The run is cut into consecutive
    windows of at least ``TAIL_WINDOW`` ops (one window if it is shorter).
    The tail of the whole run is the 11th-slowest op, which on a shared host
    is set by whichever burst of load the run met: on oracle-verify (~900
    ops of ~27 ms) it spread 0.31 and 0.16 (IQR/median) over two sets of
    ten seeds, against 0.12 and 0.04 for the median over windows of 150.
    ``tail_percentile`` and ``beyond`` describe one window; ``run_tail_ms``
    keeps the whole run's tail.
    """
    n = len(times)
    windows = max(1, n // TAIL_WINDOW)
    size = n / windows
    tails = [window_tail(times[round(i * size):round((i + 1) * size)]) for i in range(windows)]
    k, first = tails[0][1], round(size)
    run_tail, run_k = window_tail(times)
    return {
        "n": n,
        "p50_ms": 1000.0 * statistics.median(times),
        "tail_ms": 1000.0 * statistics.median(v for v, _ in tails),
        "tail_windows": windows,
        "window_n": first,
        "tail_percentile": 100.0 * (k + 1) / first,
        "beyond": first - 1 - k,
        "run_tail_ms": 1000.0 * run_tail,
        "run_tail_percentile": 100.0 * (run_k + 1) / n,
    }


def check_all(workload, results) -> tuple[int, int, list[str]]:
    """(failed, wrong, first few failure messages) over the loop's results."""
    failed = wrong = 0
    errors = []
    for _, _, ok, inp, output, _ in results:
        if not ok:
            failed += 1
            if len(errors) < 5:
                errors.append(str(output))
        elif not workload.check(inp, output):
            wrong += 1
    return failed, wrong, errors


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; forked op workers count as children
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def peak_alloc_mb(workload, inp) -> float:
    """Peak MB allocated while ``workload.op(inp)`` runs, as tracemalloc counts it.

    numpy reports its array buffers to tracemalloc, so this covers them with
    the Python objects; it does not depend on how the allocator lays out or
    returns memory.  In a warm process the op is warm; a workload whose ops
    run in forked children has never run one in this process, so it is cold,
    as those ops are.  A full collection first puts the collector's
    thresholds at the same point whatever ran before, so that the op's cyclic
    garbage (argparse parsers, for one) is freed at the same moments; without
    it the peak on lattice-verify varies by up to 18% with the ops run before.
    """
    gc.collect()
    tracemalloc.start()
    try:
        workload.op(inp)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def run_record(args) -> dict:
    import numpy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "latticeproj").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_model": "closed loop, one client, one op in flight",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed, OUT / f"{args.workload}-{args.seed}")
    inputs = workload.setup()
    if args.setup_only:
        return 0

    closed_loop(workload, inputs, 0.0)  # one warm-up op, discarded
    record = run_record(args)
    if not args.trace:
        results = closed_loop(workload, inputs, args.seconds, first=1)
        lat = latency([r.adjusted for r in results])
        raw = latency([r.seconds for r in results])
        metrics = {
            "ops_per_s": (len(results) / sum(r.adjusted for r in results), "1/s"),
            "op_p50_ms": (lat["p50_ms"], "ms"),
            "op_tail_ms": ((lat if workload.tail_adjusted else raw)["tail_ms"], "ms"),
        }
        record.update(
            latency=lat,
            raw={"ops_per_s": len(results) / sum(r.seconds for r in results),
                 "op_p50_ms": raw["p50_ms"], "op_tail_ms": raw["tail_ms"]},
            op_ms=[1000.0 * r.seconds for r in results],
            op_adjusted_ms=[1000.0 * r.adjusted for r in results],
        )
        rss_mb = peak_rss_mb()  # before tracemalloc adds its own tables
        metrics["peak_alloc_mb"] = (peak_alloc_mb(workload, inputs[0]), "MB")
    else:
        from probe import run_probe
        from tracing import ROOT_METRIC, Tracer

        tracer = Tracer()
        results = closed_loop(workload, inputs, args.seconds, tracer, first=1)
        untraced = [r for r in results if not r.traced]
        traced = [r for r in results if r.traced]
        lat_u = latency([r.adjusted for r in untraced])
        lat_t = latency([r.adjusted for r in traced])
        factors = [r.adjusted / r.seconds for r in traced]
        metrics = tracer.layer_metrics(factors)
        metrics["trace.overhead_frac"] = ((lat_t["p50_ms"] - lat_u["p50_ms"]) / lat_u["p50_ms"], "ratio")
        probe = run_probe(args.seed)
        metrics["probe.engines_run"] = (probe["engines_run"], "count")
        metrics["probe.engine_failures"] = (probe["engine_failures"], "count")
        metrics["probe.zero_amplitudes"] = (probe["zero_amplitudes"], "count")
        # share of each traced op in the program's layers: all but the harness's
        # own self time and the tracer's hooks
        shares = [(sum(c.values()) - c[ROOT_METRIC]) / r.adjusted
                  for c, r in zip(tracer.per_op_self_s(factors), traced)]
        record.update(
            latency_untraced=lat_u,
            latency_traced=lat_t,
            accounting={
                "named_share_p50": statistics.median(shares),
                "named_share_min": min(shares),
                "bench_self_ms": metrics[ROOT_METRIC][0],
                "hook_ms_per_op": 1000.0 * tracer.hook_s / len(traced),
                "untraced_p50_ms": lat_u["p50_ms"],
                "traced_p50_ms": lat_t["p50_ms"],
            },
            missing_targets=tracer.missing,
            probe=probe,
        )
        OUT.mkdir(parents=True, exist_ok=True)
        with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)

    failed, wrong, errors = check_all(workload, results)
    attempted = len(results)
    record.update(attempted=attempted, failed=failed, wrong=wrong, errors=errors)
    fractions = {
        "fail_frac": (failed / attempted, "ratio"),
        "wrong_frac": (wrong / attempted, "ratio"),
    }
    if args.trace:
        metrics.update({"check." + k: v for k, v in fractions.items()})
    else:
        record["ungated"] = {"peak_rss_mb": (rss_mb, "MB"), **fractions}
    report = {
        "correct": failed == 0 and wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "record": record,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
