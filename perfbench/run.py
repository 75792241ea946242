"""latticeproj benchmark: seeded CLI workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.

Workloads (see BENCHMARK.json for why each was chosen):
  lattice-verify  verify --builder lattice:3x10 --trials 1, warm process
  oracle-verify   verify --graph fivecross_17.graph --trials 1, warm process
  mbqc-verify     compile a five-wire CPhase chain, check its action matrix
                  against the declared gate, tie one amplitude back via project
  line-project    project --builder line:4096 --random, each op in a process
                  forked after import (nothing cached, import paid in setup_s).
                  Not in BENCHMARK.json: every op prints 0.0 0.0 (the amplitude
                  underflows doubles), so it always reports correct = false.
                  It stays runnable to show that defect until it is fixed.

With ``--trace 0`` the last line reports the end-to-end metrics: setup_s
(median over fresh interpreters that import latticeproj.cli and generate the
inputs), ops_per_s, op_p50_ms, op_tail_ms and peak_alloc_mb (see
worker.py).  Op times are adjusted for the host's drifting CPU speed
(hostspeed.py; not setup_s, the ops of mbqc-verify or the tail of
oracle-verify); the table above the last line shows the raw values beside
them.  The table also shows peak_rss_mb, fail_frac and wrong_frac, which
are not in the last line: peak RSS is not reproducible (see worker.py), and the
two fractions are counted in ``failed`` and ``correct``.  With
``--trace 1`` it reports the per-layer metrics of a traced
run (spans placed by perfbench/tracing.py) and the applicability probe.
Spans and run records are written under ``.perfbench_out/``.

Exit status is 0 with a result, non-zero without one (for instance when the
checkout holds no ``src/latticeproj``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 5
DEADLINE_S = 170.0


def worker_cmd(args, *extra: str) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]


def run_worker(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    # subprocess.run kills and reaps the worker if it overruns
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:])} exited {proc.returncode}")
    return proc


def time_setup(args, deadline: float) -> list[float]:
    """Wall seconds of fresh interpreters that import and build the inputs.

    Not host-speed adjusted: start-up and import are bound by the file cache
    and the kernel, which the interpreter mix does not track.  Over two sets
    of ten seeds the adjusted median moved by up to 43% between sets, the raw
    one by at most 9%.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        run_worker(worker_cmd(args, "--setup-only"), deadline - time.monotonic())
        samples.append(time.perf_counter() - start)
    return samples


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "latticeproj" / "__init__.py").is_file():
        print(f"error: no latticeproj sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        setup = [] if args.trace else time_setup(args, deadline)
        proc = run_worker(worker_cmd(args, "--trace", str(args.trace)), deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    report = json.loads(proc.stdout.splitlines()[-1])
    record = report.pop("record")
    if setup:
        report["metrics"] = {"setup_s": {"value": statistics.median(setup), "unit": "s"},
                             **report["metrics"]}
        record["setup_samples_s"] = setup
        record["raw"]["setup_s"] = statistics.median(setup)

    raw = record.get("raw", {})
    print(f"{'metric':34s} {'value':>16s} {'raw':>12s}")
    for name, m in report["metrics"].items():
        raw_value = f"{raw[name]:12.6g}" if name in raw else ""
        print(f"{name:34s} {m['value']:>16.6g} {raw_value:>12s} {m['unit']}")
    for name, (value, unit) in record.get("ungated", {}).items():
        print(f"{name:34s} {value:>16.6g} {'':>12s} {unit}")
    print(f"{'correct':34s} {str(report['correct']):>16s}  "
          f"({report['attempted']} attempted, {report['failed']} failed, {record['wrong']} wrong)")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**report, "record": record}, indent=1)
    )
    for key in ("op_ms", "op_adjusted_ms"):  # kept in the record file only
        record.pop(key, None)
    print("record " + json.dumps(record))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
