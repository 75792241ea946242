"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

1. The output checks flag a perturbed amplitude and an exact zero, and pass
   correct output (verify CSV, printed ``project`` output, MBQC action).
2. The benchmark's own references agree with the program where the program
   is known to be right: the line reference against ``project`` on a short
   line, and ``peak_active`` against ``max_active_slots``.
3. Two traced runs of each workload give identical counters, and in each
   the named layers (every self time but the harness's ``bench.self_ms``)
   account for the untraced ``op_p50_ms`` up to ``trace.overhead_frac``:
   traced ops take ``1 + overhead_frac`` times the untraced p50, and the
   named layers cover at least ``1 - ACCOUNT_TOL`` of the median traced op.
   The rest is the harness's own time (fork and pipe on line-project) and
   the tracer's hooks.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FAILURES: list[str] = []
TRACE_SECONDS = "10"
ACCOUNT_TOL = 0.05


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        FAILURES.append(what)


def _verify_csv(values: dict) -> str:
    header = ["trial", "seed"] + [f"{e}_{part}" for e in values for part in ("re", "im")]
    row = ["0", "0"] + [repr(getattr(v, part)) for v in values.values() for part in ("real", "imag")]
    return ",".join(header) + "\n" + ",".join(row) + "\n"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import checks
    from latticeproj import (
        ProjectionSpec,
        build_cross_chain,
        build_lattice,
        compile_circuit,
        max_active_slots,
        parse_circuit,
        pattern_action_matrix,
        sweep_polynomial,
    )
    from tracing import peak_active
    from workloads import WORKLOADS, call_cli, cphase_chain

    # 1. checks flag wrong amplitudes at any magnitude
    amp = complex(2.1863495204842336e-12, 4.859318403016115e-12)
    good = {"sweep": amp, "column": amp * (1 + 3e-15)}
    expect(checks.verify_csv_ok(_verify_csv(good)), "verify CSV: engines agreeing to 3e-15 pass")
    expect(not checks.verify_csv_ok(_verify_csv({**good, "column": amp * (1 + 1e-6)})),
           "verify CSV: an amplitude perturbed by 1e-6 relative is flagged (CLI tolerance misses it)")
    expect(not checks.verify_csv_ok(_verify_csv({**good, "column": 0j})),
           "verify CSV: one engine returning an exact zero is flagged")
    expect(not checks.verify_csv_ok(_verify_csv({"sweep": 0j, "column": 0j})),
           "verify CSV: all engines agreeing on an exact zero is flagged")

    mantissa, scale = complex(-0.71234567891234, 0.3), -2100
    for zero in ("0.0 0.0", "-0.0 0.0", "0 0"):
        expect(not checks.printed_matches(zero, mantissa, scale), f"project: printed {zero!r} is flagged")
    spec = ProjectionSpec.random(40, np.random.default_rng(5))
    ref_m, ref_e = checks.line_reference(spec.c, spec.s)
    ref = ref_m * 2.0**ref_e
    out = call_cli(["project", "--builder", "line:40", "--random", "--seed", "5"])
    expect(checks.printed_matches(out, ref_m, ref_e), f"project line:40 matches the line reference ({out.strip()})")
    bumped = f"{ref.real * (1 + 1e-8):.10g} {ref.imag:.10g}"
    expect(not checks.printed_matches(bumped, ref_m, ref_e), "project: a 1e-8 relative error is flagged")
    spec = ProjectionSpec.random(4096, np.random.default_rng(7))
    big_m, big_e = checks.line_reference(spec.c, spec.s)
    expect(big_m != 0 and big_e < -1074, f"line:4096 reference is non-zero, 2^{big_e} scale, below doubles")

    pattern = compile_circuit(parse_circuit(cphase_chain(np.random.default_rng(3))))
    action = pattern_action_matrix(pattern)
    expect(checks.pattern_action_ok(action, pattern.semantics), "mbqc: simulated action aligns with declared gate")
    skewed = action.copy()
    skewed[0, 0] *= 1 + 1e-6
    expect(not checks.pattern_action_ok(skewed, pattern.semantics), "mbqc: a perturbed action entry is flagged")
    tie = checks.pattern_tie_back(action, pattern.measurements)
    expect(checks.printed_matches(f"{tie.real:.10g} {tie.imag:.10g}", tie), "mbqc: tie-back value passes")
    expect(not checks.printed_matches(f"{tie.real:.10g} {-tie.imag:.10g}", tie),
           "mbqc: a conjugated tie-back value is flagged")

    # 2. the benchmark's own interval sweep matches the program's counter
    for name, g in (("cross:8", build_cross_chain(8)), ("lattice:3x4", build_lattice(3, 4)),
                    ("cphase-chain-5", pattern.graph)):
        poly = sweep_polynomial(g, ProjectionSpec.random(g.n, np.random.default_rng(0)))
        expect(peak_active(poly.activity) == max_active_slots(poly), f"peak_active == max_active_slots on {name}")

    # 3. counters repeat exactly between two traced runs; layers account for the op
    for workload in WORKLOADS:
        runs = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
                 "--seconds", TRACE_SECONDS, "--trace", "1"],
                cwd=ROOT, capture_output=True, text=True, timeout=180,
            )
            if proc.returncode != 0:
                expect(False, f"{workload}: traced run exited {proc.returncode}")
                continue
            *_, record_line, result_line = proc.stdout.splitlines()
            result = json.loads(result_line)["metrics"]
            overhead = result["trace.overhead_frac"]["value"]
            runs.append({k: m["value"] for k, m in result.items() if m["unit"] in ("count", "bytes")})
            acc = json.loads(record_line.removeprefix("record "))["accounting"]
            expect(acc["named_share_p50"] >= 1 - ACCOUNT_TOL,
                   f"{workload}: named layers cover {acc['named_share_p50']:.4f} of the median traced op "
                   f"(min {acc['named_share_min']:.4f}); traced p50 {acc['traced_p50_ms']:.4g} ms = "
                   f"untraced p50 {acc['untraced_p50_ms']:.4g} ms x (1 {overhead:+.3f})")
        same = len(runs) == 2 and runs[0] == runs[1]
        expect(same, f"{workload}: counters of two traced runs are identical ({len(runs[0]) if runs else 0} counters)")

    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
