"""Margins of acceptance criterion 8 over fresh interpreters.

    python3 scripts/criterion8_margins.py --runs 20

Runs ``cli.bench_fig10(25, 0)`` in N fresh interpreters, one after another,
each importing the checkout's ``src/`` ahead of any PYTHONPATH it inherits,
and prints the median and minimum of the two numbers the criterion rests
on: the 12-qubit statevector/sweep median-time ratio (it must stay >= 1)
and the statevector growth margin ``inc_large - inc_small`` (the second
log-step of the statevector's time minus the first; it must stay > 0).
A run passes when both hold and the line recursion is no slower than the
sweep at 12 qubits, as ``tests/test_acceptance.py`` asserts.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

CHILD = """
import json
from latticeproj.cli import bench_fig10
rows = bench_fig10(25, 0)
print(json.dumps({r["graph"] + "/" + r["engine"]: float(r["median_s"]) for r in rows}))
"""


def margins(med: dict[str, float]) -> tuple[float, float, bool]:
    """(12-qubit statevector/sweep ratio, growth margin, criterion passes)."""
    a, b, c = "fig10_a4.graph", "fig10_b7.graph", "fig10_c12.graph"
    ratio = med[f"{c}/statevector"] / med[f"{c}/sweep"]
    inc_small = math.log(med[f"{b}/statevector"]) - math.log(med[f"{a}/statevector"])
    inc_large = math.log(med[f"{c}/statevector"]) - math.log(med[f"{b}/statevector"])
    margin = inc_large - inc_small
    ordered = med[f"{c}/line-recursion"] <= med[f"{c}/sweep"] <= med[f"{c}/statevector"]
    return ratio, margin, ordered and margin > 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=20, help="fresh interpreters to run")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be at least 1")

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    ratios, gaps, passed = [], [], 0
    for i in range(args.runs):
        out = subprocess.run(
            [sys.executable, "-c", CHILD], capture_output=True, text=True, check=True, env=env
        )
        ratio, margin, ok = margins(json.loads(out.stdout))
        ratios.append(ratio)
        gaps.append(margin)
        passed += ok
        print(f"run {i + 1}: ratio {ratio:.3f} margin {margin:.3f} {'pass' if ok else 'FAIL'}")
    print(f"ratio  median {statistics.median(ratios):.3f} min {min(ratios):.3f}")
    print(f"margin median {statistics.median(gaps):.3f} min {min(gaps):.3f}")
    print(f"passed {passed} of {args.runs}")
    return 0 if passed == args.runs else 1


if __name__ == "__main__":
    sys.exit(main())
