"""The allocation peak of one warm CLI command, in KiB.

    python3 scripts/op_peak.py verify --builder lattice:3x10 --trials 1
    python3 scripts/op_peak.py verify --graph fivecross_17.graph --seed 0

Runs ``latticeproj.cli.main(ARGV)`` twice with stdout discarded, so that
imports, caches and plans are warm, then a full collection, then a third
run under ``tracemalloc``, and prints that run's peak.  The peak counts
Python objects and numpy buffers, as the benchmark's ``peak_alloc_mb`` does;
it does not depend on how the allocator lays out or returns memory.
"""

from __future__ import annotations

import contextlib
import gc
import io
import sys
import tracemalloc
from pathlib import Path

if __name__ == "__main__":
    # this checkout's package, ahead of an installed copy or PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticeproj import cli  # noqa: E402


def _run(argv: list[str]) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"error: {' '.join(argv)} exited {code}")


def op_peak_kib(argv: list[str]) -> float:
    """tracemalloc's peak over the third of three runs of ``cli.main(argv)``."""
    _run(argv)
    _run(argv)
    gc.collect()
    tracemalloc.start()
    try:
        _run(argv)
        return tracemalloc.get_traced_memory()[1] / 1024.0
    finally:
        tracemalloc.stop()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    print(f"{op_peak_kib(argv):.1f} KiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
