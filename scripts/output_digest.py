"""Short digests of the CLI's outputs, one line per command of a fixed corpus.

    python3 scripts/output_digest.py

Each line reads ``<exit code> <digest> <command>``: the first 16 hex digits
of a SHA-256 over what ``latticeproj.cli.main(command)`` wrote to stdout
and stderr, then the bytes of every file it wrote.  A command that argparse
ends with ``SystemExit`` records that exit's code.  The commands run in
this process, one after another, with a temporary directory as the working
directory; it reads ``{tmp}`` in the commands and in their stdout and
stderr, and the files a command writes stay there for the commands after
it.  Help pages are wrapped at 80 columns.  Run it in two checkouts and
diff the outputs to see whether a change left every amplitude, CSV,
compiled pattern and message byte for byte the same.

The corpus: ``verify`` of 31 trials on the lattice, fixture, cross-chain
and line shapes and on a 16-qubit graph with odd cycles (so the statevector
checks the sweep over its greedy-cover owners); ``verify`` of one trial on
``lattice:3x10`` and ``fivecross_17`` (a lone spec, which every engine
evaluates alone) and of two on ``lattice:2x2`` (the smallest batch); the
``lattice-width`` bench (the one suite without wall-clock columns);
``project`` on the line, cross and column engines and the sweep, and on
a missing ``--graph`` path in a missing directory (which must exit 2, not
load the packaged fixture of that basename); ``compile`` of a five-wire
CPhase chain, then ``project`` on the pair it wrote; ``compile`` of 8200
``CZ 0 1`` lines, a 65602-qubit pattern past the graph qubit cap (which
must exit 2 and write no file, as ``project`` would refuse it); the usage,
help and argument errors of the top-level and a command's parser, and an
abbreviated flag; ``project`` on each form of a fixture's path (a missing
bare ``NAME``, ``./NAME``, ``fixtures/NAME``, ``./fixtures/NAME`` or
``NAME/`` loads the packaged fixture, and a missing ``sub/fixtures/NAME``
or absolute path exits 2); a graph file whose first bad edge is a
duplicate and whose later edge is a self-loop; and two pairs of builder
spellings of one graph run back to back, ``verify`` on ``cross:3`` then
``lattice:3x1`` and ``project`` on ``line:10`` then ``line:010``, whose
digests within each pair must be equal.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import Iterator
from unittest.mock import patch

if __name__ == "__main__":
    # this checkout's package, ahead of an installed copy or PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticeproj.cli import main as cli_main  # noqa: E402

# a 16-qubit path with chords 0-2, 5-9 and 3-12: odd cycles, so no bipartition
ODD_CYCLE_GRAPH = "# path plus three chords\n16\n" + "".join(
    f"{a} {b}\n" for a, b in [(q, q + 1) for q in range(15)] + [(0, 2), (5, 9), (3, 12)]
)
CPHASE_CHAIN = "".join(f"CPHASE {w} {w + 1} {0.4 + 0.7 * w!r}\n" for w in range(4))
OVER_CAP_CIRCUIT = "CZ 0 1\n" * 8200
# a duplicate edge, then a self-loop: the duplicate is reported
DUPLICATE_FIRST_GRAPH = "3\n0 1\n1 0\n1 1\n"
FIXTURE = "fivecross_17.graph"

VERIFY = ("--trials", "31", "--seed", "0")
PROJECT = ("--random", "--seed", "7")
CORPUS: tuple[tuple[str, ...], ...] = (
    ("verify", "--builder", "lattice:3x10", *VERIFY),
    ("verify", "--builder", "lattice:6x6", *VERIFY),
    ("verify", "--graph", "fivecross_17.graph", *VERIFY),
    ("verify", "--builder", "cross:8", *VERIFY),
    ("verify", "--builder", "line:200", *VERIFY),
    ("verify", "--graph", "{tmp}/odd16.graph", *VERIFY),
    ("verify", "--builder", "lattice:3x10", "--trials", "1", "--seed", "0"),
    ("verify", "--graph", "fivecross_17.graph", "--trials", "1", "--seed", "0"),
    ("verify", "--builder", "lattice:2x2", "--trials", "2", "--seed", "0"),
    ("bench", "--suite", "lattice-width"),
    ("project", "--builder", "line:4096", *PROJECT, "--engine", "line-recursion"),
    ("project", "--builder", "line:4096", *PROJECT, "--engine", "sweep"),
    ("project", "--builder", "cross:64", *PROJECT, "--engine", "cross-recursion"),
    ("project", "--builder", "lattice:3x10", *PROJECT, "--engine", "column"),
    ("project", "--builder", "lattice:3x10", *PROJECT, "--engine", "sweep"),
    ("project", "--graph", "{tmp}/no/fivecross_17.graph", "--angles", "all:0,0"),
    ("compile", "--circuit", "{tmp}/cphase5.txt", "--out", "{tmp}/cphase5"),
    ("project", "--graph", "{tmp}/cphase5.graph", "--angles", "{tmp}/cphase5.angles"),
    ("compile", "--circuit", "{tmp}/cz8200.txt", "--out", "{tmp}/cz8200"),
    (),
    ("--help",),
    ("nope",),
    ("verify", "--help"),
    ("verify", "--bogus"),
    ("project", "--seed", "x", "--builder", "line:3", "--random"),
    ("verify", "--builder", "line:3", "--tri", "1"),
    *(
        ("project", "--graph", form, "--angles", "all:0.3,0.1")
        for form in (
            FIXTURE, f"./{FIXTURE}", f"fixtures/{FIXTURE}", f"./fixtures/{FIXTURE}",
            f"{FIXTURE}/", f"sub/fixtures/{FIXTURE}", f"{{tmp}}/{FIXTURE}",
        )
    ),
    ("project", "--graph", "{tmp}/dup.graph", "--angles", "all:0,0"),
    # two spellings of one builder graph, back to back
    ("verify", "--builder", "cross:3", "--trials", "2", "--seed", "5"),
    ("verify", "--builder", "lattice:3x1", "--trials", "2", "--seed", "5"),
    ("project", "--builder", "line:10", *PROJECT),
    ("project", "--builder", "line:010", *PROJECT),
)


def digest_lines() -> Iterator[str]:
    """``<exit code> <digest> <command>`` for each command of the corpus."""
    with tempfile.TemporaryDirectory() as tmp, patch.dict(os.environ, COLUMNS="80"):
        root = Path(tmp)
        (root / "odd16.graph").write_text(ODD_CYCLE_GRAPH)
        (root / "cphase5.txt").write_text(CPHASE_CHAIN)
        (root / "cz8200.txt").write_text(OVER_CAP_CIRCUIT)
        (root / "dup.graph").write_text(DUPLICATE_FIRST_GRAPH)
        (root / "sub" / "fixtures").mkdir(parents=True)
        files = set(root.iterdir())
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for command in CORPUS:
                stdout, stderr = io.StringIO(), io.StringIO()
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    try:
                        code = cli_main([arg.replace("{tmp}", tmp) for arg in command])
                    except SystemExit as exc:
                        code = exc.code
                text = f"{stdout.getvalue()}\0{stderr.getvalue()}".replace(tmp, "{tmp}")
                h = hashlib.sha256(text.encode())
                for written in sorted(set(root.iterdir()) - files):
                    h.update(f"\0{written.name}\0".encode() + written.read_bytes())
                    files.add(written)
                yield f"{code} {h.hexdigest()[:16]} {' '.join(command)}"
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    for text in digest_lines():
        print(text)
