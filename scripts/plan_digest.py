"""Short digests of the sweep's frontier plans, one line per (graph, order).

    python3 scripts/plan_digest.py            # the full corpus
    python3 scripts/plan_digest.py --small    # the corpus the tests record

Each line reads ``<graph> <order> <digest>``: the first 16 hex digits of a
SHA-256 over every FrontierPlan field, each array by its dtype, shape and
bytes and every other field by its repr.  Run it in two checkouts and diff
the outputs to see whether a change left every plan byte for byte the same.

Orders: ``as-built`` (qubit index order), ``worked-out`` (order_factors'
min-frontier search, the one the sweep engine runs), ``row-major`` (on
lattices), ``random`` (a seeded permutation, up to RANDOM_ORDER_QUBITS
qubits) and ``every-owner`` (as-built, every qubit owning its slot, as MBQC
patterns are run).  Patterns are planned with their input and output slots
left open, as ``mbqc.pattern_action_matrix`` plans them.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys
from pathlib import Path
from typing import Iterator

import numpy as np

if __name__ == "__main__":
    # this checkout's package, ahead of an installed copy or PYTHONPATH
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from latticeproj import mbqc  # noqa: E402
from latticeproj.evaluate import _build_plan  # noqa: E402
from latticeproj.factorize import ProjectionSpec, build_polynomial, order_factors  # noqa: E402
from latticeproj.graph import (  # noqa: E402
    assign_slots,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    graph_family,
    lattice_row_major_order,
    load_graph,
)

RANDOM_ORDER_QUBITS = 300
ALL_ORDERS = ("as-built", "worked-out", "row-major", "random", "every-owner")
SMALL_ORDERS = ("as-built", "worked-out", "row-major")


def plan_digest(plan) -> str:
    h = hashlib.sha256()
    for field in dataclasses.fields(plan):
        value = getattr(plan, field.name)
        if isinstance(value, np.ndarray):
            h.update(f"{field.name} {value.dtype.str} {value.shape}".encode())
            h.update(value.tobytes())
        else:
            h.update(f"{field.name} {value!r}".encode())
    return h.hexdigest()[:16]


def _fixtures():
    for path in sorted(fixture_path("line_4.graph").parent.glob("*.graph")):
        yield path.name, load_graph(path)


def _random_graphs(count: int, seed: int = 0):
    """Graphs of 1-13 qubits, odd cycles and isolated qubits among them."""
    rng = np.random.default_rng(seed)
    for index in range(count):
        n = int(rng.integers(1, 14))
        pairs = [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        yield f"random:{index}", build_from_edges(n, pairs)


def _order(g, name: str, seed: int):
    """The polynomial of g in the named order, or None where it does not apply."""
    if name == "row-major":
        shape = graph_family(g).lattice
        if shape is None:
            return None
        qubits = lattice_row_major_order(*shape)
    elif name == "random":
        if g.n > RANDOM_ORDER_QUBITS:
            return None
        qubits = np.random.default_rng(seed).permutation(g.n).tolist()
    else:
        qubits = list(range(g.n))
    owners = range(g.n) if name == "every-owner" else None
    poly = build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0), assign_slots(g, owners))
    return order_factors(poly, None if name == "worked-out" else qubits)


def _patterns(small: bool):
    five_wire = mbqc.compile_circuit(
        [mbqc.Gate("CPHASE", (a, a + 1), 0.5 + a) for a in range(4)]
    )
    yield "cphase-chain:5", five_wire
    if not small:
        yield "cnot-ladder:8", mbqc.compile_circuit(
            [mbqc.Gate("CNOT", (a, a + 1)) for a in range(7)]
        )
        yield "rz", mbqc.compile_z_rotation(0.3)
        yield "rotation", mbqc.compile_rotation(0.1, 0.2, 0.3)
        yield "cnot", mbqc.compile_cnot()
        yield "cphase", mbqc.compile_cphase(0.4)
        yield "cphase-exact", mbqc.compile_cphase_exact(0.4)


def corpus(small: bool = False):
    """(graph name, graph, order names) of the corpus."""
    for name, g in _fixtures():
        yield name, g, SMALL_ORDERS if small else ALL_ORDERS
    sides = range(1, 5) if small else range(1, 9)
    shapes = [(m, n) for m in sides for n in sides] + ([] if small else [(9, 9), (14, 14)])
    for m, n in shapes:
        yield f"lattice:{m}x{n}", build_lattice(m, n), SMALL_ORDERS if small else ALL_ORDERS
    if small:
        yield "line:200", build_line(200), SMALL_ORDERS
        yield "cross:20", build_cross_chain(20), SMALL_ORDERS
        return
    for n in list(range(1, 13)) + [200, 4096]:
        yield f"line:{n}", build_line(n), ALL_ORDERS
    for k in list(range(1, 31)) + [1364]:
        yield f"cross:{k}", build_cross_chain(k), ALL_ORDERS
    for name, g in _random_graphs(400):
        yield name, g, ALL_ORDERS


def digest_lines(small: bool = False) -> Iterator[str]:
    """``<graph> <order> <digest>`` for each plan of the corpus."""
    for seed, (name, g, orders) in enumerate(corpus(small)):
        for order in orders:
            poly = _order(g, order, seed)
            if poly is not None:
                yield f"{name} {order} {plan_digest(_build_plan(poly))}"
    for name, pattern in _patterns(small):
        opened = pattern.inputs + tuple(q for q in pattern.outputs if q not in pattern.inputs)
        yield f"{name} open-slots {plan_digest(mbqc._pattern_plan(pattern.graph, opened))}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true", help="the corpus the tests record")
    args = parser.parse_args(argv)
    for text in digest_lines(args.small):
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
