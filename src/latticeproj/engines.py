"""Uniform front door over the six amplitude engines.

Engine names (as used by the CLI): statevector, direct-sum, sweep,
line-recursion, cross-recursion, column.  The specialized engines demand
their graph family in canonical indexing; `applicable_engines` reports what
fits a given graph.
"""

from __future__ import annotations

from functools import lru_cache

from .errors import LatticeProjError, NotALattice, OddCycle, SizeMismatch
from .evaluate import (
    COLUMN_ROW_CAP,
    EvalReport,
    column_evaluate,
    cross_chain_recursion,
    frontier_plan,
    line_amplitude,
    sweep_evaluate,
)
from .factorize import ProjectionSpec, build_polynomial, order_factors
from .graph import (
    ClusterGraph,
    assign_slots,
    bipartition,
    detect_cross_chain,
    detect_lattice,
    detect_line,
)
from .oracle import (
    DIRECT_SUM_CONTROL_CAP,
    build_statevector,
    direct_sum,
    project_statevector,
    statevector_cap,
)

ENGINE_NAMES = (
    "statevector",
    "direct-sum",
    "sweep",
    "line-recursion",
    "cross-recursion",
    "column",
)


@lru_cache(maxsize=64)
def _sweep_structure(g: ClusterGraph, ordering: str):
    # Words, slots, activity and the frontier plan depend on the graph alone;
    # cache them and bind each projection's spec to a clone.  The all-zero
    # spec here is never evaluated.
    try:
        assignment = assign_slots(g, "bipartite")
    except OddCycle:
        assignment = assign_slots(g, "greedy-cover")
    poly = build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0), assignment)
    poly = order_factors(poly, ordering)
    frontier_plan(poly)
    return poly


def sweep_polynomial(
    g: ClusterGraph, spec: ProjectionSpec, ordering: str = "auto"
):
    """Build the ordered polynomial the sweep engine actually runs.

    The slot assignment is bipartite when the graph allows it, greedy cover
    otherwise.  ``ordering`` is any order_factors strategy; ``auto`` (the
    min-frontier search) is decided there, once per graph, and cached with
    the structure; the result is a bind_spec clone of that shared structure.
    """
    return _sweep_structure(g, ordering).bind_spec(spec)


def compute_amplitude(
    g: ClusterGraph,
    spec: ProjectionSpec,
    engine: str,
    ordering: str = "auto",
) -> EvalReport:
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    if engine == "statevector":
        sv = build_statevector(g)
        amplitude = project_statevector(sv, spec)
        # fold multiplies: 2*(2^n - 1); merges: 2^n - 1
        dim = 1 << g.n
        return EvalReport(amplitude, dim, dim - 1, 2 * (dim - 1))
    if engine == "direct-sum":
        b = bipartition(g)
        amplitude = direct_sum(g, b, spec)
        k = len(b.controls)
        terms = 1 << k
        return EvalReport(amplitude, terms, terms - 1, terms * (k + len(b.targets) + 1))
    if engine == "sweep":
        return sweep_evaluate(sweep_polynomial(g, spec, ordering))
    if engine == "line-recursion":
        if not detect_line(g):
            raise LatticeProjError("line-recursion needs a canonical line graph")
        return line_amplitude(spec)
    if engine == "cross-recursion":
        if detect_cross_chain(g) is None:
            raise LatticeProjError("cross-recursion needs a canonical cross chain")
        return cross_chain_recursion(spec)
    if engine == "column":
        if detect_lattice(g) is None:
            raise NotALattice("column engine needs a canonical cross lattice")
        return column_evaluate(g, spec)
    raise LatticeProjError(f"unknown engine {engine!r}")


def applicable_engines(g: ClusterGraph) -> list[str]:
    """Engines that fit this graph, within the statevector, direct-sum and column caps."""
    engines = []
    if g.n <= statevector_cap():
        engines.append("statevector")
    try:
        b = bipartition(g)
        if len(b.controls) <= DIRECT_SUM_CONTROL_CAP:
            engines.append("direct-sum")
    except OddCycle:
        pass
    engines.append("sweep")
    if detect_line(g):
        engines.append("line-recursion")
    if detect_cross_chain(g) is not None:
        engines.append("cross-recursion")
    shape = detect_lattice(g)
    if shape is not None and shape[0] <= COLUMN_ROW_CAP:
        engines.append("column")
    return engines
