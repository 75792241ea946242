"""One table of amplitude engines: what each one fits, and how it evaluates.

``ENGINES`` maps every engine name the CLI takes to an ``Engine`` row.
``misfit(g)`` is None when the engine fits the graph within its cap, else
the LatticeProjError that says why not; ``evaluate(g, spec)`` is the
engine's EvalReport.  ``ENGINE_NAMES``, ``applicable_engines``,
``compute_amplitude`` and the CLI all read this table.  Direct-sum and the
family rows read ``graph.graph_family``, detected once per distinct graph;
the sweep always runs the ``auto`` factor order and reads that order's
frontier width from its cached structure, known before anything is
allocated.  The oracles keep their own graph-only work: the statevector
row's vector is built once per graph (``build_statevector`` holds the last
graph's, and reads the cap on every call), and direct-sum's partition checks
and target masks once per (graph, bipartition).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .errors import (
    ColumnTooWide,
    LatticeProjError,
    NotALattice,
    NotBipartite,
    OddCycle,
    SizeMismatch,
    TooLarge,
    TooManyControls,
)
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
from .graph import ClusterGraph, assign_slots, graph_family
from .oracle import (
    DIRECT_SUM_CONTROL_CAP,
    build_statevector,
    direct_sum,
    project_statevector,
    statevector_cap,
)

# Most frontier axes the sweep allocates: 2^24 complex entries, 256 MiB.
SWEEP_WIDTH_CAP = 24


@lru_cache(maxsize=64)
def _sweep_structure(g: ClusterGraph):
    # Words, slots, activity, the auto order and the frontier plan depend on
    # the graph alone; cache them and bind each projection's spec to a
    # clone.  The all-zero spec here is never evaluated.
    try:
        assignment = assign_slots(g, "bipartite")
    except OddCycle:
        assignment = assign_slots(g, "greedy-cover")
    poly = build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0), assignment)
    poly = order_factors(poly, "auto")
    frontier_plan(poly)
    return poly


def sweep_polynomial(g: ClusterGraph, spec: ProjectionSpec):
    """Build the ordered polynomial the sweep engine actually runs.

    The slot assignment is bipartite when the graph allows it, greedy cover
    otherwise, and the factor order is ``auto`` (the min-frontier search);
    both are decided once per graph and cached with the structure.  The
    result is a bind_spec clone of that shared structure.
    """
    return _sweep_structure(g).bind_spec(spec)


def _too_wide(g: ClusterGraph) -> Optional[LatticeProjError]:
    width = frontier_plan(_sweep_structure(g)).width
    if width <= SWEEP_WIDTH_CAP:
        return None
    return TooLarge(
        f"the sweep frontier has width {width}, above the cap of {SWEEP_WIDTH_CAP}: "
        f"2^{width} x 16 = {16 << width} bytes"
    )


def _over_cap(count: int, cap: int, what: str, error: type) -> Optional[LatticeProjError]:
    return error(f"{count} {what}, above the cap of {cap}") if count > cap else None


def _statevector(g: ClusterGraph, spec: ProjectionSpec) -> EvalReport:
    amplitude = project_statevector(build_statevector(g), spec)
    # fold multiplies: 2*(2^n - 1); merges: 2^n - 1
    dim = 1 << g.n
    return EvalReport(amplitude, dim, dim - 1, 2 * (dim - 1))


def _direct_sum_misfit(g: ClusterGraph) -> Optional[LatticeProjError]:
    b = graph_family(g).bipartition
    if b is None:
        return NotBipartite("direct-sum needs a bipartite graph")
    return _over_cap(len(b.controls), DIRECT_SUM_CONTROL_CAP, "control qubits", TooManyControls)


def _direct_sum(g: ClusterGraph, spec: ProjectionSpec) -> EvalReport:
    b = graph_family(g).bipartition
    amplitude = direct_sum(g, b, spec)
    k = len(b.controls)
    terms = 1 << k
    return EvalReport(amplitude, terms, terms - 1, terms * (k + len(b.targets) + 1))


def _column_misfit(g: ClusterGraph) -> Optional[LatticeProjError]:
    shape = graph_family(g).lattice
    if shape is None:
        return NotALattice("column needs a canonical cross lattice")
    return _over_cap(shape[0], COLUMN_ROW_CAP, "rows", ColumnTooWide)


class Engine(NamedTuple):
    misfit: Callable[[ClusterGraph], Optional[LatticeProjError]]
    evaluate: Callable[[ClusterGraph, ProjectionSpec], EvalReport]


ENGINES: dict[str, Engine] = {
    "statevector": Engine(
        lambda g: _over_cap(g.n, statevector_cap(), "qubits", TooLarge), _statevector
    ),
    "direct-sum": Engine(_direct_sum_misfit, _direct_sum),
    "sweep": Engine(_too_wide, lambda g, spec: sweep_evaluate(sweep_polynomial(g, spec))),
    "line-recursion": Engine(
        lambda g: None if graph_family(g).line
        else LatticeProjError("line-recursion needs a canonical line graph"),
        lambda g, spec: line_amplitude(spec),
    ),
    "cross-recursion": Engine(
        lambda g: None if graph_family(g).cross_chain is not None
        else LatticeProjError("cross-recursion needs a canonical cross chain"),
        lambda g, spec: cross_chain_recursion(spec),
    ),
    "column": Engine(_column_misfit, lambda g, spec: column_evaluate(g, spec)),
}

ENGINE_NAMES = tuple(ENGINES)


def compute_amplitude(g: ClusterGraph, spec: ProjectionSpec, engine: str) -> EvalReport:
    """The engine's amplitude; raises its misfit error when it does not fit g."""
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    if engine not in ENGINES:
        raise LatticeProjError(f"unknown engine {engine!r}")
    error = ENGINES[engine].misfit(g)
    if error is not None:
        raise error
    return ENGINES[engine].evaluate(g, spec)


def applicable_engines(g: ClusterGraph) -> list[str]:
    """Engines that fit this graph within their caps, in ENGINE_NAMES order."""
    return [name for name, row in ENGINES.items() if row.misfit(g) is None]
