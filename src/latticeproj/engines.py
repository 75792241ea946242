"""One table of amplitude engines: what each one fits, and how it evaluates.

``ENGINES`` maps every engine name the CLI takes to an ``Engine`` row.
``misfit(g)`` is None when the engine fits the graph within its cap, else
the LatticeProjError that says why not; ``evaluate(g, spec)`` is the
engine's EvalReport.  ``Engine.evaluate_batch(g, specs)`` decides the path:
a lone spec, or every spec of a row without ``batch`` (the two recursions),
takes ``evaluate``, so a one-trial verify runs and is traced as ``project``
is; two or more specs take one ``batch(g, specs)`` call.  The statevector,
direct-sum, sweep and column rows batch: a pass runs their core with a
trial axis, in chunks of at most the row's cap in entries (the
statevector's 2^cap less the vector itself, 2^24 direct-sum terms or sweep
frontier entries and step values, a 2^16 column boundary).
``ENGINE_NAMES``, ``applicable_engines``, ``compute_amplitude``,
``compute_amplitudes`` and the CLI all read this table.  Direct-sum and the
family rows read ``graph.graph_family``, detected once per distinct graph
(a chain of k crosses is the k x 1 lattice there, so cross-recursion fits
every lattice one column wide); the sweep always runs the worked-out
factor order and reads that order's frontier width from its cached
structure, known before anything is allocated.  The oracles keep their own
graph-only work: the statevector row's vector is built once per graph
(``build_statevector`` holds the last graph's, and checks
``oracle.STATEVEC_CAP`` on every call), and direct-sum's partition checks
and target masks once per (graph, bipartition).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    ColumnTooWide,
    LatticeProjError,
    NotALattice,
    NotBipartite,
    SizeMismatch,
    TooLarge,
    TooManyControls,
)
from .evaluate import (
    COLUMN_ROW_CAP,
    EvalReport,
    _column_shape,
    column_batch,
    column_evaluate,
    cross_chain_recursion,
    frontier_plan,
    line_recursion,
    sweep_batch,
    sweep_evaluate,
)
from .factorize import ProjectionSpec, build_polynomial, order_factors
from .graph import ClusterGraph, graph_family
from . import oracle
from .oracle import (
    DIRECT_SUM_CONTROL_CAP,
    build_statevector,
    direct_sum,
    direct_sum_batch,
    project_statevector,
    project_statevector_batch,
)

# Most frontier axes the sweep allocates: 2^24 complex entries, 256 MiB.
SWEEP_WIDTH_CAP = 24


@lru_cache(maxsize=64)
def _sweep_structure(g: ClusterGraph):
    # Words, slots, activity, the worked-out order and the frontier plan
    # depend on the graph alone; cache them and bind each projection's spec
    # to a clone.  The all-zero spec here is never evaluated.
    poly = order_factors(build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0)))
    frontier_plan(poly)
    return poly


def sweep_polynomial(g: ClusterGraph, spec: ProjectionSpec):
    """Build the ordered polynomial the sweep engine actually runs.

    The slot assignment and the factor order are the ones build_polynomial
    and order_factors work out (bipartite owners when the graph allows it,
    a greedy cover otherwise; the min-frontier search); both are decided
    once per graph and cached with the structure.  The result is a
    bind_spec clone of that shared structure.
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


def _chunk_length(per_spec: int, budget: int) -> int:
    """Specs per batch pass: ``per_spec`` live entries each, ``budget`` in all, at least one."""
    return max(1, budget // per_spec)


def _in_chunks(
    specs: Sequence[ProjectionSpec],
    run: Callable[[Sequence[ProjectionSpec]], np.ndarray],
    per_spec: int, budget: int,
) -> list[complex]:
    """``run``'s amplitudes over consecutive chunks of the specs, each of at most
    ``budget`` entries, ``per_spec`` per spec, beside what the graph alone needs
    (numpy's own temporaries go uncounted)."""
    step = _chunk_length(per_spec, budget)
    return [amp for i in range(0, len(specs), step) for amp in run(specs[i : i + step]).tolist()]


def _statevector(g: ClusterGraph, spec: ProjectionSpec) -> EvalReport:
    amplitude = project_statevector(build_statevector(g), spec)
    # fold multiplies: 2*(2^n - 1); merges: 2^n - 1
    dim = 1 << g.n
    return EvalReport(amplitude, dim, dim - 1, 2 * (dim - 1))


def _statevector_batch(g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> list[complex]:
    h = g.n // 2
    # beside the 2^n vector, each spec holds its two half-bras
    return _in_chunks(
        specs, lambda chunk: project_statevector_batch(build_statevector(g), chunk),
        (1 << (g.n - h)) + (1 << h), (1 << oracle.STATEVEC_CAP) - (1 << g.n),
    )


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


def _direct_sum_batch(g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> list[complex]:
    b = graph_family(g).bipartition
    return _in_chunks(
        specs, lambda chunk: direct_sum_batch(g, b, chunk),
        1 << len(b.controls), 1 << DIRECT_SUM_CONTROL_CAP,
    )


def _sweep(g: ClusterGraph, spec: ProjectionSpec) -> EvalReport:
    return sweep_evaluate(sweep_polynomial(g, spec))


def _sweep_batch(g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> list[complex]:
    poly = _sweep_structure(g)
    plan = frontier_plan(poly)
    # each spec holds its frontier and its step values, both complex
    return _in_chunks(
        specs, lambda chunk: sweep_batch(poly, chunk),
        (1 << plan.width) + len(plan.c_diag), 1 << SWEEP_WIDTH_CAP,
    )


def _column_misfit(g: ClusterGraph) -> Optional[LatticeProjError]:
    try:
        _column_shape(g)
    except (NotALattice, ColumnTooWide) as error:
        return error
    return None


def _column_batch(g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> list[complex]:
    return _in_chunks(
        specs, lambda chunk: column_batch(g, chunk),
        1 << graph_family(g).lattice[0], 1 << COLUMN_ROW_CAP,
    )


@dataclass(frozen=True, eq=False)
class Engine:
    """One engine: what it fits, one amplitude, and the pass for T > 1 specs."""

    misfit: Callable[[ClusterGraph], Optional[LatticeProjError]]
    evaluate: Callable[[ClusterGraph, ProjectionSpec], EvalReport]
    batch: Optional[Callable[[ClusterGraph, Sequence[ProjectionSpec]], list[complex]]] = None

    def evaluate_batch(self, g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> list[complex]:
        """The specs' amplitudes in order: ``evaluate`` on each for a lone spec or a
        row without ``batch``, else one ``batch`` call."""
        if self.batch is None or len(specs) < 2:
            return [self.evaluate(g, spec).amplitude for spec in specs]
        return self.batch(g, specs)


ENGINES: dict[str, Engine] = {
    "statevector": Engine(
        lambda g: _over_cap(g.n, oracle.STATEVEC_CAP, "qubits", TooLarge),
        _statevector,
        _statevector_batch,
    ),
    "direct-sum": Engine(_direct_sum_misfit, _direct_sum, _direct_sum_batch),
    "sweep": Engine(_too_wide, _sweep, _sweep_batch),
    "line-recursion": Engine(
        lambda g: None if graph_family(g).line
        else LatticeProjError("line-recursion needs a canonical line graph"),
        lambda g, spec: line_recursion(spec),
    ),
    "cross-recursion": Engine(
        lambda g: None if (graph_family(g).lattice or (0, 0))[1] == 1
        else LatticeProjError("cross-recursion needs a canonical cross chain, a k x 1 lattice"),
        lambda g, spec: cross_chain_recursion(spec),
    ),
    # column_evaluate is looked up per call, so a patch of it by name (a tracer's) is seen
    "column": Engine(_column_misfit, lambda g, spec: column_evaluate(g, spec), _column_batch),
}

ENGINE_NAMES = tuple(ENGINES)


def _fitting_row(g: ClusterGraph, specs: Sequence[ProjectionSpec], engine: str) -> Engine:
    for spec in specs:
        if spec.n != g.n:
            raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    if engine not in ENGINES:
        raise LatticeProjError(f"unknown engine {engine!r}")
    error = ENGINES[engine].misfit(g)
    if error is not None:
        raise error
    return ENGINES[engine]


def compute_amplitude(g: ClusterGraph, spec: ProjectionSpec, engine: str) -> EvalReport:
    """The engine's amplitude; raises its misfit error when it does not fit g."""
    return _fitting_row(g, (spec,), engine).evaluate(g, spec)


def compute_amplitudes(
    g: ClusterGraph, specs: Sequence[ProjectionSpec], engine: str
) -> list[complex]:
    """The engine's amplitudes for all specs from one ``evaluate_batch`` call.

    The misfit is checked once, as compute_amplitude checks it per spec.
    """
    return _fitting_row(g, specs, engine).evaluate_batch(g, specs)


def applicable_engines(g: ClusterGraph) -> list[str]:
    """Engines that fit this graph within their caps, in ENGINE_NAMES order."""
    return [name for name, row in ENGINES.items() if row.misfit(g) is None]
