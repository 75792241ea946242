"""Compile small gate circuits to measurement patterns and verify them.

A measurement pattern is a cluster graph plus a set of measured qubits, each
projected on <theta|_R = <0| H exp(-i theta Z), plus designated input and
output qubits.  Simulation is post-selected: the fixed-outcome branch is
taken as-is, no feed-forward corrections.  Such a pattern is a diagonal
tensor network (Danos, Kashefi & Panangaden, "The measurement calculus",
J. ACM 2007), so it runs on the sweep's contraction core: every qubit owns
a slot, bras are C/S weights, and the input and output slots stay open
(see _pattern_plan).  Memory is 2^(live frontier), not 2^n.

Every compiled pattern declares its gate semantics as a matrix (logical
wires ordered as the pattern's inputs, first wire = most significant bit);
equivalence checks are up to one nonzero scalar, since post-selection makes
norms non-physical.  A composite's semantics is the ordered product of its
stages' gates, each applied on its own wire axes of the running 2^w x 2^w
matrix: O(2^k 4^w) for a k-wire stage, never a Kronecker-embedded 2^w x 2^w
copy of it.  compose builds only the graph, the wiring and the angles, so
compiling takes time linear in the circuit at any wire count; the product
is built on the first read of ``semantics``.  A w-wire semantics matrix
holds as many entries as a 2w-qubit statevector, so that read refuses more
than half of ``oracle.STATEVEC_CAP`` wires.

Notes on the CPhase pattern (square with two diagonal tails, measurement
angles +theta/4 and -theta/4): with the control qubit left untouched, any
fixed-projector pattern realizes a controlled block of determinant +-1, so
the pattern implements diag(1, 1, e^{-i theta/2}, e^{+i theta/2}) - the
CPhase gate times a phase on the control branch that circuit decompositions
absorb into their global phase.  That exact matrix is what the pattern
declares.  compile_cphase_exact appends a two-qubit wire on the control that
turns the residual into a true global phase.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    CircuitParseError,
    QubitCollision,
    SizeMismatch,
    TooLarge,
    ZeroBranch,
)
from .evaluate import FrontierPlan, _build_plan, _contract
from .factorize import ProjectionSpec, build_polynomial
from .graph import ClusterGraph, build_from_edges, data_lines
from . import oracle

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def rz_matrix(theta: float) -> np.ndarray:
    """R_Z(theta) = exp(-i theta Z)."""
    return np.diag([np.exp(-1j * theta), np.exp(1j * theta)])


def rx_matrix(theta: float) -> np.ndarray:
    """R_X(theta) = exp(-i theta X)."""
    return math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * np.array(
        [[0.0, 1.0], [1.0, 0.0]]
    )


CZ_MATRIX = np.diag([1.0, 1.0, 1.0, -1.0]).astype(complex)
CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def cphase_matrix(theta: float) -> np.ndarray:
    return np.diag([1.0, 1.0, 1.0, np.exp(1j * theta)]).astype(complex)


def rotation_bra(theta: float) -> np.ndarray:
    """<theta|_R = <0| H exp(-i theta Z) with its exact phase; rows of bras for an array."""
    return np.array([np.exp(-1j * theta), np.exp(1j * theta)], dtype=complex) / math.sqrt(2.0)


def rotation_projector_to_spec(theta: float) -> tuple[float, float]:
    """(theta_p, phi_p) whose bra is proportional to <theta|_R.

    <theta|_R = e^{-i theta} (cos(pi/4)<0| + e^{2 i theta} sin(pi/4)<1|),
    so the C/S parameterization drops one phase of e^{-i theta} per qubit.
    """
    return (math.pi / 4.0, 2.0 * theta)


# ---------------------------------------------------------------------------
# patterns


class MeasurementPattern:
    """Graph + fixed projectors + input/output designation + declared gate.

    ``semantics`` is the declared gate, a (2^outputs, 2^inputs) matrix
    checked against those dimensions here.  A composite (see compose)
    passes ``stages`` instead: its stage patterns, each with the wire
    positions it acts on.  Its semantics is then built on the first read,
    from the stages' own ``semantics`` read at that time, and kept; two
    threads racing on that first read at worst build it twice.  That read
    raises TooLarge, before anything is allocated, when twice the wire
    count exceeds oracle.STATEVEC_CAP.
    """

    def __init__(
        self,
        graph: ClusterGraph,
        inputs: tuple[int, ...],
        outputs: tuple[int, ...],
        measurements: dict[int, float],
        semantics: Optional[np.ndarray] = None,
        name: str = "",
        *,
        stages: Sequence[tuple[MeasurementPattern, tuple[int, ...]]] = (),
    ) -> None:
        self.graph = graph
        self.inputs = inputs
        self.outputs = outputs
        self.measurements = measurements
        self.name = name
        self._semantics = semantics
        self._stages = tuple(stages)
        for role, qs in (("input", inputs), ("output", outputs)):
            if len(set(qs)) != len(qs):
                raise QubitCollision(f"{role} qubits {qs} list a qubit twice")
        qubits = set(range(graph.n))
        measured = set(measurements)
        if measured & set(outputs):
            raise SizeMismatch("output qubits must not carry projectors")
        if measured | set(outputs) != qubits:
            raise SizeMismatch("measured and output qubits must cover the pattern")
        if not set(inputs) <= qubits:
            raise SizeMismatch("input qubits must belong to the graph")
        if not all(math.isfinite(angle) for angle in measurements.values()):
            raise ValueError("measurement angles must be finite")
        if (semantics is None) == (not self._stages):
            raise TypeError("a pattern takes either declared semantics or its stages")
        if semantics is not None and semantics.shape != (1 << len(outputs), 1 << len(inputs)):
            raise SizeMismatch("declared semantics has the wrong dimensions")

    @property
    def semantics(self) -> np.ndarray:
        if self._semantics is None:
            self._semantics = _stage_product(self._stages, len(self.inputs))
        return self._semantics

    def __repr__(self) -> str:
        return (
            f"MeasurementPattern({self.name!r}, {self.graph!r}, "
            f"inputs={self.inputs}, outputs={self.outputs})"
        )


@dataclass(frozen=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    angle: Optional[float] = None


# The stages' fixed graphs, built once (ClusterGraph is frozen).
_LINE_2 = build_from_edges(2, [(0, 1)])
_LINE_4 = build_from_edges(4, [(0, 1), (1, 2), (2, 3)])
# two 5-qubit wires bridged at their middles
_I_SHAPE = build_from_edges(
    10, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8), (8, 9), (2, 7)]
)
# Square 1-2-3-4 with tails 0-1 and 3-5 on the diagonal corners; the target
# flows 0 -> 1 -> 4 -> 3 -> 5, the control is corner 2.
_CPHASE_CORE = build_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4), (3, 5)])
# the core plus a two-qubit wire 2 -> 6 -> 7 on the control
_CPHASE_EXACT = build_from_edges(8, _CPHASE_CORE.sorted_edges() + [(2, 6), (6, 7)])


def _check_finite(*angles: float) -> None:
    """The pattern's own check, made before a constructor builds its
    semantics, which numpy would warn about for a non-finite angle."""
    if not all(math.isfinite(angle) for angle in angles):
        raise ValueError("measurement angles must be finite")


def compile_z_rotation(theta: float) -> MeasurementPattern:
    """Single-qubit teleportation: 2-qubit line, input measured at theta.

    The output qubit carries H R_Z(theta) |psi>, up to a nonzero scalar.
    """
    _check_finite(theta)
    return MeasurementPattern(
        graph=_LINE_2,
        inputs=(0,),
        outputs=(1,),
        measurements={0: theta},
        semantics=HADAMARD @ rz_matrix(theta),
        name=f"z-rotation({theta:g})",
    )


def compile_rotation(theta: float, zeta: float, xi: float) -> MeasurementPattern:
    """Arbitrary rotation: 4-qubit line measured at (theta, zeta, xi).

    The fourth qubit carries H R_Z(xi) R_X(zeta) R_Z(theta) |psi>.
    """
    _check_finite(theta, zeta, xi)
    return MeasurementPattern(
        graph=_LINE_4,
        inputs=(0,),
        outputs=(3,),
        measurements={0: theta, 1: zeta, 2: xi},
        semantics=HADAMARD @ rz_matrix(xi) @ rx_matrix(zeta) @ rz_matrix(theta),
        name=f"rotation({theta:g},{zeta:g},{xi:g})",
    )


def compile_cnot() -> MeasurementPattern:
    """The I-shape pattern: two 5-qubit wires bridged at their middles.

    All non-output qubits are measured at theta = 0 (<+|).  Each wire
    teleports its input through two identity hops to the middle, the bridge
    edge applies the entangling phase there, and two more hops deliver the
    result, so the outputs carry exactly CZ |psi>|phi> - the CNOT of the
    figure with its control in the X basis.
    """
    return MeasurementPattern(
        graph=_I_SHAPE,
        inputs=(0, 5),
        outputs=(4, 9),
        measurements={q: 0.0 for q in (0, 1, 2, 3, 5, 6, 7, 8)},
        semantics=CZ_MATRIX.copy(),
        name="cnot-I-shape",
    )


def _cphase_core_angles(theta: float) -> dict[int, float]:
    return {0: theta / 4.0, 1: 0.0, 4: -theta / 4.0, 3: 0.0}


def compile_cphase(theta: float) -> MeasurementPattern:
    """The square-with-two-tails CPhase pattern, angles +-theta/4.

    Conditioned on the control value c, the target wire sees
    H Z^c [H R_Z(-theta/4)] H Z^c [H R_Z(theta/4)], which collapses to the
    identity for c = 0 and to R_Z(theta/2) for c = 1.  The declared
    semantics is therefore diag(1, 1, e^{-i theta/2}, e^{+i theta/2}):
    CPhase(theta) times the control-branch phase discussed in the module
    docstring.  At theta = pi this is the CZ gate up to that recorded
    phase (see compile_cphase_exact for the fully corrected variant).
    """
    _check_finite(theta)
    half = np.exp(-0.5j * theta)
    semantics = np.diag([1.0, 1.0, half, np.conj(half)]).astype(complex)
    return MeasurementPattern(
        graph=_CPHASE_CORE,
        inputs=(2, 0),
        outputs=(2, 5),
        measurements=_cphase_core_angles(theta),
        semantics=semantics,
        name=f"cphase({theta:g})",
    )


def compile_cphase_exact(theta: float) -> MeasurementPattern:
    """CPhase pattern with a control-side wire absorbing the residual phase.

    Teleporting the control through two extra qubits measured at
    (theta/4, 0) multiplies its branches by R_Z(theta/4), which turns the
    declared semantics into e^{-i theta/4} CPhase(theta): the gate exactly,
    up to a true global phase.
    """
    _check_finite(theta)
    measurements = _cphase_core_angles(theta)
    measurements[2] = theta / 4.0
    measurements[6] = 0.0
    semantics = np.exp(-0.25j * theta) * cphase_matrix(theta)
    return MeasurementPattern(
        graph=_CPHASE_EXACT,
        inputs=(2, 0),
        outputs=(7, 5),
        measurements=measurements,
        semantics=semantics,
        name=f"cphase-exact({theta:g})",
    )


# ---------------------------------------------------------------------------
# composition


def _apply_on_wires(mat: np.ndarray, positions: Sequence[int], total: np.ndarray) -> np.ndarray:
    """``mat`` applied to the given wire axes of the rows of ``total``.

    ``total`` is 2^w x 2^w with the first wire as the most significant row
    bit, ``mat`` is 2^k x 2^k over ``positions`` in the stage's own order.
    The stage's bits are first put in ascending wire order; adjacent wires
    then take one broadcast matmul, and others a tensordot on the wire axes.
    Either way the cost is O(2^k 4^w), with no 2^w x 2^w copy of ``mat``.
    """
    k = len(positions)
    order = sorted(range(k), key=positions.__getitem__)
    mat = mat.reshape((2,) * (2 * k)).transpose(order + [k + a for a in order])
    positions = sorted(positions)
    lo = positions[0]
    if positions[-1] - lo == k - 1:
        out = mat.reshape(1 << k, 1 << k) @ total.reshape(1 << lo, 1 << k, -1)
        return out.reshape(total.shape)
    width = total.shape[0].bit_length() - 1
    out = np.tensordot(mat, total.reshape((2,) * width + (-1,)), (range(k, 2 * k), positions))
    return np.moveaxis(out, range(k), positions).reshape(total.shape)


def _stage_product(
    stages: Sequence[tuple[MeasurementPattern, tuple[int, ...]]], width: int
) -> np.ndarray:
    """Ordered product of the stages' semantics on ``width`` wires.

    Raises TooLarge, before anything is allocated, when twice the wire count
    exceeds oracle.STATEVEC_CAP.
    """
    if 2 * width > (cap := oracle.STATEVEC_CAP):
        raise TooLarge(
            f"{width} wires need a dense semantics matrix as large as a "
            f"{2 * width}-qubit statevector, above the cap of {cap}"
        )
    total = np.eye(1 << width, dtype=complex)
    for pattern, positions in stages:
        total = _apply_on_wires(pattern.semantics, positions, total)
    return total


def compose(
    patterns: Sequence[MeasurementPattern],
    wiring: Sequence[Sequence[int]],
) -> MeasurementPattern:
    """Glue patterns stage by stage along named logical wires.

    ``wiring[k]`` lists the wires stage k acts on, matching its input (and
    output) order.  A stage's input qubits are identified with the wires'
    current end qubits; its outputs become the new ends.  The graph is built
    straight from the mapped edges, which are checked for duplicates here.
    The composite's declared semantics is the ordered product of the
    stages' semantics, on the sorted wire set (first wire = most significant
    bit); each stage's 2^k x 2^k matrix acts on its k wire axes of the
    running product, at O(2^k 4^w) per stage on w wires.  That product is
    built on the first read of ``semantics``, not here, and the wire cap
    (see MeasurementPattern) is checked there too.
    """
    if len(patterns) != len(wiring):
        raise ArityMismatch("one wire tuple is needed per pattern")
    all_wires = sorted({w for ws in wiring for w in ws})
    if not all_wires:
        raise ArityMismatch("composition needs at least one wire")
    wire_pos = {w: i for i, w in enumerate(all_wires)}

    current: dict[int, int] = {}
    first_qubit: dict[int, int] = {}
    edges: set[tuple[int, int]] = set()
    measurements: dict[int, float] = {}
    stages: list[tuple[MeasurementPattern, tuple[int, ...]]] = []
    next_id = 0

    for stage, (pattern, wires) in enumerate(zip(patterns, wiring)):
        wires = tuple(wires)
        if len(set(wires)) != len(wires):
            raise QubitCollision(f"stage {stage} lists wire {wires} twice")
        if len(wires) != len(pattern.inputs) or len(pattern.inputs) != len(pattern.outputs):
            raise ArityMismatch(
                f"stage {stage} has {len(pattern.inputs)} inputs / "
                f"{len(pattern.outputs)} outputs but {len(wires)} wires"
            )
        mapping: dict[int, int] = {}
        for i, w in enumerate(wires):
            q = pattern.inputs[i]
            if w in current:
                mapping[q] = current[w]
            # a fresh wire keeps its fresh id assigned below
        for q in range(pattern.graph.n):
            if q not in mapping:
                mapping[q] = next_id
                next_id += 1
        for i, w in enumerate(wires):
            if w not in current:
                first_qubit[w] = mapping[pattern.inputs[i]]
        for a, b in pattern.graph.sorted_edges():
            a, b = mapping[a], mapping[b]
            e = (a, b) if a < b else (b, a)
            if e in edges:
                raise QubitCollision(f"stage {stage} duplicates edge {e}")
            edges.add(e)
        for q, angle in pattern.measurements.items():
            target = mapping[q]
            if target in measurements:
                raise QubitCollision(f"stage {stage} measures qubit {target} twice")
            measurements[target] = angle
        for i, w in enumerate(wires):
            current[w] = mapping[pattern.outputs[i]]
        stages.append((pattern, tuple(wire_pos[w] for w in wires)))

    # stage inputs and outputs are distinct qubits, so the mapping is
    # injective: every mapped edge joins two distinct qubits below next_id
    return MeasurementPattern(
        graph=ClusterGraph(max(next_id, 1), frozenset(edges)),
        inputs=tuple(first_qubit[w] for w in all_wires),
        outputs=tuple(current[w] for w in all_wires),
        measurements=measurements,
        name="composite",
        stages=stages,
    )


# ---------------------------------------------------------------------------
# simulation


@lru_cache(maxsize=64)
def _pattern_plan(graph: ClusterGraph, open_slots: tuple[int, ...]) -> FrontierPlan:
    """Frontier plan of the pattern graph in which every qubit owns its slot.

    Each edge belongs to its lower end, so qubit q's factor
    C_q*U_q + S_q*D_q (x) Z(lower neighbours) weights its basis value x_q by
    (C_q, S_q) and applies each CZ sign (-1)^(x_p x_q); summing slot q
    contracts qubit q.  ``open_slots`` are never retired; in index order
    every other slot retires right after its last CZ (measure as soon as
    possible).  Fixed by the graph alone, like the sweep's structure.
    """
    n = graph.n
    spec = ProjectionSpec.constant(n, 0.0, 0.0)
    return _build_plan(build_polynomial(graph, spec, range(n)), open_slots)


def _action_core(pattern: MeasurementPattern) -> np.ndarray:
    """The pattern's (2^outputs, 2^inputs) action, outputs in declared order.

    (C_q, S_q) is q's bra, or (1, 1) unmeasured, times the 1/sqrt(2) of |+>
    unless q is an input.  The open slots index the matrix: the contracted
    frontier is written into one zeroed result, each result axis labelled by
    its qubit's open slot.  An input that is also an output labels two axes,
    and the action is diagonal in it, so the frontier fills the diagonal
    view of that pair (a single-operand einsum) and the rest stays zero.
    Raises TooLarge, before anything is allocated, when the inputs plus the
    outputs exceed oracle.STATEVEC_CAP: the result is as large as a
    statevector of that many qubits.
    """
    inputs, outputs = pattern.inputs, pattern.outputs
    if (size := len(inputs) + len(outputs)) > (cap := oracle.STATEVEC_CAP):
        raise TooLarge(f"the action is as large as a {size}-qubit statevector, above the cap {cap}")
    opened = inputs + tuple(q for q in outputs if q not in inputs)
    plan = _pattern_plan(pattern.graph, opened)
    n = pattern.graph.n
    cs = np.ones((2, n), dtype=complex)
    cs[:, list(pattern.measurements)] = rotation_bra(
        np.fromiter(pattern.measurements.values(), float)
    )
    cs[:, [q for q in range(n) if q not in inputs]] *= 1.0 / math.sqrt(2.0)
    frontier = _contract(plan, *cs)
    shape = (1 << len(outputs), 1 << len(inputs))
    k = len(opened)
    if not k:  # a scalar, which einsum would not return as a view
        return frontier.reshape(shape)
    mat = np.zeros((2,) * (len(outputs) + len(inputs)), dtype=complex)
    view = np.einsum(mat, [opened.index(q) for q in outputs + inputs], list(range(k)))
    view[...] = np.moveaxis(frontier, plan.open_axes, range(k)).reshape((2,) * k)
    return mat.reshape(shape)


def _norms(x: np.ndarray, exponent: int) -> np.ndarray:
    """The norms of x's columns (axis 0) times 2^-exponent.  |x| is scaled
    before it is squared, so entries near 2^exponent do not underflow."""
    mags = np.ldexp(np.abs(x), -exponent)
    return np.sqrt(np.vecdot(mags, mags, axis=0))


def _column_norms(pattern: MeasurementPattern, mat: np.ndarray) -> tuple[np.ndarray, float, int]:
    """The action's column norms, the norm at or below which a branch counts
    as vanished, and the exponent e of the power of two 2^-e both are scaled
    by (see _norms).

    The floor is 1e-13 of the action's scale, relative rather than fixed, as
    the scale falls by about 2^(-1/2) per measured qubit.  The scale is the
    largest column norm, or 2^(-m/2) for m measured qubits (each branch's
    norm when every outcome is equally likely), whichever is larger: so an
    all-zero action raises, and so does a one-column action (no inputs)
    that holds only rounding error.  e is the exponent of the largest
    |entry|, or -(m // 2) when that is larger, so the scaled 2^(-m/2) is
    at most 1 and the floor neither underflows nor overflows.
    """
    m = len(pattern.measurements)
    top = float(np.abs(mat).max())
    # an all-zero action takes the floor's exponent (frexp(0) gives 0)
    exponent = max(math.frexp(top)[1], -(m // 2)) if top else -(m // 2)
    norms = _norms(mat, exponent)
    return norms, 1e-13 * max(float(norms.max()), 2.0 ** (-m / 2 - exponent)), exponent


def simulate_pattern(
    pattern: MeasurementPattern, input_state: np.ndarray
) -> np.ndarray:
    """Post-selected run of the pattern on one input state.

    The pattern's action matrix comes from one measure-as-soon-as-possible
    contraction with the input slots left open (see ``_action_core``); the
    input is then applied to it.  Returns the unnormalized residual vector
    on the outputs, in the pattern's declared output order.  Raises
    ZeroBranch when the post-selected branch vanishes: when the residual's
    norm is at most the input's norm times the floor of _column_norms, and
    TooLarge, before anything is allocated, when the inputs plus the outputs
    exceed oracle.STATEVEC_CAP.
    """
    k = len(pattern.inputs)
    vec = np.asarray(input_state, dtype=complex).reshape(-1)
    if vec.shape[0] != 1 << k:
        raise SizeMismatch(f"input needs dimension {1 << k}, got {vec.shape[0]}")
    mat = _action_core(pattern)
    out = mat @ vec
    _, floor, exponent = _column_norms(pattern, mat)
    if float(_norms(out, exponent)) <= floor * float(np.linalg.norm(vec)):
        raise ZeroBranch("post-selected branch of the pattern is identically zero")
    return out


def pattern_action_matrix(pattern: MeasurementPattern) -> np.ndarray:
    """The pattern's actual linear action, all input basis columns at once.

    Raises ZeroBranch when the post-selected branch vanishes on any input
    basis state: when that column's norm is at most the floor of
    _column_norms.  Raises TooLarge, before anything is allocated, when the
    inputs plus the outputs exceed oracle.STATEVEC_CAP.
    """
    mat = _action_core(pattern)
    norms, floor, _ = _column_norms(pattern, mat)
    dead = np.flatnonzero(norms <= floor)
    if dead.size:
        raise ZeroBranch(
            f"post-selected branch of the pattern vanishes on input basis state {dead[0]}"
        )
    return mat


def pattern_projection_spec(
    pattern: MeasurementPattern, output_thetas: Optional[dict[int, float]] = None
) -> ProjectionSpec:
    """Angles projecting every qubit, for evaluation through the main engine.

    Measured qubits use their own rotation angle; output qubits use the
    provided ones (default 0, i.e. <+|).  Each qubit's bra drops a phase of
    e^{-i theta} relative to the exact <theta|_R, so the engine amplitude
    matches the simulated scalar up to exp(-i * sum of all angles).
    """
    angles = [
        rotation_projector_to_spec(rot)
        for rot in pattern_rotation_angles(pattern, output_thetas)
    ]
    return ProjectionSpec([t for t, _ in angles], [p for _, p in angles])


def pattern_rotation_angles(
    pattern: MeasurementPattern, output_thetas: Optional[dict[int, float]] = None
) -> list[float]:
    """Rotation angle per qubit: its measurement, else output_thetas (default 0)."""
    output_thetas = output_thetas or {}
    return [
        pattern.measurements.get(q, output_thetas.get(q, 0.0))
        for q in range(pattern.graph.n)
    ]


# ---------------------------------------------------------------------------
# circuit DSL: one gate per line, e.g. "RZ 0 0.5", "CZ 0 1", "CPHASE 0 1 3.14"


# Each gate kind: its operand count, whether it takes an angle, and its
# stages, each a pattern built from the gate's angle (None for a kind with
# no angle) and the operand positions it acts on.  RZ/RX/H ride the
# teleportation primitives (each carries the inherent leading Hadamard in its
# declared semantics), CZ uses the I-shape, CNOT wraps it in Hadamard
# teleports on the target, CPHASE uses the square-with-tails pattern.
_GATES = {
    "RZ": (1, True, [(compile_z_rotation, (0,))]),
    "RX": (1, True, [(lambda angle: compile_rotation(0.0, angle, 0.0), (0,))]),
    "H": (1, False, [(lambda _: compile_z_rotation(0.0), (0,))]),
    "CZ": (2, False, [(lambda _: compile_cnot(), (0, 1))]),
    "CNOT": (2, False, [
        (lambda _: compile_z_rotation(0.0), (1,)),
        (lambda _: compile_cnot(), (0, 1)),
        (lambda _: compile_z_rotation(0.0), (1,)),
    ]),
    "CPHASE": (2, True, [(compile_cphase, (0, 1))]),
}


def _operands(kind: str) -> str:
    nq, has_angle, _ = _GATES[kind]
    return f"{kind} takes {nq} qubit(s) and {'an' if has_angle else 'no'} angle"


def parse_circuit(text: str) -> list[Gate]:
    gates: list[Gate] = []
    for lineno, _, fields in data_lines(text):
        kind = fields[0].upper()
        if kind not in _GATES:
            raise CircuitParseError(f"unknown gate {fields[0]!r}", lineno)
        nq, has_angle, _ = _GATES[kind]
        if len(fields) != 1 + nq + has_angle:
            raise CircuitParseError(_operands(kind), lineno)
        try:
            qubits = tuple(int(f) for f in fields[1 : 1 + nq])
            angle = float(fields[1 + nq]) if has_angle else None
        except ValueError as exc:
            raise CircuitParseError(str(exc), lineno)
        if angle is not None and not math.isfinite(angle):
            raise CircuitParseError(f"angle must be finite, got {fields[1 + nq]!r}", lineno)
        if any(q < 0 for q in qubits):
            raise CircuitParseError("qubit indices must be non-negative", lineno)
        if len(set(qubits)) != len(qubits):
            raise CircuitParseError("gate operands must be distinct", lineno)
        gates.append(Gate(kind, qubits, angle))
    return gates


def compile_circuit(gates: Sequence[Gate]) -> MeasurementPattern:
    """Map each gate to its stage patterns in _GATES and compose them along
    the circuit's wires.

    Each gate's operand count, and whether it carries an angle, must match
    its kind's row, else ArityMismatch.  The composite's declared semantics
    is the product of the stage semantics, built on its first read; consult
    it for the exact gate realized, residual Hadamards included.
    """
    if not gates:
        raise CircuitParseError("no gates", 0)
    stages: list[MeasurementPattern] = []
    wiring: list[tuple[int, ...]] = []
    for gate in gates:
        if gate.kind not in _GATES:
            raise CircuitParseError(f"unknown gate {gate.kind}", 0)
        nq, has_angle, kind_stages = _GATES[gate.kind]
        if len(gate.qubits) != nq or (gate.angle is not None) != has_angle:
            raise ArityMismatch(f"{_operands(gate.kind)}, got {gate}")
        for build, positions in kind_stages:
            stages.append(build(gate.angle))
            wiring.append(tuple(gate.qubits[i] for i in positions))
    return compose(stages, wiring)
