"""Turn (graph, slot assignment, projector angles) into a factorized polynomial.

The projection amplitude onto the product bra with per-qubit coefficients
C_p = cos(theta_p), S_p = exp(i phi_p) sin(theta_p) equals

    2^(-N/2) * Tr{ prod_p [ C_p * W_c(p) + S_p * W_s(p) ] }

with one binomial factor per qubit.  The words are fixed by the slot
assignment: an owner contributes U (c branch) or D (s branch) at its own
slot; every qubit additionally contributes Z, in its s branch, at the slot
of each incident edge assigned to the other endpoint.  A Factor holds the
words only; C_p and S_p are read from the polynomial's ProjectionSpec, so
one word structure serves every projection of a graph.  All letters commute,
so the amplitude is invariant under reordering of the factors; what the
order changes is how many slots are simultaneously active during a sweep.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .algebra import Letter, TensorWord
from .errors import InvalidPermutation, SizeMismatch
from .graph import ClusterGraph, SlotAssignment, adjacency, assign_slots, data_lines, rewrite


class ProjectionSpec:
    """Per-qubit projector angles (theta_p, phi_p), with C/S precomputed.

    Qubit p contributes the bra C_p<0| + S_p<1| where C_p = cos(theta_p)
    and S_p = exp(i phi_p) sin(theta_p).  The bra is applied as written,
    without conjugating S_p.
    """

    __slots__ = ("theta", "phi", "c", "s")

    def __init__(self, theta: Sequence[float], phi: Sequence[float]):
        theta_arr = np.atleast_1d(np.asarray(theta, dtype=float))
        phi_arr = np.atleast_1d(np.asarray(phi, dtype=float))
        if theta_arr.ndim != 1 or theta_arr.shape != phi_arr.shape or not theta_arr.size:
            raise SizeMismatch(
                f"theta and phi must be equal-length, non-empty 1-d arrays, "
                f"got {theta_arr.shape} and {phi_arr.shape}"
            )
        if not (np.isfinite(theta_arr).all() and np.isfinite(phi_arr).all()):
            raise ValueError("projection angles must be finite")
        for arr in (theta_arr, phi_arr):
            arr.setflags(write=False)
        self.theta = theta_arr
        self.phi = phi_arr
        self.c = np.cos(theta_arr)
        self.s = np.exp(1j * phi_arr) * np.sin(theta_arr)
        self.c.setflags(write=False)
        self.s.setflags(write=False)

    @property
    def n(self) -> int:
        return self.theta.shape[0]

    @classmethod
    def constant(cls, n: int, theta: float, phi: float) -> "ProjectionSpec":
        return cls(np.full(n, theta), np.full(n, phi))

    @classmethod
    def random(cls, n: int, rng: np.random.Generator) -> "ProjectionSpec":
        """Angles drawn uniformly from [0, 2*pi), independently per qubit."""
        return cls(rng.uniform(0.0, 2.0 * np.pi, n), rng.uniform(0.0, 2.0 * np.pi, n))

    def __repr__(self) -> str:
        return f"ProjectionSpec(n={self.n})"


def stack_specs(specs: Sequence[ProjectionSpec], n: int) -> tuple[np.ndarray, np.ndarray]:
    """The C and S arrays of T n-qubit specs, stacked as (T, n) arrays."""
    for spec in specs:
        if spec.n != n:
            raise SizeMismatch(f"spec has {spec.n} qubits, expected {n}")
    c = np.array([spec.c for spec in specs]).reshape(len(specs), n)
    s = np.array([spec.s for spec in specs], dtype=complex).reshape(c.shape)
    return c, s


@dataclass(frozen=True)
class Factor:
    """One qubit's binomial C_p*c_word + S_p*s_word, by its words only.

    The words are fixed by the slot assignment; C_p and S_p belong to the
    projection and are read from the polynomial's spec.
    """

    qubit: int
    c_word: TensorWord
    s_word: TensorWord

    def touched_slots(self) -> frozenset[int]:
        return frozenset([s for s, _ in self.c_word.entries + self.s_word.entries])


def _factor_from_adjacency(
    p: int,
    a: SlotAssignment,
    adj: Mapping[int, tuple[int, ...]],
) -> Factor:
    c_entries: list[tuple[int, Letter]] = []
    s_entries: dict[int, Letter] = {}
    if p in a.owners:
        own = a.slot_of[p]
        c_entries.append((own, Letter.U))
        s_entries[own] = Letter.D
    for nbr in adj[p]:
        e = (p, nbr) if p < nbr else (nbr, p)
        owner = a.edge_owner[e]
        if owner != p:
            s_entries[a.slot_of[owner]] = Letter.Z
    return Factor(
        qubit=p,
        c_word=TensorWord(c_entries),
        s_word=TensorWord(s_entries.items()),
    )


class FactorizedPolynomial:
    """Ordered sequence of factors plus per-slot activity bookkeeping.

    norm_exponent is the qubit count N; the physical amplitude carries the
    2^(-N/2) prefactor.  ``spec`` is the ProjectionSpec whose C_p/S_p are the
    factors' coefficients; it is the only place they are held.  For every
    slot, activity is the index interval [first touch, last touch] over the
    current factor order; the owner's factor (the U/D contribution) always
    lies inside it.  ``plan`` holds the sweep's evaluate.FrontierPlan once
    evaluate.frontier_plan has built it; like activity, it depends on the
    words and their order only.
    """

    def __init__(
        self,
        graph: ClusterGraph,
        assignment: SlotAssignment,
        factors: Sequence[Factor],
        spec: ProjectionSpec,
    ):
        if sorted(f.qubit for f in factors) != list(range(graph.n)):
            raise SizeMismatch("polynomial needs exactly one factor per qubit")
        self.graph = graph
        self.assignment = assignment
        self.factors = tuple(factors)
        self.spec = spec
        self.norm_exponent = graph.n
        self.slot_count = assignment.slot_count

        first: dict[int, int] = {}
        last: dict[int, int] = {}
        owner_pos: dict[int, int] = {}
        for pos, f in enumerate(self.factors):
            for slot, letter in f.c_word.entries:
                first.setdefault(slot, pos)
                last[slot] = pos
                if letter is Letter.U:
                    if slot in owner_pos:
                        raise ValueError(f"slot {slot} has two owner factors")
                    owner_pos[slot] = pos
            for slot, _ in f.s_word.entries:
                first.setdefault(slot, pos)
                last[slot] = pos
        if set(owner_pos) != set(range(self.slot_count)):
            raise ValueError("every slot needs exactly one owner factor")
        self.activity = {s: (first[s], last[s]) for s in first}
        self.owner_position = owner_pos
        self.plan = None

    def bind_spec(self, spec: ProjectionSpec) -> "FactorizedPolynomial":
        """The same polynomial under another projection, in O(1).

        Words, order, activity and plan are fixed by the graph and the
        assignment alone, so the clone shares them and only swaps the spec;
        this polynomial is left unchanged.
        """
        if spec.n != self.graph.n:
            raise SizeMismatch(f"spec has {spec.n} qubits, graph has {self.graph.n}")
        clone = copy.copy(self)
        clone.spec = spec
        return clone

    def __repr__(self) -> str:
        return (
            f"FactorizedPolynomial(qubits={self.norm_exponent}, "
            f"slots={self.slot_count})"
        )


def build_polynomial(
    g: ClusterGraph,
    spec: ProjectionSpec,
    assignment: Optional[SlotAssignment] = None,
) -> FactorizedPolynomial:
    """Polynomial with factors in qubit-index order (the as-built order).

    ``assignment`` None takes graph.assign_slots(g): the bipartition's
    controls own the slots, or a greedy vertex cover when the graph has an
    odd cycle.
    """
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    if assignment is None:
        assignment = assign_slots(g)
    adj = adjacency(g)
    factors = [_factor_from_adjacency(p, assignment, adj) for p in range(g.n)]
    return FactorizedPolynomial(g, assignment, factors, spec)


# ---------------------------------------------------------------------------
# factor ordering


# Passes of the min-frontier search; each starts from one minimum-degree qubit.
AUTO_STARTS = 8


def _peak_overlap(intervals, length: int) -> int:
    """Most closed intervals [lo, hi] covering one point of range(length)."""
    delta = [0] * (length + 1)
    for lo, hi in intervals:
        delta[lo] += 1
        delta[hi + 1] -= 1
    return max(accumulate(delta))


def _min_frontier_pass(
    touched: Sequence[tuple[int, ...]],
    users: Sequence[list[int]],
    start: int,
    restarts: Sequence[int],
    bound: int,
) -> Optional[tuple[int, list[int]]]:
    """(width, qubit order) of a greedy pass from ``start``.

    Each step places the unplaced factor that touches a live slot and
    minimises (slots it opens - slots it closes, slots it opens, qubit).
    With no such factor (a component is done) the pass resumes at the first
    unplaced qubit of ``restarts``.  The pass gives up (None) as soon as
    its width reaches ``bound``.
    """
    remaining = [len(u) for u in users]
    opened = [False] * len(users)
    placed = [False] * len(touched)
    frontier: set[int] = set()
    pending = iter(restarts)
    order: list[int] = []
    live = width = 0

    def cost(q: int) -> tuple[int, int, int]:
        opens = closes = 0
        for s in touched[q]:
            opens += not opened[s]
            closes += remaining[s] == 1
        return opens - closes, opens, q

    q = start
    while True:
        placed[q] = True
        order.append(q)
        for s in touched[q]:
            if not opened[s]:
                opened[s] = True
                live += 1
                frontier.update(users[s])
            remaining[s] -= 1
        if live >= bound:
            return None
        width = max(width, live)
        live -= sum(remaining[s] == 0 for s in touched[q])
        frontier.discard(q)
        if len(order) == len(touched):
            return width, order
        if frontier:
            q = min(frontier, key=cost)
        else:
            q = next(p for p in pending if not placed[p])


def _min_frontier_order(poly: FactorizedPolynomial) -> list[int]:
    """Narrowest qubit order among as-built and the min-frontier passes.

    A pass's width is the peak number of active slots, the cost that
    max_active_slots reports; the as-built order is kept unless a pass is
    strictly narrower.
    """
    n = poly.graph.n
    touched: list[tuple[int, ...]] = [()] * n
    for f in poly.factors:
        touched[f.qubit] = tuple(f.touched_slots())
    users: list[list[int]] = [[] for _ in range(poly.slot_count)]
    for q in range(n):
        for s in touched[q]:
            users[s].append(q)
    # users[s] is in qubit order, so its ends are s's as-built interval
    best = list(range(n))
    bound = _peak_overlap(((u[0], u[-1]) for u in users), n)

    degree = [0] * n
    for a, b in poly.graph.edges:
        degree[a] += 1
        degree[b] += 1
    # stable sort: equal degrees stay in qubit order
    by_degree = sorted(range(n), key=degree.__getitem__)
    connected = [q for q in by_degree if degree[q]] or by_degree
    starts = [q for q in connected if degree[q] == degree[connected[0]]]
    for start in starts[:AUTO_STARTS]:
        found = _min_frontier_pass(touched, users, start, by_degree, bound)
        if found is not None:
            bound, best = found
    return best


def order_factors(
    poly: FactorizedPolynomial, qubits: Optional[Sequence[int]] = None
) -> FactorizedPolynomial:
    """Reorder the factors; the amplitude is invariant, the boundary is not.

    ``qubits`` is the new order, a permutation of the qubit indices (else
    InvalidPermutation).  None works one out for any graph: the narrowest
    of the as-built order and up to AUTO_STARTS greedy min-frontier passes
    over the factor/slot incidence, one per minimum-degree start qubit.
    Width means max_active_slots, which bounds the sweep's live terms by
    2^width.
    """
    if qubits is None:
        qubits = _min_frontier_order(poly)
    else:
        qubits = list(qubits)
        if sorted(qubits) != list(range(poly.graph.n)):
            raise InvalidPermutation("factor order must be a permutation of the qubits")
    if qubits == [f.qubit for f in poly.factors]:
        return poly
    # a new polynomial, so activity is recomputed for the new order
    factor_of = {f.qubit: f for f in poly.factors}
    return FactorizedPolynomial(
        poly.graph, poly.assignment, [factor_of[q] for q in qubits], poly.spec
    )


def max_active_slots(poly: FactorizedPolynomial) -> int:
    """Peak number of slots whose activity interval covers one factor position."""
    return _peak_overlap(poly.activity.values(), len(poly.factors))


# ---------------------------------------------------------------------------
# angle file format: one "theta phi" line per qubit, '#' comments allowed.


def parse_angles_text(text: str) -> ProjectionSpec:
    thetas: list[float] = []
    phis: list[float] = []
    for _, line, fields in data_lines(text):
        if len(fields) != 2:
            raise SizeMismatch(f"angle lines carry 'theta phi', got {line!r}")
        thetas.append(float(fields[0]))
        phis.append(float(fields[1]))
    if not thetas:
        raise SizeMismatch("angle file has no angle lines")
    return ProjectionSpec(thetas, phis)


def format_angles_text(spec: ProjectionSpec, header: str = "") -> str:
    lines = []
    if header:
        lines.extend(f"# {h}" for h in header.splitlines())
    lines.extend(f"{float(t)!r} {float(p)!r}" for t, p in zip(spec.theta, spec.phi))
    return "\n".join(lines) + "\n"


def load_angles(path: Union[str, Path]) -> ProjectionSpec:
    return parse_angles_text(Path(path).read_text())


def save_angles(spec: ProjectionSpec, path: Union[str, Path], header: str = "") -> None:
    """Write ``spec`` in the angle file format, rewriting ``path`` in place."""
    with rewrite(path) as out:
        out.write(format_angles_text(spec, header))
