"""Evaluate factorized polynomials.

Four routes share one contract (the physical amplitude, 2^(-N/2) included):

  * sweep_evaluate       generic ordered contraction.  A term sum (word ->
                         coefficient) absorbs one factor at a time; a slot is
                         retired right after the last factor touching it,
                         which is what keeps live words bounded by the number
                         of simultaneously active slots.
  * line_recursion       the two-scalar recursion for line graphs,
                         O(n) adds and multiplies, counted exactly.
  * cross_chain_recursion  leaf pairs merged, then a two-scalar recursion
                         along the chain of crosses.
  * column_evaluate      lattices of crosses: a boundary vector of {I,Z}-word
                         coefficients over one center column, carried
                         column-to-column by word matching.

Every route is pure; distinct evaluations can run in parallel freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import EMPTY_WORD, Letter, TensorWord, ZERO, word_mul
from .errors import (
    ColumnTooWide,
    NonScalarResidue,
    NotALattice,
    RetirementBeforeOwner,
    SizeMismatch,
    TooSmall,
)
from .factorize import (
    Factor,
    FactorizedPolynomial,
    ProjectionSpec,
    build_polynomial,
    max_active_slots,
    order_factors,
)
from .graph import ClusterGraph, build_lattice, detect_lattice, lattice_center, lattice_corner


@dataclass
class EvalReport:
    """Amplitude plus profiling counters.

    mul_count / add_count tally complex multiplications and additions applied
    to term or boundary coefficients (branch products, merges, recursion
    steps, the final normalization).  max_live_terms is the peak size of the
    live coefficient container: distinct words for the sweep, 2 scalars for
    the recursions, the boundary vector length for the column evaluator.
    """

    amplitude: complex
    max_live_terms: int
    add_count: int
    mul_count: int


@dataclass
class RecursionState:
    """Live pair of traces inside the line (or chain) recursion."""

    trP: complex
    trQ: complex
    stage: int


class TermSum:
    """Map from tensor word to complex coefficient; the sweep's live boundary.

    Invariants: no ZERO words are ever stored, and coefficients that merge to
    exactly 0 are removed.
    """

    __slots__ = ("terms", "mul_count", "add_count")

    def __init__(self) -> None:
        self.terms: dict[TensorWord, complex] = {EMPTY_WORD: 1.0 + 0.0j}
        self.mul_count = 0
        self.add_count = 0

    def __len__(self) -> int:
        return len(self.terms)

    def multiply_factor(self, factor: Factor) -> None:
        """Replace every term by its two branch products, merging equal words."""
        new: dict[TensorWord, complex] = {}
        branches = factor.branches()
        mul = add = 0
        _word_mul = word_mul
        _zero = ZERO
        for word, coef in self.terms.items():
            for bcoef, bword in branches:
                prod = _word_mul(word, bword)
                if prod is _zero:
                    continue
                sign, w = prod
                mul += 1
                c = coef * bcoef
                if c == 0:
                    continue
                if sign < 0:
                    c = -c
                if w in new:
                    add += 1
                    c = new[w] + c
                    if c == 0:
                        del new[w]
                        continue
                new[w] = c
        self.terms = new
        self.mul_count += mul
        self.add_count += add

    def retire_slot(self, slot: int) -> None:
        """Trace out one slot: U/D keep the term (trace 1), Z annihilates it.

        An implicit I at retirement means the owner factor has not been
        applied yet, i.e. the factor order violates the slot's activity
        interval.
        """
        new: dict[TensorWord, complex] = {}
        for word, coef in self.terms.items():
            letter, rest = word.split_slot(slot)
            if letter is Letter.Z:
                continue
            if letter is Letter.I:
                raise RetirementBeforeOwner(
                    f"slot {slot} retired while a live term still holds I there"
                )
            if rest in new:
                self.add_count += 1
                c = new[rest] + coef
                if c == 0:
                    del new[rest]
                    continue
                new[rest] = c
            else:
                new[rest] = coef
        self.terms = new

    def prune(self, epsilon: float) -> None:
        self.terms = {w: c for w, c in self.terms.items() if abs(c) >= epsilon}


def sweep_evaluate(
    poly: FactorizedPolynomial, prune_epsilon: Optional[float] = None
) -> EvalReport:
    """Contract the polynomial in its stored factor order.

    prune_epsilon, when set, drops terms with |coefficient| below it after
    each factor.  That makes the result lossy; it exists for profiling only.
    """
    retire_at: list[list[int]] = [[] for _ in poly.factors]
    for slot, (_, last) in poly.activity.items():
        if poly.owner_position[slot] > last:
            raise RetirementBeforeOwner(
                f"slot {slot} owner sits after the slot's last touch"
            )
        retire_at[last].append(slot)

    state = TermSum()
    max_live = len(state)
    for pos, factor in enumerate(poly.factors):
        state.multiply_factor(factor)
        max_live = max(max_live, len(state))
        for slot in sorted(retire_at[pos]):
            state.retire_slot(slot)
        if prune_epsilon is not None:
            state.prune(prune_epsilon)

    for word in state.terms:
        if not word.is_identity:
            raise NonScalarResidue(f"sweep left unretired word {word}")
    scalar = state.terms.get(EMPTY_WORD, 0.0 + 0.0j)
    state.mul_count += 1
    amplitude = (2.0 ** (-poly.norm_exponent / 2.0)) * scalar
    return EvalReport(
        amplitude=complex(amplitude),
        max_live_terms=max_live,
        add_count=state.add_count,
        mul_count=state.mul_count,
    )


# ---------------------------------------------------------------------------
# line recursion


def line_recursion(spec: ProjectionSpec) -> EvalReport:
    """Two-scalar recursion for the n-qubit line, n >= 3.

    Stage k holds the traces of the P/Q pair after absorbing qubits up to
    k+1; each stage costs exactly 2 multiplies and 2 adds.  Counter totals
    are exactly affine: mul_count = add_count = 2n - 1 (head, n-3 stages,
    tail, final normalization).
    """
    n = spec.n
    if n < 3:
        raise TooSmall(f"line recursion needs n >= 3, got {n}; use line_amplitude")
    c, s = spec.c, spec.s
    mul = add = 0

    state = RecursionState(trP=c[1] * (c[0] + s[0]), trQ=s[1] * (c[0] - s[0]), stage=1)
    mul += 2
    add += 2
    for k in range(2, n - 1):
        trp = c[k] * (state.trP + state.trQ)
        trq = s[k] * (state.trP - state.trQ)
        mul += 2
        add += 2
        state = RecursionState(trP=trp, trQ=trq, stage=k)

    raw = (c[n - 1] + s[n - 1]) * state.trP + (c[n - 1] - s[n - 1]) * state.trQ
    mul += 2
    add += 3
    amplitude = (2.0 ** (-n / 2.0)) * raw
    mul += 1
    return EvalReport(amplitude=complex(amplitude), max_live_terms=2, add_count=add, mul_count=mul)


def line_amplitude(spec: ProjectionSpec) -> EvalReport:
    """Line amplitude for any n >= 1: closed forms below n = 3, recursion above."""
    n = spec.n
    c, s = spec.c, spec.s
    if n == 1:
        raw = c[0] + s[0]
        return EvalReport(complex(raw / np.sqrt(2.0)), 2, 1, 1)
    if n == 2:
        raw = c[0] * (c[1] + s[1]) + s[0] * (c[1] - s[1])
        return EvalReport(complex(0.5 * raw), 2, 3, 3)
    return line_recursion(spec)


# ---------------------------------------------------------------------------
# cross-chain recursion


def cross_chain_recursion(spec: ProjectionSpec) -> EvalReport:
    """O(k) recursion for the canonical chain of k crosses (3k+2 qubits).

    Leaf pairs merge into single binomials first:
        Ct_i = C_a C_b + S_a S_b,   St_i = C_a S_b + S_a C_b
    for pair i = leaves (2i, 2i+1).  Center j contributes the traces
    t+ = C + S and t- = C - S of its U/D binomial.  The boundary pair
    (p, q) then follows

        p_j = Ct_j p_{j-1} t+_j + St_j q_{j-1} t-_j
        q_j = Ct_j p_{j-1} t-_j + St_j q_{j-1} t+_j

    seeded with p_{-1} = q_{-1} = 1; the final pair of leaves closes the
    chain with Ct_k p + St_k q.  The head and tail are not spelled out by
    the recursion itself; this form is locked in by the oracle tests.
    """
    n = spec.n
    if n < 5:
        raise TooSmall(f"cross chain needs at least 5 qubits, got {n}")
    if (n - 2) % 3:
        raise SizeMismatch(f"cross chain sizes are 3k+2, got {n}")
    k = (n - 2) // 3
    c, s = spec.c, spec.s
    mul = add = 0

    ct = np.empty(k + 1, dtype=complex)
    st = np.empty(k + 1, dtype=complex)
    for i in range(k + 1):
        a, b = 2 * i, 2 * i + 1
        ct[i] = c[a] * c[b] + s[a] * s[b]
        st[i] = c[a] * s[b] + s[a] * c[b]
        mul += 4
        add += 2

    p = q = 1.0 + 0.0j
    for j in range(k):
        center = 2 * k + 2 + j
        tp = c[center] + s[center]
        tm = c[center] - s[center]
        add += 2
        p, q = ct[j] * p * tp + st[j] * q * tm, ct[j] * p * tm + st[j] * q * tp
        mul += 8
        add += 2

    raw = ct[k] * p + st[k] * q
    mul += 2
    add += 1
    amplitude = (2.0 ** (-n / 2.0)) * raw
    mul += 1
    return EvalReport(amplitude=complex(amplitude), max_live_terms=2, add_count=add, mul_count=mul)


# ---------------------------------------------------------------------------
# column/block evaluator for lattices of crosses


@dataclass
class ColumnVector:
    """Coefficients over {I,Z}-words on one center column's slots.

    Bit i of a word index is the Z/I letter at the column's i-th center
    (top to bottom); ``slots`` lists those center qubit ids.
    """

    column: int
    slots: tuple[int, ...]
    coefficients: np.ndarray


def _corner_column_expansion(
    m: int, n: int, c_col: int, spec: ProjectionSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Weights and matched center-column words for one corner column.

    Returns (weights, words): entry y runs over the 2^(m+1) branch choices
    of the column's corners; words[y] has bit i set iff corners i and i+1
    disagree, which is exactly where the pair of Zs lands on the adjacent
    center columns.
    """
    y = np.arange(1 << (m + 1))
    weights = np.ones(y.shape, dtype=complex)
    for r in range(m + 1):
        qubit = lattice_corner(m, n, r, c_col)
        bit = (y >> r) & 1
        weights = weights * np.where(bit, spec.s[qubit], spec.c[qubit])
    words = (y ^ (y >> 1)) & ((1 << m) - 1)
    return weights, words


# Most center slots per column that column_evaluate takes (2^cap boundary).
COLUMN_ROW_CAP = 16


def column_evaluate(
    g: ClusterGraph, spec: ProjectionSpec, row_cap: int = COLUMN_ROW_CAP
) -> EvalReport:
    """Evaluate an m x n lattice of crosses column by column.

    The boundary is a ColumnVector over the current center column (2^m
    coefficients).  A corner column's expansion places the same Z pattern on
    both neighboring center columns, so retiring the left column and seeding
    the right one is a word-matched elementwise product; center factors act
    as the per-slot 2x2 map induced by U = (I+Z)/2, D = (I-Z)/2.
    """
    shape = detect_lattice(g)
    if shape is None:
        raise NotALattice("column evaluator needs a canonical cross lattice")
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    m, n = shape
    if m > row_cap:
        raise ColumnTooWide(
            f"center column holds {m} slots, above the cap of {row_cap}"
        )
    mul = add = 0
    dim = 1 << m

    weights, words = _corner_column_expansion(m, n, 0, spec)
    coeffs = np.zeros(dim, dtype=complex)
    np.add.at(coeffs, words, weights)
    add += weights.size
    boundary = ColumnVector(
        column=0,
        slots=tuple(lattice_center(m, n, i, 0) for i in range(m)),
        coefficients=coeffs,
    )

    result = 0.0 + 0.0j
    for j in range(n):
        # center column j: per-slot linear map on the I/Z components
        for i in range(m):
            qubit = lattice_center(m, n, i, j)
            alpha = 0.5 * (spec.c[qubit] + spec.s[qubit])
            beta = 0.5 * (spec.c[qubit] - spec.s[qubit])
            v = boundary.coefficients.reshape(-1, 2, 1 << i)
            lo = v[:, 0, :].copy()
            hi = v[:, 1, :]
            v[:, 0, :] = alpha * lo + beta * hi
            v[:, 1, :] = beta * lo + alpha * hi
            mul += 2 * dim
            add += dim

        weights, words = _corner_column_expansion(m, n, j + 1, spec)
        matched = boundary.coefficients[words] * weights
        mul += weights.size
        if j + 1 < n:
            coeffs = np.zeros(dim, dtype=complex)
            np.add.at(coeffs, words, matched)
            add += weights.size
            boundary = ColumnVector(
                column=j + 1,
                slots=tuple(lattice_center(m, n, i, j + 1) for i in range(m)),
                coefficients=coeffs,
            )
        else:
            result = complex(matched.sum())
            add += weights.size

    # every retired slot contributed trace(I) = 2 on the matched words
    amplitude = (2.0 ** (m * n - g.n / 2.0)) * result
    mul += 1
    return EvalReport(
        amplitude=complex(amplitude), max_live_terms=dim, add_count=add, mul_count=mul
    )


# ---------------------------------------------------------------------------
# profiling


def profile(
    poly: FactorizedPolynomial, orderings: Sequence[str] = ("as-built",)
) -> list[tuple[str, int, EvalReport]]:
    """Run the sweep under each ordering; report boundary width and counters.

    Rows are (ordering, max_active_slots, EvalReport).  This measures cost,
    it asserts nothing about how cost scales.
    """
    rows = []
    for strategy in orderings:
        ordered = order_factors(poly, strategy)
        rows.append((strategy, max_active_slots(ordered), sweep_evaluate(ordered)))
    return rows


def lattice_width_profile(
    height: int, widths: Sequence[int], seed: int = 0
) -> list[dict]:
    """Live-term growth table for lattices of a fixed height and varying width."""
    rows = []
    for width in widths:
        g = build_lattice(height, width)
        rng = np.random.default_rng([seed, height, width])
        spec = ProjectionSpec.random(g.n, rng)
        poly = order_factors(build_polynomial(g, spec), "row-major")
        report = sweep_evaluate(poly)
        rows.append(
            {
                "height": height,
                "width": width,
                "qubits": g.n,
                "max_active_slots": max_active_slots(poly),
                "max_live_terms": report.max_live_terms,
                "mul_count": report.mul_count,
                "add_count": report.add_count,
            }
        )
    return rows
