"""Evaluate factorized polynomials.

Four routes share one contract (the physical amplitude, 2^(-N/2) included):

  * sweep_evaluate       generic ordered contraction on a dense frontier.
                         All four letters are diagonal, so the live tensor is
                         a numpy array with one length-2 axis per active slot
                         (its diagonal index).  A slot is retired right
                         after the last factor touching it by summing its
                         axis, which frees the axis for the next slot.  A
                         factor that retires no slot is first multiplied
                         into a later factor touching all its slots, entry
                         by entry, so only the other factors are broadcast
                         multiplies on the frontier.  The live tensor holds
                         at most 2^(active slots) entries.  The axis plan is
                         built once per factor order (FrontierPlan).
  * line_recursion       the two-scalar recursion for line graphs,
                         O(n) adds and multiplies, counted exactly.
  * cross_chain_recursion  the same line recursion, run over the chain of
                         crosses with each leaf pair merged into one node.
  * column_evaluate      lattices of crosses: a boundary vector of {I,Z}-word
                         coefficients over one center column, carried
                         column to column by one diagonal per corner column
                         and one dense 2^k x 2^k map per block of up to
                         CENTER_BLOCK centers (the Kronecker product of
                         their 2x2 maps), applied as a matrix product.

The frontier loop, _contract, is the one contraction core: mbqc.py runs
patterns through it with every qubit owning its slot, bras as C/S weights
and the input and output slots left open (never retired).  sweep_batch and
column_batch run T projections in one pass of the same loops, the trial
axis leading the frontier and the column boundary; each trial's amplitude
is bitwise the one-projection result.

The paper's literal word-dict contraction (a map from tensor word to
coefficient, multiplied term by term) is kept as the test suite's reference,
tests/helpers.py::word_sweep.

Every route is pure apart from the sweep storing its plan on the polynomial
on first use and the column evaluator caching its per-shape index layout
(each the same whichever call builds it); distinct evaluations can run in
parallel freely.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .algebra import Letter, letter_matrix
from .errors import (
    ColumnTooWide,
    NonScalarResidue,
    NotALattice,
    RetirementBeforeOwner,
    SizeMismatch,
    TooSmall,
)
from .factorize import (
    FactorizedPolynomial,
    ProjectionSpec,
    build_polynomial,
    max_active_slots,
    order_factors,
    stack_specs,
)
from .graph import (
    ClusterGraph,
    build_lattice,
    graph_family,
    lattice_center,
    lattice_corner,
    lattice_row_major_order,
)


@dataclass
class EvalReport:
    """Amplitude plus profiling counters.

    mul_count / add_count tally complex multiplications and additions applied
    to the live coefficients, plus the final normalization multiply.  For the
    sweep, every surviving step (see FrontierPlan) costs one multiply per
    entry of the frontier it yields and every absorbed factor one per entry
    of its survivor it is multiplied into, and every retirement one add per
    entry it folds away (the factors' own c*diag + s*diag entries are not
    counted); for the recursions and the column evaluator they are the
    recursion steps and boundary updates (column_evaluate gives the column
    evaluator's closed forms; its maps' and corner diagonals' own entries
    are not counted).  max_live_terms is the peak size of the live
    coefficient container: for the sweep 2^max_active_slots, the frontier
    were every factor multiplied in at its own position (absorbed factors
    can leave the actual frontier narrower), 2 scalars for the recursions,
    the boundary vector length d for the column evaluator.
    """

    amplitude: complex
    max_live_terms: int
    add_count: int
    mul_count: int


@dataclass(frozen=True, eq=False)
class FrontierPlan:
    """The sweep's axis layout for one factor order; fixed by the words alone.

    The frontier has ``width`` axes; frontier axis a is numpy axis -1-a, so
    a leading trial axis (see _contract) passes every axis by.  An
    axis of length 2 carries one active slot's diagonal index; an axis of
    length 1 is free (the slot there is I).  Axes are allocated in factor
    order, a retired slot's axis going to the next slot to open.

    A factor that retires no slot is absorbed into the next later factor
    touching all its slots (or, touching none, into the next factor), and
    through it into the first factor along that chain that retires a slot
    or has no such successor: a survivor.  Only survivors are steps.  The
    absorbed factor's slots keep their axes until then, as none retires
    before its last touch, so each entry of the survivor is multiplied by
    the absorbed factor's entry on the same diagonal indices.

    ``c_diag`` and ``s_diag`` hold the factors' c-word and s-word diagonal
    entries in that gathered layout: survivor by survivor, each of its
    entries (over its axes, the highest axis most significant) followed by
    the absorbed factors' entries mapped onto it, in factor order; ``qubit``
    maps every entry to its factor's qubit, so the spec's C/S arrays expand
    onto the entries with one fancy index, and ``starts`` opens each
    survivor entry's run for one multiply.reduceat.  ``steps[i]`` is
    (entries, shape, retired axes) of the i-th survivor: the index of its
    reduced entries on the last axis (``[..., start:stop]``), the broadcast
    shape they take over all ``width`` axes, and the numpy axes summed right
    after it; ``open_axes`` are the final axes of the open (never retired)
    slots.  The counters are
    those of EvalReport, fixed by the layout; the peak frontier size is at
    most 2^width.
    """

    width: int
    qubit: np.ndarray
    c_diag: np.ndarray
    s_diag: np.ndarray
    starts: np.ndarray
    steps: tuple[tuple[tuple, tuple[int, ...], tuple[int, ...]], ...]
    add_count: int
    mul_count: int
    open_axes: tuple[int, ...] = ()


def _factor_layout(
    entries: tuple[tuple[int, Letter, Letter], ...]
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """c/s diagonals and broadcast shape of (axis, c letter, s letter) entries.

    ``entries`` run from the highest axis down, the numpy axis order.
    """
    c = s = np.ones(1)
    shape = [1] * (entries[0][0] + 1 if entries else 0)
    for axis, c_letter, s_letter in entries:
        c = np.kron(c, letter_matrix(c_letter).diagonal())
        s = np.kron(s, letter_matrix(s_letter).diagonal())
        shape[-1 - axis] = 2
    return c, s, tuple(shape)


def _entry_map(axes: tuple[int, ...], sub: tuple[int, ...]) -> np.ndarray:
    """For each entry of a factor on ``axes``, the entry of one on ``sub`` (a subset).

    Both run from the highest axis down, the first axis the most significant
    bit of an entry's index; the map is bit arithmetic on those indices, so
    it needs no array with as many dimensions as the axes.
    """
    index = np.arange(1 << len(axes))
    out = np.zeros_like(index)
    for axis in sub:
        out = (out << 1) | ((index >> (len(axes) - 1 - axes.index(axis))) & 1)
    return out


def _survivors(slots: Sequence[frozenset[int]], retire_at: Sequence[list[int]]) -> list[int]:
    """Each factor position's surviving step (see FrontierPlan), from the
    slots each factor touches and those each retires.

    The next later factor touching all of a factor's slots is found through
    the touch positions of one of its slots, so the search stays near-linear.
    """
    touches: dict[int, list[int]] = {}
    for pos, own in enumerate(slots):
        for slot in own:
            touches.setdefault(slot, []).append(pos)
    root = list(range(len(slots)))
    for pos in reversed(range(len(slots))):
        if retire_at[pos]:
            continue
        own = slots[pos]
        if own:
            later = min((touches[slot] for slot in own), key=len)
            candidates = later[bisect_right(later, pos):]
        else:
            candidates = range(pos + 1, min(pos + 2, len(slots)))
        for after in candidates:
            if own <= slots[after]:
                root[pos] = root[after]
                break
    return root


def _build_plan(poly: FactorizedPolynomial, open_slots: Sequence[int] = ()) -> FrontierPlan:
    """The plan of poly's factor order, ``open_slots`` left unretired."""
    retire_at: list[list[int]] = [[] for _ in poly.factors]
    for slot, (_, last) in poly.activity.items():
        if poly.owner_position[slot] > last:
            raise RetirementBeforeOwner(
                f"slot {slot} owner sits after the slot's last touch"
            )
        if slot not in open_slots:
            retire_at[last].append(slot)

    I, U = Letter.I, Letter.U
    axis_of: dict[int, int] = {}
    free: list[int] = []
    owned: set[int] = set()
    layouts: dict[tuple, tuple[np.ndarray, np.ndarray, tuple[int, ...]]] = {}
    width = 0
    layout_at = []
    axes_at: list[tuple[int, ...]] = []
    slot_sets: list[frozenset[int]] = []
    retired_axes: list[list[int]] = []
    for pos, factor in enumerate(poly.factors):
        c_of = dict(factor.c_word.entries)
        # slots of the s word, then those of the c word alone (s holds I)
        touched = [(slot, c_of.pop(slot, I), s) for slot, s in factor.s_word.entries]
        touched += [(slot, c, I) for slot, c in c_of.items()]
        entries = []
        for slot, c_letter, s_letter in touched:
            axis = axis_of.get(slot)
            if axis is None:
                # a slot touched after its retirement gets an axis again
                # and is left unretired at the end
                if free:
                    axis = free.pop()
                else:
                    axis = width
                    width += 1
                axis_of[slot] = axis
            if c_letter is U:
                owned.add(slot)
            entries.append((axis, c_letter, s_letter))
        entries.sort(reverse=True)
        key = tuple(entries)
        layout = layouts.get(key)
        if layout is None:
            layout = layouts[key] = _factor_layout(key)
        layout_at.append(layout)
        axes_at.append(tuple(axis for axis, _, _ in key))
        slot_sets.append(frozenset(slot for slot, _, _ in touched))

        retired = []
        for slot in retire_at[pos]:
            if slot not in owned:
                raise RetirementBeforeOwner(
                    f"slot {slot} retired while a live term still holds I there"
                )
            axis = axis_of.pop(slot)
            free.append(axis)
            retired.append(axis)
        retired_axes.append(retired)
    residue = set(axis_of).difference(open_slots)
    if residue:
        raise NonScalarResidue(f"sweep left slots {sorted(residue)} unretired")

    root = _survivors(slot_sets, retire_at)
    absorbed: list[list[int]] = [[] for _ in root]
    for pos, survivor in enumerate(root):
        if survivor != pos:
            absorbed[survivor].append(pos)
    # each survivor entry's run, as (factor, entry of that factor) pairs:
    # the entry indices come from one template per (survivor axes, absorbed
    # axes), the factors from a list, so the loop makes no array
    templates: dict[tuple, np.ndarray] = {}
    entry_parts: list[np.ndarray] = []
    factor_of: list[int] = []
    starts: list[int] = []
    steps = []
    live: set[int] = set()
    add = mul = stop = 0
    for pos, axes in enumerate(axes_at):
        if root[pos] != pos:
            continue
        members = [pos] + absorbed[pos]
        key = (axes,) + tuple(axes_at[sub] for sub in absorbed[pos])
        template = templates.get(key)
        if template is None:
            runs = [_entry_map(axes, sub) for sub in key]
            template = templates[key] = np.stack(runs, axis=-1).reshape(-1)
        entry_parts.append(template)
        size = 1 << len(axes)
        starts.extend(range(len(factor_of), len(factor_of) + len(members) * size, len(members)))
        factor_of.extend(members * size)

        # the frontier holds the axes multiplied in and not yet summed
        live.update(axes)
        frontier = 1 << len(live)
        mul += frontier + size * len(absorbed[pos])
        live.difference_update(retired_axes[pos])
        add += frontier - (frontier >> len(retired_axes[pos]))
        retire = tuple(-1 - axis for axis in retired_axes[pos])
        shape = (1,) * (width - len(layout_at[pos][2])) + layout_at[pos][2]
        steps.append(((..., slice(stop, stop + size)), shape, retire))
        stop += size

    offsets = np.cumsum([0] + [c.size for c, _, _ in layout_at[:-1]])
    rows = np.array(factor_of)
    index = offsets[rows] + np.concatenate(entry_parts)
    return FrontierPlan(
        width=width,
        qubit=np.array([f.qubit for f in poly.factors])[rows],
        c_diag=np.concatenate([c for c, _, _ in layout_at])[index],
        s_diag=np.concatenate([s for _, s, _ in layout_at])[index],
        starts=np.array(starts),
        steps=tuple(steps),
        add_count=add,
        mul_count=mul + 1,
        open_axes=tuple(-1 - axis_of[slot] for slot in open_slots),
    )


def frontier_plan(poly: FactorizedPolynomial) -> FrontierPlan:
    """The polynomial's FrontierPlan, built on first use and kept on it.

    bind_spec clones share the plan, as they share the activity intervals.
    The build checks the retirement invariants: a slot retires only after
    its owner factor (else RetirementBeforeOwner), and no slot is left
    unretired at the end, as one touched after its retirement would be
    (else NonScalarResidue).
    """
    if poly.plan is None:
        poly.plan = _build_plan(poly)
    return poly.plan


def _contract(plan: FrontierPlan, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The unnormalized final frontier, c[q]/s[q] weighting q's words; 2 long on open axes.

    One multiply.reduceat folds the absorbed factors' entries into their
    survivors' (see FrontierPlan); only the survivors touch the frontier.
    c and s are (n,) arrays, or (T, n) for T projections at once.  The T
    frontiers then share a leading axis, which every factor and retirement
    passes over, as their axes count from the end; one projection runs with
    no leading axis.
    """
    values = c.take(plan.qubit, -1) * plan.c_diag + s.take(plan.qubit, -1) * plan.s_diag
    values = np.multiply.reduceat(values, plan.starts, axis=-1)
    lead = c.shape[:-1]
    frontier = np.ones(lead + (1,) * plan.width, dtype=complex)
    for index, shape, retire in plan.steps:
        frontier = frontier * values[index].reshape(lead + shape)
        if retire:
            frontier = np.add.reduce(frontier, axis=retire, keepdims=True)
    return frontier


def sweep_evaluate(poly: FactorizedPolynomial) -> EvalReport:
    """Contract the polynomial in its stored factor order on a dense frontier.

    Each factor is multiplied in as the broadcast array
    C_p*diag(c_word) + S_p*diag(s_word) over the axes of the slots it
    touches, with C_p/S_p read from poly.spec;
    right after a slot's last factor its axis is summed (the trace of U and
    D is 1, of Z 0) and left free for the next slot to open.
    """
    plan = frontier_plan(poly)
    frontier = _contract(plan, poly.spec.c, poly.spec.s)
    amplitude = (2.0 ** (-poly.norm_exponent / 2.0)) * frontier.item()
    return EvalReport(
        amplitude=complex(amplitude),
        max_live_terms=1 << plan.width,
        add_count=plan.add_count,
        mul_count=plan.mul_count,
    )


def sweep_batch(poly: FactorizedPolynomial, specs: Sequence[ProjectionSpec]) -> np.ndarray:
    """sweep_evaluate's amplitude under each of T specs, as a (T,) array.

    One pass of poly's plan with a leading trial axis (see _contract); the
    spec poly itself carries is not read.  Each trial's amplitude is bitwise
    the one sweep_evaluate gives.
    """
    frontier = _contract(frontier_plan(poly), *stack_specs(specs, poly.graph.n))
    return (2.0 ** (-poly.norm_exponent / 2.0)) * frontier.reshape(len(specs))


# ---------------------------------------------------------------------------
# line and cross-chain recursions


def _line_sum(c: Sequence[complex], s: Sequence[complex]) -> complex:
    """The unnormalized amplitude of a line whose node k has the bra (c[k], s[k]).

    p and q sum the signed bra products over the nodes so far, with the
    last node at 0 and at 1; each later node takes them to
    (c[k](p+q), s[k](p-q)), the edge's sign flipping the terms whose
    previous node is 1.
    """
    p, q = c[0], s[0]
    for ck, sk in zip(c[1:], s[1:]):
        p, q = ck * (p + q), sk * (p - q)
    return p + q


def line_recursion(spec: ProjectionSpec) -> EvalReport:
    """Two-scalar recursion for the n-qubit line, any n >= 1.

    Each node after the first costs 2 multiplies and 2 adds, the final sum
    one add and the normalization one multiply: mul_count = add_count =
    2n - 1.
    """
    n = spec.n
    raw = _line_sum(spec.c.tolist(), spec.s.tolist())
    return EvalReport(complex((2.0 ** (-n / 2.0)) * raw), 2, 2 * n - 1, 2 * n - 1)


def cross_chain_recursion(spec: ProjectionSpec) -> EvalReport:
    """The line recursion over the canonical chain of k crosses (3k+2 qubits).

    The two leaves of pair i (qubits 2i, 2i+1) have the same neighbours,
    centers i-1 and i where they exist, so those see only the leaves'
    parity, and the pair merges into one node with the bra

        Ct_i = C_a C_b + S_a S_b,   St_i = C_a S_b + S_a C_b.

    The chain is then the line pair 0, center 0, pair 1, ..., center k-1,
    pair k (center j is qubit 2k+2+j) of 2k+1 nodes, normalized by
    2^(-(3k+2)/2).  The merges cost 4 multiplies and 2 adds per pair, so
    mul_count = 8k + 5 and add_count = 6k + 3.
    """
    n = spec.n
    if n < 5:
        raise TooSmall(f"cross chain needs at least 5 qubits, got {n}")
    if (n - 2) % 3:
        raise SizeMismatch(f"cross chain sizes are 3k+2, got {n}")
    k = (n - 2) // 3
    c, s = spec.c, spec.s
    leaves = 2 * k + 2
    ca, cb, sa, sb = c[0:leaves:2], c[1:leaves:2], s[0:leaves:2], s[1:leaves:2]
    nodes_c = np.empty(2 * k + 1, dtype=complex)
    nodes_s = np.empty(2 * k + 1, dtype=complex)
    nodes_c[0::2] = ca * cb + sa * sb
    nodes_s[0::2] = ca * sb + sa * cb
    nodes_c[1::2] = c[leaves:]
    nodes_s[1::2] = s[leaves:]
    raw = _line_sum(nodes_c.tolist(), nodes_s.tolist())
    return EvalReport(complex((2.0 ** (-n / 2.0)) * raw), 2, 6 * k + 3, 8 * k + 5)


# ---------------------------------------------------------------------------
# column/block evaluator for lattices of crosses


@lru_cache(maxsize=16)
def _column_layout(m: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, tuple]:
    """Qubit indices, the word permutation and the center blocks of the m x n lattice.

    Returns (corners, centers, gray, blocks): corners[c, r] is corner (r, c),
    centers[j, i] is center (i, j), and gray[w] is the corner assignment
    y < 2^m whose word y ^ (y >> 1) is w.  blocks holds (lo, xor) for each
    run of up to CENTER_BLOCK centers lo..lo+k-1 of a column, xor[a, b] =
    a ^ b over a, b < 2^k.  Read-only, as every caller of the shape shares
    them.
    """
    corners = np.array(
        [[lattice_corner(m, n, r, c) for r in range(m + 1)] for c in range(n + 1)]
    )
    centers = np.array([[lattice_center(m, n, i, j) for i in range(m)] for j in range(n)])
    y = np.arange(1 << m)
    gray = np.empty_like(y)
    gray[y ^ (y >> 1)] = y
    blocks = []
    for lo in range(0, m, CENTER_BLOCK):
        w = np.arange(1 << min(CENTER_BLOCK, m - lo))
        blocks.append((lo, w[:, None] ^ w))
    for arr in (corners, centers, gray) + tuple(xor for _, xor in blocks):
        arr.setflags(write=False)
    return corners, centers, gray, tuple(blocks)


def _corner_diagonals(block: np.ndarray, gray: np.ndarray) -> np.ndarray:
    """The diagonals over the words of B corner columns, lead + (B, d).

    block[..., b, r, :] is corner r's (C, S) in the b-th column.  The chain
    X of all m+1 corners, corner 0 least significant, holds C_m W[y] at y
    and S_m W[2^m-1-y] at 2^(m+1)-1-y, so D = X[y] + X[2^(m+1)-1-y].
    """
    chain = block[..., 0, :]
    for r in range(1, block.shape[-2]):
        chain = block[..., r, :, None] * chain[..., None, :]
        chain = chain.reshape(chain.shape[:-2] + (2 << r,))
    d = len(gray)
    sums = chain[..., :d] + chain[..., : d - 1 : -1]
    del chain  # before the gather, which allocates as much again
    # take, whose result is C-contiguous (sums[..., gray] would give the
    # index axis the largest stride), so a batch's diagonal multiplies row
    # by row as one projection's does
    return sums.take(gray, axis=-1)


def _center_maps(signs: np.ndarray, lo: int, xor: np.ndarray) -> np.ndarray:
    """The dense maps of one center block in each column, lead + (columns, 2^k, 2^k).

    signs[..., j, i, :] is center (i, j)'s (C+S, C-S), the 2x2 map
    [[C+S, C-S], [C-S, C+S]] on its slot, whose entry (a, b) is the pair's
    entry a ^ b.  The Kronecker product of the maps of centers lo..lo+k-1
    is therefore M[a, b] = K[a ^ b], K the Kronecker chain of their pairs,
    center lo least significant; M is symmetric.
    """
    chain = signs[..., lo, :]
    for i in range(lo + 1, lo + len(xor).bit_length() - 1):
        chain = signs[..., i, :, None] * chain[..., None, :]
        chain = chain.reshape(chain.shape[:-2] + (2 << (i - lo),))
    return chain.take(xor, axis=-1)


# Most center slots per column that column_evaluate takes (2^cap boundary).
COLUMN_ROW_CAP = 16

# Most chain entries (2^(m+1) per corner column and trial) built in one block
# of corner columns: 2^(cap/2), a few KiB of temporaries.  Blocks cut the
# per-column numpy calls of short lattices without adding to the peak memory
# of tall ones: above 7 rows one chain alone passes this, and the corner
# columns are built one at a time.  The center maps of the same columns are
# built with them.
CORNER_BLOCK_ENTRIES = 1 << (COLUMN_ROW_CAP // 2)

# Most centers of a column applied as one dense map.  A block of k centers
# costs one matrix product with its 2^k x 2^k map, d 2^k multiplies, where
# k 2x2 maps applied one by one cost 2kd multiplies but k times the numpy
# calls; on 2 vCPUs (numpy 2.4, OpenBLAS) blocks of 3 beat the one-by-one
# maps on every lattice from 3x10 to 16x4.
CENTER_BLOCK = 3


def _column_shape(g: ClusterGraph) -> tuple[int, int]:
    """The lattice's (rows, columns); the column engine's fit test (see engines)."""
    shape = graph_family(g).lattice
    if shape is None:
        raise NotALattice("column evaluator needs a canonical cross lattice")
    m, n = shape
    if m > COLUMN_ROW_CAP:
        raise ColumnTooWide(
            f"center column holds {m} slots, above the cap of {COLUMN_ROW_CAP}"
        )
    return m, n


def column_evaluate(g: ClusterGraph, spec: ProjectionSpec) -> EvalReport:
    """Evaluate an m x n lattice of crosses column by column.

    The boundary holds d = 2^m coefficients over {I,Z}-words on the current
    center column's slots; bit i of a word index is the Z/I letter at the
    column's i-th center, top to bottom.

    A corner column is one diagonal on the boundary.  Its assignment y
    (bit r picks S over C at corner r) puts Z on center i of both
    neighbouring center columns where corners i and i+1 disagree, the word
    w = (y ^ y >> 1) mod 2^m.  Exactly two assignments give each word: y
    and its complement.  Take y < 2^m, i.e. y = gray[w]; its complement
    has corner m set and corners 0..m-1 at 2^m-1-y.  With W the Kronecker
    chain of the (C, S) pairs of corners 0..m-1, the column's diagonal is

        D[w] = C_m W[y] + S_m W[2^m-1-y],   y = gray[w].

    Multiplying by D retires the left center column (a Z met by the same Z
    leaves I) and seeds the same words on the right one.  The first
    column's D is the initial boundary; after the last one's multiply the
    boundary is summed.  A center factor C U + S D = ((C+S) I + (C-S) Z)/2
    acts on its slot as the 2x2 map [[C+S, C-S], [C-S, C+S]]: twice the
    factor's map, the 2 being trace(I) of the slot, which the next corner
    column retires.  A column's centers are applied in blocks of up to
    CENTER_BLOCK, each block's k maps as their one 2^k x 2^k Kronecker
    product (see _center_maps) in one matrix product on the boundary.

    Counters: each block of k centers costs d 2^k multiplies and
    d (2^k - 1) adds, each corner column after the first d multiplies and
    the final sum d-1 adds, plus the normalization multiply.  With a
    column's blocks k_1, ..., k_b (3s and then m mod 3, if not 0):
    mul_count = n d (2^k_1 + ... + 2^k_b + 1) + 1 and
    add_count = n d (2^k_1 + ... + 2^k_b - b) + d - 1.  The maps' and
    diagonals' own entries are not counted, as the sweep does not count
    its factors' entries.  max_live_terms = d.  The lattice shape is read
    from graph.graph_family, so it is detected once per graph.
    """
    m, n = _column_shape(g)
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    dim = 1 << m
    sizes = [len(xor) for _, xor in _column_layout(m, n)[3]]
    amplitude = (2.0 ** (-g.n / 2.0)) * _column_sum(m, n, spec.c, spec.s)
    return EvalReport(
        amplitude=complex(amplitude),
        max_live_terms=dim,
        add_count=n * dim * (sum(sizes) - len(sizes)) + dim - 1,
        mul_count=n * dim * (sum(sizes) + 1) + 1,
    )


def column_batch(g: ClusterGraph, specs: Sequence[ProjectionSpec]) -> np.ndarray:
    """column_evaluate's amplitude under each of T specs, as a (T,) array.

    The same column loop on a (T, d) boundary; each trial's amplitude is
    bitwise the one column_evaluate gives.
    """
    m, n = _column_shape(g)
    if not specs:
        return np.zeros(0, dtype=complex)
    return (2.0 ** (-g.n / 2.0)) * _column_sum(m, n, *stack_specs(specs, g.n))


def _column_sum(m: int, n: int, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The summed final boundary of the m x n lattice, for C/S arrays of one
    projection (one entry per qubit) or of T projections (T rows).

    T projections lead the boundary with their trial axis, (T, d), so each
    trial's every product is the very call one projection makes: its
    diagonal multiply runs over one contiguous row, and its map products
    are BLAS calls of the same shapes, stacked over the trials.
    """
    corners, centers, gray, blocks = _column_layout(m, n)
    lead = c.shape[:-1]
    pairs = np.empty(lead + corners.shape + (2,), dtype=complex)
    pairs[..., 0] = c[..., corners]
    pairs[..., 1] = s[..., corners]
    cc, sc = c[..., centers], s[..., centers]
    signs = np.empty(lead + centers.shape + (2,), dtype=complex)
    signs[..., 0] = cc + sc
    signs[..., 1] = cc - sc

    # a block of columns at a time: corner column j's diagonal, then center
    # column j's maps; the block's chains (2^(m+1) entries per corner column
    # and trial) within CORNER_BLOCK_ENTRIES, one column at a time when a
    # single chain is larger
    trials = c.size // c.shape[-1]
    block = max(1, CORNER_BLOCK_ENTRIES // (trials << (m + 1)))
    boundary = spare = diagonals = maps = None
    for j in range(n + 1):
        if j % block == 0:
            diagonals = maps = None  # dropped before the next block is built
            diagonals = _corner_diagonals(pairs[..., j : j + block, :, :], gray)
            maps = [_center_maps(signs[..., j : j + block, :, :], lo, xor) for lo, xor in blocks]
        if boundary is None:
            # a contiguous copy: a batch's diagonal strides over the block
            boundary = diagonals[..., 0, :].copy()
            spare = np.empty_like(boundary)
        else:
            boundary *= diagonals[..., j % block, :]
        if j == n:
            break
        # the two buffers take turns as each product's output, so no block
        # allocates
        for (lo, xor), block_maps in zip(blocks, maps):
            mat = block_maps[..., j % block, :, :]
            if lo:
                shape = lead + (-1, len(xor), 1 << lo)
                np.matmul(mat[..., None, :, :], boundary.reshape(shape), out=spare.reshape(shape))
            else:  # b M^T for the boundary as rows of 2^k, M being symmetric
                shape = lead + (-1, len(xor))
                np.matmul(boundary.reshape(shape), mat, out=spare.reshape(shape))
            boundary, spare = spare, boundary
    return boundary.sum(axis=-1)


# ---------------------------------------------------------------------------
# profiling


def lattice_width_profile(
    height: int, widths: Sequence[int], seed: int = 0
) -> list[dict]:
    """Live-term growth table for lattices of a fixed height and varying width."""
    rows = []
    for width in widths:
        g = build_lattice(height, width)
        rng = np.random.default_rng([seed, height, width])
        spec = ProjectionSpec.random(g.n, rng)
        poly = order_factors(build_polynomial(g, spec), lattice_row_major_order(height, width))
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
