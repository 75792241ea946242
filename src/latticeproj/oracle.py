"""Two independent brute-force references for the projection amplitude.

Conventions frozen here and documented loudly:

  * Basis index bit order: qubit 0 is the most significant bit of the
    2^n-dimensional statevector index.
  * The statevector is real: float64 signs times 2^(-n/2), built from the
    edge list alone by doubling over the qubits.
  * One graph's statevector is held: ``build_statevector`` keeps the last
    graph it built and that vector's read-only array, and hands out a fresh
    ``StateVector`` around it while the graph stays (by value) the same.  A
    different graph drops the held array before its own is built, so at
    most one vector (8 << n bytes) is retained and never two are live.
    The qubit cap is read on every call, hit or miss.  Threads racing on
    the slot can at worst build twice.
  * The projection folds the vector with two half-bras, each a numpy
    Kronecker chain of the (C_p, S_p) pairs (one array multiply per qubit).
    ``project_statevector_batch`` and ``direct_sum_batch`` take T specs in
    one pass: every per-spec array gains a leading trial axis, so the fold's
    matrix-vector products become two real matrix products.  Both stay brute
    force from the edge list, the specs' C/S arrays only stacked.
  * ``direct_sum`` checks the partition and derives its per-target
    neighbour masks once per (graph, bipartition); the 2^k arrays it sums
    stay per call.
  * The projection bra applies C_p and S_p as written, without complex
    conjugation.  That matches the C/S parameterization of the projector;
    it is NOT the Hermitian inner product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .errors import BadSetting, NotBipartite, SizeMismatch, TooLarge, TooManyControls
from .factorize import ProjectionSpec, stack_specs
from .graph import Bipartition, ClusterGraph, adjacency

DEFAULT_STATEVEC_CAP = 20
STATEVEC_CAP_ENV = "LATTICEPROJ_STATEVEC_CAP"
# Most control qubits direct_sum takes (a 2^cap-term sum).
DIRECT_SUM_CONTROL_CAP = 24


def statevector_cap() -> int:
    """Maximum qubit count for dense statevectors (env override allowed)."""
    raw = os.environ.get(STATEVEC_CAP_ENV)
    if raw is None:
        return DEFAULT_STATEVEC_CAP
    try:
        return int(raw)
    except ValueError:
        raise BadSetting(f"{STATEVEC_CAP_ENV} must be an integer, got {raw!r}")


@dataclass
class StateVector:
    """Amplitudes of length 2^n (a power of two), qubit 0 = most significant bit."""

    amplitudes: np.ndarray

    @property
    def n(self) -> int:
        size = self.amplitudes.shape[0]
        if size < 1 or size & (size - 1):
            raise SizeMismatch(f"{size} amplitudes is not a power of two")
        return size.bit_length() - 1


# The last graph build_statevector built and its read-only amplitudes.
_held: Optional[tuple[ClusterGraph, np.ndarray]] = None


def build_statevector(g: ClusterGraph) -> StateVector:
    """|+>^n with a CZ on every edge, as float64 ±2^(-n/2) built by doubling.

    The cap is checked on every call.  One graph's vector is held: when g
    equals (by value) the last graph built, the result is a fresh
    StateVector around that graph's read-only array.  Otherwise the held
    array is dropped first, so two vectors are never live at once, and g's
    is built and held instead.  Threads racing here can at worst build twice
    (two vectors live for that moment); each gets its own graph's vector.
    """
    global _held
    if g.n > (cap := statevector_cap()):
        raise TooLarge(
            f"statevector for {g.n} qubits exceeds the cap of {cap} "
            f"(set {STATEVEC_CAP_ENV} to raise it)"
        )
    held = _held
    if held is None or held[0] != g:
        _held = held = None
        amps = _doubling_build(g)
        amps.flags.writeable = False
        _held = held = (g, amps)
    return StateVector(held[1])


def _doubling_build(g: ClusterGraph) -> np.ndarray:
    """The statevector's float64 amplitudes, built by doubling.

    Bit x of the Python int ``parity`` is set where amplitude x is negative.
    After k steps it holds the last k qubits; placing the qubit before them
    appends a copy of those 2^k bits, flipped where a later neighbour is 1.
    """
    n = g.n
    later: list[list[int]] = [[] for _ in range(n)]  # index bits of later neighbours
    for a, b in g.edges:
        if a > b:
            a, b = b, a
        later[a].append(n - 1 - b)
    parity, size = 0, 1
    for shifts in reversed(later):
        flips = 0
        for s in shifts:
            # the x < size with bit s set: runs of 2^s clear, then 2^s set bits
            run = 1 << s
            pattern = ((1 << run) - 1) << run
            while (run := run << 1) < size:
                pattern |= pattern << run
            flips ^= pattern
        parity |= (parity ^ flips) << size
        size <<= 1
    packed = np.frombuffer(parity.to_bytes(max(1, size >> 3), "little"), np.uint8)
    amp = 2.0 ** (-n / 2.0)
    amps = np.unpackbits(packed, count=size, bitorder="little") * (-2.0 * amp)
    amps += amp  # exactly amp or -amp
    norm = float(np.vdot(amps, amps).real)
    assert abs(norm - 1.0) <= 1e-12, "cluster statevector lost normalization"
    return amps


def project_statevector(sv: StateVector, spec: ProjectionSpec) -> complex:
    """Inner product with the product bra; coefficients applied unconjugated.

    The amplitudes, as a real 2^h x 2^(n-h) matrix (h = n // 2), meet the
    Kronecker bra of the last n - h qubits in two real matrix-vector products
    (its real and imaginary parts); the 2^h rows then meet the bra of the
    first h qubits.  Each half-bra is a numpy Kronecker chain of the
    (C_p, S_p) pairs, qubit 0 most significant: 2^h + 2^(n-h) entries built
    by about n array multiplies, with no Python loop over the entries.
    """
    if spec.n != sv.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, state has {sv.n}")
    return complex(_fold(sv.amplitudes, spec.c, spec.s))


def project_statevector_batch(sv: StateVector, specs: Sequence[ProjectionSpec]) -> np.ndarray:
    """project_statevector of each of T specs, as a (T,) complex array.

    The same fold with a leading trial axis: the low half-bras form a
    (T, 2^(n-h)) array that meets the amplitude matrix in two real matrix
    products, and the (T, 2^h) rows then meet their high half-bras row by
    row.  Beside the shared vector it holds T times one spec's bras.
    """
    if not specs:
        return np.zeros(0, dtype=complex)
    return _fold(sv.amplitudes, *stack_specs(specs, sv.n))


def _pairs(c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each qubit's (C, S) as a column: (n, 2, 1) from (n,) arrays, (n, T, 2, 1) from (T, n).

    C-ordered, so every chain built from it is too.
    """
    pairs = np.empty(c.shape[::-1] + (2, 1), dtype=complex)
    pairs[..., 0, 0] = c.T
    pairs[..., 1, 0] = s.T
    return pairs


def _kron_chain(pairs: np.ndarray) -> np.ndarray:
    """The Kronecker chain of the _pairs columns, pairs[0] most significant.

    The trial axis, if any, is kept: k columns give (2^k,) or (T, 2^k), and
    k = 0 gives ones.  Each step multiplies one column into the chain so far,
    less significant, as np.multiply.outer would.
    """
    shape = pairs.shape[1:-2] + (1, -1)
    if not len(pairs):
        return np.ones(shape[:-2] + (1,), dtype=complex)
    chain = pairs[-1]
    for pair in pairs[-2::-1]:
        chain = pair * chain.reshape(shape)
    return chain.reshape(shape[:-2] + (-1,))


def _fold(amps: np.ndarray, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The projection of the real amplitudes onto the bras of (n,) or (T, n) C/S arrays."""
    pairs = _pairs(c, s)
    h = len(pairs) // 2
    low = _kron_chain(pairs[h:])
    cols = amps.reshape(1 << h, -1).T  # a view of the read-only amplitudes
    rows = np.dot(low.real, cols) + 1j * np.dot(low.imag, cols)
    return (_kron_chain(pairs[:h]) * rows).sum(axis=-1)


@lru_cache(maxsize=64)
def _direct_sum_plan(
    g: ClusterGraph, b: Bipartition
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...]]:
    """The controls in bit order and each target with its neighbours' mask.

    Checks that b partitions g into two classes with no edge inside one, and
    that the controls are within the cap; an error is raised, not cached.
    """
    if b.controls | b.targets != frozenset(range(g.n)) or b.controls & b.targets:
        raise NotBipartite("control and target sets must partition the qubits")
    for a, bb in g.edges:
        if (a in b.controls) == (bb in b.controls):
            raise NotBipartite(f"edge ({a}, {bb}) joins two qubits of one class")
    controls = tuple(sorted(b.controls))
    k = len(controls)
    if k > DIRECT_SUM_CONTROL_CAP:
        raise TooManyControls(f"{k} control qubits would need a 2^{k} sum")
    adj = adjacency(g)
    bit_of = {q: i for i, q in enumerate(controls)}
    masks = tuple((q, sum(1 << bit_of[nbr] for nbr in adj[q])) for q in sorted(b.targets))
    return controls, masks


def direct_sum(g: ClusterGraph, b: Bipartition, spec: ProjectionSpec) -> complex:
    """Sum over control bitstrings of the control/target-decomposed projection.

    amplitude = 2^(-N/2) * sum_j  prod_{s in controls} [(1-j_s) C_s + j_s S_s]
                                * prod_{q in targets}  [C_q + (-1)^alpha_q S_q]

    where alpha_q is the parity of q's neighbors held in |1>.  The control
    product is a Kronecker chain of (C_s, S_s) pairs, bit i of j standing for
    the i-th control; each target then multiplies in one factor picked by the
    parity of j's bits under its neighbours' mask (np.bitwise_count).  Peak
    memory stays O(2^k) for k controls: a few 2^k vectors, one target at a
    time, never a (targets x 2^k) array.  The partition checks and the masks
    depend on (g, b) alone and are cached; the 2^k arrays are not.
    """
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    return complex(_direct_sum(g, b, spec.c, spec.s))


def direct_sum_batch(g: ClusterGraph, b: Bipartition, specs: Sequence[ProjectionSpec]) -> np.ndarray:
    """direct_sum of each of T specs, as a (T,) complex array.

    The same sum on a (T, 2^k) coefficient array: each target's factor is
    picked per trial, and the index and parity arrays (2^k) are shared.
    """
    if not specs:
        return np.zeros(0, dtype=complex)
    return _direct_sum(g, b, *stack_specs(specs, g.n))


def _direct_sum(g: ClusterGraph, b: Bipartition, c: np.ndarray, s: np.ndarray) -> np.ndarray:
    """direct_sum on (n,) or (T, n) C/S arrays."""
    controls, masks = _direct_sum_plan(g, b)
    # bit i of the index j is controls[i], so the last control leads the chain
    coef = _kron_chain(_pairs(c, s)[list(controls[::-1])])
    plus, minus = (c + s)[..., None], (c - s)[..., None]
    j = np.arange(1 << len(controls))
    for q, mask in masks:
        odd = np.bitwise_count(j & mask) & 1
        # not in place: numpy multiplies a lone complex in place without
        # FMA, so one spec with no controls would round unlike T of them.
        # np.multiply, not `*`: from 256 KiB the operator reuses the
        # temporary np.where array as its output, an in-place multiply that
        # made T = 7 specs at 12 controls round unlike one spec each
        coef = np.multiply(coef, np.where(odd, minus[..., q, :], plus[..., q, :]))
    return (2.0 ** (-g.n / 2.0)) * coef.sum(axis=-1)
