"""Two independent brute-force references for the projection amplitude.

Conventions frozen here and documented loudly:

  * Basis index bit order: qubit 0 is the most significant bit of the
    2^n-dimensional statevector index.
  * The projection bra applies C_p and S_p as written, without complex
    conjugation.  That matches the C/S parameterization of the projector;
    it is NOT the Hermitian inner product.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import BadSetting, NotBipartite, SizeMismatch, TooLarge, TooManyControls
from .factorize import ProjectionSpec
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
    """Dense amplitudes of length 2^n, qubit 0 = most significant bit."""

    amplitudes: np.ndarray

    @property
    def n(self) -> int:
        return int(self.amplitudes.shape[0]).bit_length() - 1


def build_statevector(g: ClusterGraph) -> StateVector:
    """|+>^n with every edge applied as a CZ (negate both-bits-one amplitudes)."""
    cap = statevector_cap()
    if g.n > cap:
        raise TooLarge(
            f"statevector for {g.n} qubits exceeds the cap of {cap} "
            f"(set {STATEVEC_CAP_ENV} to raise it)"
        )
    n = g.n
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    idx = np.arange(1 << n)
    for a, b in g.sorted_edges():
        both = ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)
        amps[both] = -amps[both]
    norm = float(np.vdot(amps, amps).real)
    assert abs(norm - 1.0) <= 1e-12, "cluster statevector lost normalization"
    return StateVector(amps)


def project_statevector(sv: StateVector, spec: ProjectionSpec) -> complex:
    """Inner product with the product bra; coefficients applied unconjugated."""
    n = sv.n
    if spec.n != n:
        raise SizeMismatch(f"spec has {spec.n} qubits, state has {n}")
    v = sv.amplitudes
    for p in range(n):
        half = v.shape[0] // 2
        v = spec.c[p] * v[:half] + spec.s[p] * v[half:]
    return complex(v[0])


def direct_sum(g: ClusterGraph, b: Bipartition, spec: ProjectionSpec) -> complex:
    """Sum over control bitstrings of the control/target-decomposed projection.

    amplitude = 2^(-N/2) * sum_j  prod_{s in controls} [(1-j_s) C_s + j_s S_s]
                                * prod_{q in targets}  [C_q + (-1)^alpha_q S_q]

    where alpha_q is the parity of q's neighbors held in |1>.
    """
    if spec.n != g.n:
        raise SizeMismatch(f"spec has {spec.n} qubits, graph has {g.n}")
    controls = sorted(b.controls)
    targets = sorted(b.targets)
    if b.controls | b.targets != frozenset(range(g.n)) or b.controls & b.targets:
        raise NotBipartite("control and target sets must partition the qubits")
    adj = adjacency(g)
    bit_of = {q: i for i, q in enumerate(controls)}
    for a, bb in g.edges:
        if (a in b.controls) == (bb in b.controls):
            raise NotBipartite(f"edge ({a}, {bb}) joins two qubits of one class")
    k = len(controls)
    if k > DIRECT_SUM_CONTROL_CAP:
        raise TooManyControls(f"{k} control qubits would need a 2^{k} sum")

    j = np.arange(1 << k)
    coef = np.ones(j.shape, dtype=complex)
    for i, s in enumerate(controls):
        bit = (j >> i) & 1
        coef = coef * np.where(bit, spec.s[s], spec.c[s])
    for q in targets:
        parity = np.zeros(j.shape, dtype=np.int64)
        for nbr in adj[q]:
            parity ^= (j >> bit_of[nbr]) & 1
        coef = coef * np.where(parity, spec.c[q] - spec.s[q], spec.c[q] + spec.s[q])
    return complex((2.0 ** (-g.n / 2.0)) * coef.sum())
