"""Shared brute-force oracles and comparison helpers for the test suite.

Everything here except the word-dict sweep and the one-kind frontier loop
is computed independently of the package's own algebra: letters are
explicit numpy matrices, words are explicit Kronecker products, so
agreement checks are against a second route, not a mirror.  The word-dict sweep (TermSum, word_sweep) is the paper's
literal term-by-term contraction on the package's letter algebra; it is the
reference for the package's dense frontier, which shares none of its code.
The per-edge mask statevector (edge_mask_statevector) is the reference for
the package's doubling build of the same vector, and the Kronecker-embedded
product (kron_semantics) the reference for compose's wire-axis product, and
the gate-by-gate circuit state (circuit_plus_state) the reference for
patterns too wide for any 2^w x 2^w matrix.
The per-target parity loop (loop_direct_sum) is the reference for the
package's bit-counting direct sum, the Python-product fold
(product_fold) the reference for the numpy Kronecker half-bras of
project_statevector, and the all-qubit scan (quadratic_greedy_cover) the
reference for the heap-ordered greedy cover.  The one-kind frontier loop
(reference_contract) is the bitwise reference for the sweep's contraction
core, whose steps sum their step-local axes on their own values, retire
a single frontier axis by adding its halves and build their values one
block at a time, where the loop builds them all at once.
"""

import importlib.util
from functools import lru_cache
from itertools import product
from math import prod
from operator import mul
from pathlib import Path

import numpy as np
import pytest

from latticeproj import evaluate
from latticeproj.algebra import EMPTY_WORD, Letter, ZERO, word_mul
from latticeproj.errors import NonScalarResidue, RetirementBeforeOwner
from latticeproj.evaluate import EvalReport
from latticeproj.graph import adjacency, graph_family, lattice_row_major_order

# the four diagonal letters as explicit matrices, keyed by tag name
LETTER_MATS = {
    "I": np.diag([1.0, 1.0]),
    "Z": np.diag([1.0, -1.0]),
    "U": np.diag([1.0, 0.0]),
    "D": np.diag([0.0, 1.0]),
}


def kron_diag(tags):
    """Diagonal of the Kronecker product of letters given by tag names."""
    diag = np.array([1.0])
    for tag in tags:
        diag = np.outer(diag, np.diag(LETTER_MATS[tag])).reshape(-1)
    return diag


def word_to_diag(word, num_slots):
    """Dense diagonal of a TensorWord over slots 0..num_slots-1."""
    lookup = {slot: letter.name for slot, letter in word.entries}
    return kron_diag([lookup.get(s, "I") for s in range(num_slots)])


def brute_amplitude(g, spec):
    """Projection amplitude by direct summation over all basis states.

    amp = 2^(-n/2) * sum_x  prod_p (C_p or S_p by bit)  * (-1)^(# edges with
    both bits set).  Qubit 0 is the most significant bit.
    """
    n = g.n
    total = 0.0 + 0.0j
    edges = list(g.edges)
    for x in range(1 << n):
        bits = [(x >> (n - 1 - p)) & 1 for p in range(n)]
        coef = 1.0 + 0.0j
        for p in range(n):
            coef *= spec.s[p] if bits[p] else spec.c[p]
        phase = sum(bits[a] & bits[b] for a, b in edges) & 1
        total += -coef if phase else coef
    return total * 2.0 ** (-n / 2.0)


def edge_mask_statevector(g):
    """|+>^n with every edge applied as a CZ, one bit-mask pass per edge.

    Complex, length 2^n, qubit 0 = most significant bit: each edge negates
    the amplitudes whose two bits are both one.
    """
    n = g.n
    amps = np.full(1 << n, 2.0 ** (-n / 2.0), dtype=complex)
    idx = np.arange(1 << n)
    for a, b in g.sorted_edges():
        both = ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)
        amps[both] = -amps[both]
    return amps


def loop_direct_sum(g, b, spec):
    """The direct sum with each target's parity XOR-ed one neighbour at a time.

    Same formula as oracle.direct_sum, without its input checks: bit i of j
    is the i-th control in sorted order, and every target multiplies in
    C_q +/- S_q by the parity of its neighbours' bits.
    """
    controls = sorted(b.controls)
    targets = sorted(b.targets)
    adj = adjacency(g)
    bit_of = {q: i for i, q in enumerate(controls)}
    k = len(controls)

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


def product_fold(amps, spec):
    """project_statevector with half-bras built as Python products.

    Each half-bra entry is math.prod of one C_p/S_p choice per qubit, over
    itertools.product (qubit 0 most significant); the low half meets the
    amplitude matrix in two real matrix-vector products and the high half
    the rows in a Python sum.
    """
    n = spec.n
    bra = list(zip(spec.c.tolist(), spec.s.tolist()))
    h = n // 2
    low = np.fromiter(map(prod, product(*bra[h:])), complex, 1 << (n - h))
    amps = amps.reshape(1 << h, -1)
    rows = (amps.dot(low.real) + 1j * amps.dot(low.imag)).tolist()
    return complex(sum(map(mul, map(prod, product(*bra[:h])), rows)))


def _embed_operator(mat, positions, width):
    """Expand an operator on the given bit positions to the full 2^width space."""
    rest = [p for p in range(width) if p not in positions]
    full = np.kron(mat, np.eye(1 << len(rest))).reshape([2] * (2 * width))
    # row and column bits run (positions, rest); put them back in wire order
    back = list(np.argsort([*positions, *rest]))
    return full.transpose(back + [width + a for a in back]).reshape(1 << width, 1 << width)


def kron_semantics(stages, wiring):
    """Ordered product of the stages' semantics, each embedded by np.kron.

    The wires are sorted, first wire = most significant bit, as in compose;
    every stage becomes an explicit 2^w x 2^w matrix before it multiplies.
    """
    all_wires = sorted({w for ws in wiring for w in ws})
    wire_pos = {w: i for i, w in enumerate(all_wires)}
    total = np.eye(1 << len(all_wires), dtype=complex)
    for pattern, wires in zip(stages, wiring):
        total = _embed_operator(
            pattern.semantics, [wire_pos[w] for w in wires], len(all_wires)
        ) @ total
    return total


def declared_gate_matrix(gate):
    """The matrix compile_circuit declares for one gate, residual Hadamards included.

    The teleporting primitives leave a Hadamard on their wire (H R_Z, H R_X,
    and H for the theta = 0 teleport); CZ and CNOT are exact; CPHASE carries
    the control-branch phase of the square pattern.
    """
    from latticeproj import mbqc

    theta = gate.angle
    return {
        "RZ": lambda: mbqc.HADAMARD @ mbqc.rz_matrix(theta),
        "RX": lambda: mbqc.HADAMARD @ mbqc.rx_matrix(theta),
        "H": lambda: mbqc.HADAMARD,
        "CZ": lambda: mbqc.CZ_MATRIX,
        "CNOT": lambda: mbqc.CNOT_MATRIX,
        "CPHASE": lambda: np.diag([1.0, 1.0, np.exp(-0.5j * theta), np.exp(0.5j * theta)]),
    }[gate.kind]()


def circuit_plus_state(gates):
    """|+>^w with each gate's declared matrix applied in turn, as a 2^w vector.

    The wires are sorted, first wire = most significant bit, as in compose.
    A k-wire gate is a tensordot on its k axes, O(2^k 2^w), so no 2^w x 2^w
    matrix is ever formed.
    """
    wires = sorted({q for gate in gates for q in gate.qubits})
    axis = {w: i for i, w in enumerate(wires)}
    state = np.full((2,) * len(wires), 2.0 ** (-len(wires) / 2), dtype=complex)
    for gate in gates:
        k = len(gate.qubits)
        mat = declared_gate_matrix(gate).reshape((2,) * (2 * k))
        axes = [axis[q] for q in gate.qubits]
        state = np.moveaxis(np.tensordot(mat, state, (range(k, 2 * k), axes)), range(k), axes)
    return state.reshape(-1)


def branches(poly, factor):
    """The factor's binomial ((C_p, c_word), (S_p, s_word)), C_p/S_p from poly.spec."""
    p = factor.qubit
    return (complex(poly.spec.c[p]), factor.c_word), (complex(poly.spec.s[p]), factor.s_word)


def align_residual(measured, target):
    """(residual, scalar): least-squares scalar s minimizing ||measured - s*target||."""
    measured = np.asarray(measured, dtype=complex)
    target = np.asarray(target, dtype=complex)
    s = np.vdot(target, measured) / np.vdot(target, target)
    return float(np.linalg.norm(measured - s * target)), s


def named_orders(g):
    """Explicit factor orders by name: as-built, and row-major on a lattice."""
    orders = {"as-built": list(range(g.n))}
    shape = graph_family(g).lattice
    if shape is not None:
        orders["row-major"] = lattice_row_major_order(*shape)
    return orders


def quadratic_greedy_cover(g):
    """The greedy vertex cover as a scan: each pick is the max over all qubits."""
    remaining = set(g.edges)
    degree = [0] * g.n
    for a, b in remaining:
        degree[a] += 1
        degree[b] += 1
    cover: set[int] = set()
    while remaining:
        # highest current degree, ties to the lowest index
        q = max(range(g.n), key=lambda v: (degree[v], -v))
        cover.add(q)
        for e in [e for e in remaining if q in e]:
            remaining.discard(e)
            a, b = e
            degree[a] -= 1
            degree[b] -= 1
    return frozenset(cover)


def random_spec(n, seed):
    from latticeproj import ProjectionSpec

    return ProjectionSpec.random(n, np.random.default_rng(seed))


def spec_from_bras(c, s):
    """A ProjectionSpec whose C and S arrays are exactly ``c`` and ``s``.

    The constructor takes angles, and the cosine and sine of the double
    nearest pi/4 differ in the last bit, so C = +-S exactly (an X or Y
    eigenstate's bra) needs this.  The angles match C and S up to rounding.
    """
    from latticeproj import ProjectionSpec

    spec = ProjectionSpec.__new__(ProjectionSpec)
    spec.c = np.array(c, dtype=float)
    spec.s = np.array(s, dtype=complex)
    spec.theta = np.arctan2(np.abs(spec.s), spec.c)
    spec.phi = np.angle(spec.s)
    for arr in (spec.c, spec.s, spec.theta, spec.phi):
        arr.setflags(write=False)
    return spec


def dense_pattern_action(pattern):
    """Reference action matrix of a measurement pattern, built densely.

    Per input basis column: embed the column and |+> on every other qubit
    into the full 2^n tensor (axis q = qubit q), flip the sign of every CZ,
    contract each measured qubit's bra <0| H exp(-i theta Z), and read the
    outputs in declared order.  Exponential in n by design; tests keep
    n small.  Zero columns are returned as they are.
    """
    n = pattern.graph.n
    k = len(pattern.inputs)
    ancillas = sorted(set(range(n)) - set(pattern.inputs))
    axis_owner = list(pattern.inputs) + ancillas
    plus = np.full(2, 2 ** -0.5, dtype=complex)
    columns = []
    for x in range(1 << k):
        arr = np.zeros(1 << k, dtype=complex)
        arr[x] = 1.0
        arr = arr.reshape([2] * k) if k else np.array(1.0 + 0.0j)
        for _ in ancillas:
            arr = np.multiply.outer(arr, plus)
        arr = np.ascontiguousarray(np.transpose(arr, [axis_owner.index(q) for q in range(n)]))
        for a, b in pattern.graph.sorted_edges():
            idx = [slice(None)] * n
            idx[a] = idx[b] = 1
            arr[tuple(idx)] *= -1.0
        live = list(range(n))
        for q in sorted(pattern.measurements):
            theta = pattern.measurements[q]
            bra = np.array([np.exp(-1j * theta), np.exp(1j * theta)]) / np.sqrt(2.0)
            arr = np.tensordot(bra, arr, axes=([0], [live.index(q)]))
            live.remove(q)
        arr = np.transpose(arr, [live.index(q) for q in pattern.outputs])
        columns.append(arr.reshape(-1))
    return np.stack(columns, axis=1)


class TermSum:
    """Map from tensor word to complex coefficient; word_sweep's live boundary.

    Invariants: no ZERO words are ever stored, and coefficients that merge to
    exactly 0 are removed.
    """

    __slots__ = ("terms", "mul_count", "add_count")

    def __init__(self):
        self.terms = {EMPTY_WORD: 1.0 + 0.0j}
        self.mul_count = 0
        self.add_count = 0

    def __len__(self):
        return len(self.terms)

    def multiply_factor(self, binomial):
        """Replace every term by its two branch products, merging equal words.

        ``binomial`` is a factor's ((C_p, c_word), (S_p, s_word)), see branches.
        """
        new = {}
        for word, coef in self.terms.items():
            for bcoef, bword in binomial:
                prod = word_mul(word, bword)
                if prod is ZERO:
                    continue
                sign, w = prod
                self.mul_count += 1
                c = coef * bcoef
                if c == 0:
                    continue
                if sign < 0:
                    c = -c
                if w in new:
                    self.add_count += 1
                    c = new[w] + c
                    if c == 0:
                        del new[w]
                        continue
                new[w] = c
        self.terms = new

    def retire_slot(self, slot):
        """Trace out one slot: U/D keep the term (trace 1), Z annihilates it.

        An implicit I at retirement means the owner factor has not been
        applied yet, i.e. the factor order violates the slot's activity
        interval.
        """
        new = {}
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


def word_sweep(poly):
    """The word-dict sweep: contract the factors in order on a TermSum.

    Each slot is retired right after the last factor touching it, so the
    live words stay within the simultaneously active slots.  Returns an
    EvalReport whose max_live_terms is the peak count of distinct words.
    """
    retire_at = [[] for _ in poly.factors]
    for slot, (_, last) in poly.activity.items():
        if poly.owner_position[slot] > last:
            raise RetirementBeforeOwner(
                f"slot {slot} owner sits after the slot's last touch"
            )
        retire_at[last].append(slot)

    state = TermSum()
    max_live = len(state)
    for pos, factor in enumerate(poly.factors):
        state.multiply_factor(branches(poly, factor))
        max_live = max(max_live, len(state))
        for slot in sorted(retire_at[pos]):
            state.retire_slot(slot)

    for word in state.terms:
        if not word.is_identity:
            raise NonScalarResidue(f"sweep left unretired word {word}")
    scalar = state.terms.get(EMPTY_WORD, 0.0 + 0.0j)
    state.mul_count += 1
    return EvalReport(
        amplitude=complex(2.0 ** (-poly.norm_exponent / 2.0) * scalar),
        max_live_terms=max_live,
        add_count=state.add_count,
        mul_count=state.mul_count,
    )


def cut_plan(poly, entries, open_slots=()):
    """The plan of ``poly`` (``open_slots`` left open), its steps cut into
    blocks of at most ``entries`` values."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluate, "BLOCK_ENTRIES", entries)
        return evaluate._build_plan(poly, open_slots)


@lru_cache(maxsize=None)
def plan_digest_script():
    """scripts/plan_digest.py, loaded as a module."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "plan_digest.py"
    spec = importlib.util.spec_from_file_location("plan_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def flat_plan(plan):
    """The plan's blocks joined into one (qubit, c_diag, s_diag, starts,
    steps), as scripts/plan_digest.py joins them for its digests."""
    fields = plan_digest_script().joined_fields(plan)
    return tuple(fields[name] for name in ("qubit", "c_diag", "s_diag", "starts", "steps"))


def reference_contract(plan, c, s):
    """The sweep's frontier loop with one kind of step; _contract's bitwise
    reference on the worked-out orders.

    Each step is one broadcast multiply of its whole values into the
    frontier, then one add.reduce over its step-local and retired axes
    together.  The values are built as _contract builds them, under the
    same bound on numpy's ufunc buffers, but for every block at once.
    """
    qubit, c_diag, s_diag, starts, steps = flat_plan(plan)
    with np.errstate():
        np.setbufsize(evaluate.UFUNC_BUFFER)
        values = s.take(qubit, -1)
        values *= s_diag
        part = c.take(qubit, -1)
        part *= c_diag
        values += part
        values = np.multiply.reduceat(values, starts, axis=-1)
        lead = c.shape[:-1]
        frontier = np.ones(lead + (1,) * plan.width, dtype=complex)
        for index, shape, local, retire, _ in steps:
            frontier = frontier * values[index].reshape(lead + shape)
            if local + retire:
                frontier = np.add.reduce(frontier, axis=local + retire, keepdims=True)
    return frontier
