"""Factor construction, factor orders, and the soundness of the trace form."""

import numpy as np
import pytest

from latticeproj.algebra import EMPTY_WORD, Letter, TensorWord
from latticeproj.errors import InvalidPermutation, SizeMismatch
from latticeproj.factorize import (
    ProjectionSpec,
    build_polynomial,
    format_angles_text,
    max_active_slots,
    order_factors,
    parse_angles_text,
)
from latticeproj.graph import (
    _greedy_cover,
    assign_slots,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    load_graph,
)
from latticeproj.evaluate import sweep_evaluate
from latticeproj.oracle import build_statevector, project_statevector

from helpers import branches, named_orders, random_spec, word_to_diag


def test_coeffs_examples():
    spec = ProjectionSpec([0.0, np.pi / 4, np.pi / 2], [1.0, 0.0, np.pi / 2])
    assert (spec.c[0], spec.s[0]) == pytest.approx((1.0, 0.0))
    c, s = spec.c[1], spec.s[1]
    assert c == pytest.approx(0.70710678, abs=1e-8)
    assert s == pytest.approx(0.70710678, abs=1e-8)
    c, s = spec.c[2], spec.s[2]
    assert abs(c) < 1e-15 and s == pytest.approx(1j)


def test_spec_validation():
    with pytest.raises(SizeMismatch):
        ProjectionSpec([0.0, 1.0], [0.0])
    with pytest.raises(ValueError):
        ProjectionSpec([np.nan], [0.0])


@pytest.mark.parametrize("make", [
    lambda: ProjectionSpec([], []), lambda: ProjectionSpec.constant(0, 0.1, 0.2),
], ids=["empty", "constant"])
def test_spec_of_no_qubits_is_refused(make):
    # a graph holds at least one qubit, so a projection does too
    with pytest.raises(SizeMismatch, match="non-empty"):
        make()


def test_spec_random_ranges():
    spec = ProjectionSpec.random(200, np.random.default_rng(0))
    assert spec.theta.min() >= 0.0 and spec.theta.max() < 2 * np.pi
    assert spec.phi.min() >= 0.0 and spec.phi.max() < 2 * np.pi


def test_factor_bell_owner():
    g = build_line(2)
    a = assign_slots(g)
    spec = random_spec(2, 1)
    poly = build_polynomial(g, spec, a)
    f = poly.factors[0]
    assert f.c_word == TensorWord([(0, Letter.U)])
    assert f.s_word == TensorWord([(0, Letter.D)])
    assert poly.spec is spec
    f1 = poly.factors[1]
    assert f1.c_word == EMPTY_WORD
    assert f1.s_word == TensorWord([(0, Letter.Z)])


def test_factor_ghz_leaf():
    g = build_cross_chain(1)
    a = assign_slots(g)
    f = build_polynomial(g, random_spec(5, 2), a).factors[0]
    assert f.c_word == EMPTY_WORD
    assert f.s_word == TensorWord([(a.slot_of[4], Letter.Z)])


def test_factor_shared_leaf_touches_both_centers():
    g = build_cross_chain(2)
    a = assign_slots(g)
    f = build_polynomial(g, random_spec(8, 3), a).factors[2]
    slots = {a.slot_of[6], a.slot_of[7]}
    assert f.c_word == EMPTY_WORD
    assert dict(f.s_word.entries) == {s: Letter.Z for s in slots}


def test_all_but_last_factor_carries_z_and_d():
    g = build_line(4)
    a = assign_slots(g, range(g.n - 1))
    f = build_polynomial(g, random_spec(4, 4), a).factors[1]
    assert dict(f.c_word.entries) == {1: Letter.U}
    assert dict(f.s_word.entries) == {0: Letter.Z, 1: Letter.D}


def test_polynomial_structure_invariants():
    g = build_lattice(2, 2)
    poly = build_polynomial(g, random_spec(g.n, 5))
    assert sorted(f.qubit for f in poly.factors) == list(range(g.n))
    for slot, (lo, hi) in poly.activity.items():
        assert lo <= poly.owner_position[slot] <= hi


def trace_by_matrices(poly):
    """Independent evaluation: expand the binomial product over dense diagonals."""
    k = poly.slot_count
    diags = [np.ones(1 << k, dtype=complex)]
    coeffs_ = [1.0 + 0.0j]
    for f in poly.factors:
        new_d, new_c = [], []
        for d, c in zip(diags, coeffs_):
            for bc, bw in branches(poly, f):
                new_d.append(d * word_to_diag(bw, k))
                new_c.append(c * bc)
        diags, coeffs_ = new_d, new_c
    trace = sum(c * d.sum() for c, d in zip(coeffs_, diags))
    return 2.0 ** (-poly.norm_exponent / 2.0) * trace


@pytest.mark.parametrize("g", [build_line(2), build_line(3), build_cross_chain(1)])
def test_trace_form_soundness_by_dense_matrices(g):
    # the factorized trace, expanded with explicit Kronecker diagonals,
    # equals the statevector amplitude
    sv = build_statevector(g)
    for seed in range(4):
        spec = random_spec(g.n, seed)
        poly = build_polynomial(g, spec)
        assert trace_by_matrices(poly) == pytest.approx(
            project_statevector(sv, spec), abs=1e-12
        )


def test_order_invariance_on_line6():
    g = build_line(6)
    spec = random_spec(6, 6)
    base = sweep_evaluate(build_polynomial(g, spec)).amplitude
    rng = np.random.default_rng(0)
    for _ in range(5):
        perm = list(rng.permutation(6))
        poly = order_factors(build_polynomial(g, spec), perm)
        assert abs(sweep_evaluate(poly).amplitude - base) < 1e-12


def test_order_factors_errors():
    poly = build_polynomial(build_line(3), random_spec(3, 7))
    with pytest.raises(InvalidPermutation):
        order_factors(poly, [0, 0, 1])


def test_max_active_slots_examples():
    line = build_line(10)
    poly = build_polynomial(line, random_spec(10, 9))
    assert max_active_slots(poly) <= 2

    cross = build_polynomial(build_cross_chain(1), random_spec(5, 10))
    assert max_active_slots(cross) == 1

    five = load_graph(fixture_path("fivecross_17.graph"))
    poly5 = build_polynomial(five, random_spec(17, 11))
    assert max_active_slots(poly5) <= 5

    # the endpoint sweep equals a count of the intervals over every position
    rng = np.random.default_rng(15)
    for g in (build_lattice(2, 3), five, build_line(9), build_from_edges(4, [])):
        poly = build_polynomial(g, random_spec(g.n, 16), assign_slots(g, _greedy_cover(g)))
        for _ in range(5):
            perm = [int(q) for q in rng.permutation(g.n)]
            ordered = order_factors(poly, perm)
            per_position = max(
                sum(lo <= pos <= hi for lo, hi in ordered.activity.values())
                for pos in range(g.n)
            )
            assert max_active_slots(ordered) == per_position


def _named_widths(poly):
    return {
        name: max_active_slots(order_factors(poly, qubits))
        for name, qubits in named_orders(poly.graph).items()
    }


FIXTURES = sorted(p.name for p in fixture_path("line_4.graph").parent.glob("*.graph"))


@pytest.mark.parametrize("g", [
    *(pytest.param(build_lattice(m, n), id=f"lattice:{m}x{n}")
      for m in range(1, 7) for n in range(1, 7)),
    *(pytest.param(load_graph(fixture_path(name)), id=name) for name in FIXTURES),
])
def test_auto_order_is_no_wider_than_named_strategies(g):
    poly = build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0))
    auto = max_active_slots(order_factors(poly))
    widths = _named_widths(poly)
    assert all(auto <= w for w in widths.values()), (auto, widths)


def test_auto_order_width_does_not_grow_with_lattice_length():
    widths = {}
    for shape in ((3, 10), (3, 30)):
        g = build_lattice(*shape)
        poly = build_polynomial(g, ProjectionSpec.constant(g.n, 0.0, 0.0))
        widths[shape] = max_active_slots(order_factors(poly))
    assert widths[(3, 10)] <= 5
    assert widths[(3, 30)] <= 6


def test_auto_order_ignores_the_input_order():
    g = load_graph(fixture_path("fivecross_17.graph"))
    poly = build_polynomial(g, random_spec(g.n, 18))
    shuffled = order_factors(poly, list(range(g.n))[::-1])
    a = [f.qubit for f in order_factors(poly).factors]
    b = [f.qubit for f in order_factors(shuffled).factors]
    assert a == b


def test_bind_spec_rebinds_coefficients_only():
    g = build_cross_chain(2)
    a = random_spec(g.n, 12)
    b = random_spec(g.n, 13)
    pa = build_polynomial(g, a)
    amp_a = sweep_evaluate(pa).amplitude
    pb = pa.bind_spec(b)
    assert pb.activity == pa.activity
    # the clone shares the word structure and plan, and only swaps the spec
    assert pb.factors is pa.factors
    assert pb.plan is pa.plan is not None
    assert pb.spec is b and pa.spec is a
    assert sweep_evaluate(pb).amplitude == pytest.approx(
        sweep_evaluate(build_polynomial(g, b)).amplitude
    )
    assert sweep_evaluate(pa).amplitude == amp_a


def test_angle_file_round_trip():
    spec = random_spec(5, 14)
    text = format_angles_text(spec, header="five qubits")
    back = parse_angles_text(text)
    np.testing.assert_allclose(back.theta, spec.theta, rtol=0, atol=0)
    np.testing.assert_allclose(back.phi, spec.phi, rtol=0, atol=0)
    with pytest.raises(SizeMismatch):
        parse_angles_text("1.0 2.0 3.0\n")
