"""Property-based checks across random graphs, angles, and factor orders."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latticeproj.errors import OddCycle
from latticeproj.evaluate import (
    _contract,
    column_evaluate,
    cross_chain_recursion,
    frontier_plan,
    line_recursion,
    sweep_evaluate,
)
from latticeproj.factorize import (
    ProjectionSpec,
    build_polynomial,
    max_active_slots,
    order_factors,
)
from latticeproj.graph import (
    _greedy_cover,
    assign_slots,
    bipartition,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    lattice_row_major_order,
)
from latticeproj.oracle import build_statevector, direct_sum, project_statevector

from helpers import (
    TermSum,
    branches,
    brute_amplitude,
    cut_plan,
    reference_contract,
    word_sweep,
)


@st.composite
def graph_and_spec(draw, max_qubits=7):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda e: e[0] != e[1]).map(lambda e: tuple(sorted(e)))
    edges = draw(st.sets(pairs, max_size=2 * n))
    g = build_from_edges(n, sorted(edges))
    seed = draw(st.integers(min_value=0, max_value=2 ** 31))
    spec = ProjectionSpec.random(n, np.random.default_rng(seed))
    return g, spec


@settings(max_examples=40, deadline=None)
@given(case=graph_and_spec())
def test_sweep_equals_exhaustive_sum_on_random_graphs(case):
    g, spec = case
    # bipartite owners when g allows them, else a greedy cover
    amp = sweep_evaluate(build_polynomial(g, spec)).amplitude
    assert amp == pytest.approx(brute_amplitude(g, spec), abs=1e-10)
    assert abs(amp) <= 1.0 + 1e-9


@settings(max_examples=30, deadline=None)
@given(case=graph_and_spec(), data=st.data())
def test_sweep_is_permutation_invariant(case, data):
    g, spec = case
    poly = build_polynomial(g, spec, assign_slots(g, _greedy_cover(g)))
    base = sweep_evaluate(poly).amplitude
    perm = data.draw(st.permutations(range(g.n)))
    amp = sweep_evaluate(order_factors(poly, perm)).amplitude
    assert abs(amp - base) <= 1e-12
    auto = sweep_evaluate(order_factors(poly)).amplitude
    assert abs(auto - base) <= 1e-12
    assert auto == pytest.approx(brute_amplitude(g, spec), abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(case=graph_and_spec(), data=st.data())
def test_frontier_matches_word_sweep_on_random_graphs(case, data):
    # a greedy cover takes odd cycles too
    g, spec = case
    poly = build_polynomial(g, spec, assign_slots(g, _greedy_cover(g)))
    perm = data.draw(st.permutations(range(g.n)))
    for ordered in (poly, order_factors(poly, perm), order_factors(poly)):
        ref = word_sweep(ordered).amplitude
        report = sweep_evaluate(ordered)
        assert abs(report.amplitude - ref) <= 1e-12 * abs(ref)
        assert report.max_live_terms == 2 ** max_active_slots(ordered)


@settings(max_examples=60, deadline=None)
@given(case=graph_and_spec(max_qubits=10), data=st.data())
def test_contract_matches_the_one_kind_loop_in_random_orders(case, data):
    # every qubit owning its slot, as MBQC patterns run, puts step-local
    # slots mid-sweep, where the step's own sum reorders the adds.  The
    # scale is the sum of the 2^n terms' magnitudes, prod(|C| + |S|), which
    # no cancellation shrinks: against |ref| alone, 1 in 20000 random cases
    # read 1.4e-14 (seen at about 3e-16 of this scale)
    g, spec = case
    owners = data.draw(st.sampled_from([_greedy_cover(g), range(g.n)]))
    poly = build_polynomial(g, spec, assign_slots(g, owners))
    poly = order_factors(poly, data.draw(st.permutations(range(g.n))))
    plan = frontier_plan(poly)
    got = _contract(plan, spec.c, spec.s).item()
    ref = reference_contract(plan, spec.c, spec.s).item()
    assert abs(got - ref) <= 1e-14 * np.prod(np.abs(spec.c) + np.abs(spec.s))


@settings(max_examples=60, deadline=None)
@given(case=graph_and_spec(max_qubits=10), data=st.data())
def test_blocks_change_no_bits_in_random_orders(case, data):
    # any owners, order, open slots, trial count and cut: the same bits as
    # the plan's values built in one block
    g, spec = case
    owners = data.draw(st.sampled_from([_greedy_cover(g), range(g.n)]))
    poly = build_polynomial(g, spec, assign_slots(g, owners))
    poly = order_factors(poly, data.draw(st.permutations(range(g.n))))
    slots = st.sets(st.integers(0, poly.slot_count - 1), max_size=2)
    open_slots = data.draw(slots) if poly.slot_count else set()
    entries = data.draw(st.integers(1, 64))
    c, s = spec.c, spec.s
    if data.draw(st.booleans()):  # three projections with a trial axis
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
        specs = [spec] + [ProjectionSpec.random(g.n, rng) for _ in range(2)]
        c, s = np.stack([p.c for p in specs]), np.stack([p.s for p in specs])
    plan = cut_plan(poly, entries, tuple(open_slots))
    whole = cut_plan(poly, 2 ** 20, tuple(open_slots))
    assert _contract(plan, c, s).tobytes() == _contract(whole, c, s).tobytes()


@settings(max_examples=25, deadline=None)
@given(case=graph_and_spec(max_qubits=8))
def test_oracles_agree_on_random_bipartite_graphs(case):
    g, spec = case
    try:
        b = bipartition(g)
    except OddCycle:
        return
    ref = project_statevector(build_statevector(g), spec)
    assert direct_sum(g, b, spec) == pytest.approx(ref, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(case=graph_and_spec(max_qubits=6))
def test_sweep_term_sums_never_keep_zero_coefficients(case):
    g, spec = case
    state = TermSum()
    poly = build_polynomial(g, spec, assign_slots(g, _greedy_cover(g)))
    for factor in poly.factors:
        state.multiply_factor(branches(poly, factor))
        assert all(c != 0 for c in state.terms.values())


@settings(max_examples=25, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=5),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
@example(m=5, n=3, seed=0)  # slot bit positions up to 4, every run
def test_column_matches_direct_sum_and_sweep_on_lattices(m, n, seed):
    # relative tolerances: a 5x4 lattice's amplitudes are near 1e-8
    g = build_lattice(m, n)
    spec = ProjectionSpec.random(g.n, np.random.default_rng(seed))
    amp = column_evaluate(g, spec).amplitude
    ref = direct_sum(g, bipartition(g), spec)
    assert abs(amp - ref) <= 1e-10 * abs(ref)
    poly = order_factors(build_polynomial(g, spec), lattice_row_major_order(m, n))
    assert abs(amp - sweep_evaluate(poly).amplitude) <= 1e-10 * abs(ref)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=14),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
@example(n=1, seed=0)
@example(n=2, seed=0)
def test_line_recursion_equals_exhaustive_sum(n, seed):
    spec = ProjectionSpec.random(n, np.random.default_rng(seed))
    ref = brute_amplitude(build_line(n), spec)
    assert abs(line_recursion(spec).amplitude - ref) <= 1e-10 * abs(ref)


@settings(max_examples=20, deadline=None)
@given(
    k=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=2 ** 31),
)
def test_cross_recursion_equals_exhaustive_sum(k, seed):
    g = build_cross_chain(k)
    spec = ProjectionSpec.random(g.n, np.random.default_rng(seed))
    ref = brute_amplitude(g, spec)
    assert abs(cross_chain_recursion(spec).amplitude - ref) <= 1e-10 * abs(ref)
