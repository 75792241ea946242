"""The four evaluation routes against closed forms and the dense oracle."""

import tracemalloc

import numpy as np
import pytest

from latticeproj import graph
from latticeproj.engines import (
    ENGINE_NAMES,
    SWEEP_WIDTH_CAP,
    applicable_engines,
    compute_amplitude,
    sweep_polynomial,
)
from latticeproj.errors import (
    ColumnTooWide,
    LatticeProjError,
    NonScalarResidue,
    NotALattice,
    RetirementBeforeOwner,
    SizeMismatch,
    TooLarge,
    TooSmall,
)
from latticeproj.evaluate import (
    _build_plan,
    _contract,
    column_batch,
    column_evaluate,
    cross_chain_recursion,
    frontier_plan,
    lattice_width_profile,
    line_recursion,
    sweep_batch,
    sweep_evaluate,
)
from latticeproj.factorize import (
    ProjectionSpec,
    build_polynomial,
    max_active_slots,
    order_factors,
)
from latticeproj.graph import (
    assign_slots,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    lattice_row_major_order,
    load_graph,
)
from latticeproj.oracle import (
    build_statevector,
    direct_sum_batch,
    project_statevector,
    project_statevector_batch,
)

from helpers import named_orders, random_spec, word_sweep


def sweep_amp(g, spec, assignment=None):
    """The sweep's amplitude with the factors in their as-built order."""
    return sweep_evaluate(build_polynomial(g, spec, assignment)).amplitude


def oracle_amp(g, spec):
    return project_statevector(build_statevector(g), spec)


# ---------------------------------------------------------------------------
# sweep


def test_sweep_bell_all_plus():
    spec = ProjectionSpec.constant(2, np.pi / 4, 0.0)
    c, s = spec.c[0], spec.s[0]
    closed = 0.5 * (c * (c + s) + s * (c - s))
    assert closed == pytest.approx(0.5)
    assert sweep_amp(build_line(2), spec) == pytest.approx(closed, abs=1e-12)


@pytest.mark.parametrize("g", [build_line(4), build_cross_chain(2), build_lattice(2, 2)])
def test_sweep_all_zero_angles(g):
    spec = ProjectionSpec.constant(g.n, 0.0, 0.0)
    assert sweep_amp(g, spec) == pytest.approx(2.0 ** (-g.n / 2.0), abs=1e-12)


def test_sweep_ghz_all_plus():
    spec = ProjectionSpec.constant(5, np.pi / 4, 0.0)
    assert sweep_amp(build_cross_chain(1), spec) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("g", [
    build_line(2), build_line(5), build_line(8),
    build_cross_chain(1), build_cross_chain(2),
    build_lattice(2, 2), build_lattice(1, 3),
    build_from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8),
                         (0, 3), (3, 6), (1, 4), (4, 7), (2, 5), (5, 8)]),
])
def test_sweep_matches_statevector(g):
    sv = build_statevector(g)
    for seed in range(8):
        spec = random_spec(g.n, seed)
        assert abs(sweep_amp(g, spec) - project_statevector(sv, spec)) < 1e-10


def test_sweep_all_but_last_assignment_agrees():
    g = build_line(6)
    for seed in range(5):
        spec = random_spec(6, seed)
        assert abs(
            sweep_amp(g, spec, assign_slots(g, range(g.n - 1))) - sweep_amp(g, spec)
        ) < 1e-12


def test_sweep_amplitude_bounded_by_one():
    for seed in range(10):
        for g in (build_line(9), build_cross_chain(3), build_lattice(2, 3)):
            amp = sweep_amp(g, random_spec(g.n, seed))
            assert abs(amp) <= 1.0 + 1e-9


def test_sweep_reports_counters_and_live_terms():
    g = build_line(6)
    report = sweep_evaluate(build_polynomial(g, random_spec(6, 0)))
    assert report.max_live_terms >= 2
    assert report.mul_count > 0 and report.add_count > 0


def test_sweep_retirement_guards():
    g = build_line(2)
    spec = random_spec(2, 4)
    # lie about the last touch: the owner then sits after the interval
    poly = build_polynomial(g, spec)
    poly.activity[0] = (0, 0)
    poly.owner_position[0] = 1
    with pytest.raises(RetirementBeforeOwner):
        sweep_evaluate(poly)
    # reversed order plus a lying owner position: the I branch is caught live
    poly = order_factors(build_polynomial(g, spec), [1, 0])
    poly.activity[0] = (0, 0)
    poly.owner_position[0] = 0
    with pytest.raises(RetirementBeforeOwner):
        sweep_evaluate(poly)
    # early retirement with a consistent owner leaves residue behind
    poly = build_polynomial(g, spec)
    poly.activity[0] = (0, 0)
    with pytest.raises(NonScalarResidue):
        sweep_evaluate(poly)


# every packaged fixture and every builder shape of the acceptance tests
FRONTIER_GRAPHS = (
    [(path.name, load_graph(path))
     for path in sorted(fixture_path("line_4.graph").parent.glob("*.graph"))]
    + [(f"line:{n}", build_line(n)) for n in range(2, 13)]
    + [(f"cross:{k}", build_cross_chain(k)) for k in range(1, 5)]
    + [(f"lattice:{m}x{n}", build_lattice(m, n)) for m in range(1, 5) for n in range(1, 5)]
)

# The word dict holds up to 2^width Python terms; past this width it runs in
# the auto order instead, which leaves the amplitude unchanged.
WORD_SWEEP_WIDTH = 12


@pytest.mark.parametrize("g", [g for _, g in FRONTIER_GRAPHS],
                         ids=[name for name, _ in FRONTIER_GRAPHS])
def test_frontier_matches_word_sweep(g):
    orderings = {"auto": None, **named_orders(g)}
    spec = random_spec(g.n, 70)
    for ordering, qubits in orderings.items():
        poly = order_factors(sweep_polynomial(g, spec), qubits)
        width = max_active_slots(poly)
        reference = poly if width <= WORD_SWEEP_WIDTH else sweep_polynomial(g, spec)
        ref = word_sweep(reference).amplitude
        report = sweep_evaluate(poly)
        assert abs(report.amplitude - ref) <= 1e-12 * abs(ref), ordering
        assert report.max_live_terms == 2 ** width, ordering
        check_absorption(poly)
        if width <= WORD_SWEEP_WIDTH:
            counters = (report.mul_count, report.add_count)
            assert counters == replayed_counters(frontier_plan(poly)), ordering


def replayed_counters(plan):
    """(mul, add) of the plan replayed on real arrays: each step's multiply
    costs the entries of the frontier it yields, each absorbed entry one
    multiply of the reduceat, each retirement the entries it folds away, and
    the normalization one multiply."""
    frontier = np.ones((1,) * plan.width)
    mul = len(plan.qubit) - len(plan.starts) + 1
    add = 0
    for _, shape, retire in plan.steps:
        frontier = frontier * np.ones(shape)
        mul += frontier.size
        if retire:
            before = frontier.size
            frontier = frontier.sum(axis=retire, keepdims=True)
            add += before - frontier.size
    return mul, add


def check_absorption(poly):
    """The plan's steps are the factors that retire a slot or that no later
    factor covers (touches all their slots); every other factor rides on a
    step that covers it."""
    plan = frontier_plan(poly)
    slots = [f.touched_slots() for f in poly.factors]
    retiring = {last for _, last in poly.activity.values()}
    survivors = [
        pos for pos, own in enumerate(slots)
        if pos in retiring or not any(own <= later for later in slots[pos + 1:])
    ]
    assert len(plan.steps) == len(survivors)
    # each survivor entry's run lists the survivor's qubit, then those it absorbed
    slots_of = {f.qubit: own for f, own in zip(poly.factors, slots)}
    runs = np.split(plan.qubit, plan.starts[1:])
    assert {run[0] for run in runs} == {poly.factors[pos].qubit for pos in survivors}
    assert set(np.concatenate(runs).tolist()) == set(slots_of)
    for survivor, *absorbed in runs:
        assert all(slots_of[q] <= slots_of[survivor] for q in absorbed)


def test_plan_builds_past_numpys_dimension_limit():
    # the as-built order of lattice:9x9 opens more frontier axes than a numpy
    # array has dimensions; its plan maps entries by bit arithmetic all the same
    g = build_lattice(9, 9)
    poly = build_polynomial(g, random_spec(g.n, 0))
    assert frontier_plan(poly).width > 64
    check_absorption(poly)


@pytest.mark.parametrize("g", [g for _, g in FRONTIER_GRAPHS],
                         ids=[name for name, _ in FRONTIER_GRAPHS])
def test_open_slots_sum_to_the_sweep(g):
    spec = random_spec(g.n, 71)
    poly = sweep_polynomial(g, spec)
    ref = sweep_evaluate(poly).amplitude
    last = poly.slot_count - 1
    for open_slots in [(last,)] + [(0, last)] * (last > 0):
        plan = _build_plan(poly, open_slots)
        frontier = _contract(plan, spec.c, spec.s)
        assert sorted(frontier.shape[a] for a in plan.open_axes) == [2] * len(open_slots)
        assert frontier.size == 2 ** len(open_slots)
        amp = 2.0 ** (-g.n / 2.0) * frontier.sum()
        assert abs(amp - ref) <= 1e-12 * abs(ref), open_slots


# ---------------------------------------------------------------------------
# line recursion


def test_line_recursion_n3_closed_form():
    spec = ProjectionSpec.constant(3, np.pi / 4, 0.0)
    c = np.cos(np.pi / 4)
    s = np.sin(np.pi / 4)
    closed = 2.0 ** -1.5 * (
        c * (c * (c + s) + s * (c - s)) + s * (c * (c + s) - s * (c - s))
    )
    assert closed == pytest.approx(0.5)
    assert line_recursion(spec).amplitude == pytest.approx(closed, abs=1e-12)
    zero = ProjectionSpec.constant(3, 0.0, 0.0)
    assert line_recursion(zero).amplitude == pytest.approx(2.0 ** -1.5, abs=1e-12)


def test_line_recursion_matches_sweep_and_oracle():
    for n in (3, 5, 8, 12):
        g = build_line(n)
        sv = build_statevector(g)
        for seed in range(5):
            spec = random_spec(n, seed)
            amp = line_recursion(spec).amplitude
            assert abs(amp - sweep_amp(g, spec)) < 1e-10
            assert abs(amp - project_statevector(sv, spec)) < 1e-10


def test_line_recursion_closed_forms():
    spec1 = random_spec(1, 5)
    assert line_recursion(spec1).amplitude == pytest.approx(
        (spec1.c[0] + spec1.s[0]) / np.sqrt(2.0)
    )
    spec2 = random_spec(2, 6)
    expected = 0.5 * (
        spec2.c[0] * (spec2.c[1] + spec2.s[1]) + spec2.s[0] * (spec2.c[1] - spec2.s[1])
    )
    assert line_recursion(spec2).amplitude == pytest.approx(expected)


def test_line_recursion_counters_exactly_affine():
    for n in (3, 5, 16, 64, 128, 256):
        report = line_recursion(random_spec(n, 7))
        assert report.mul_count == 2 * n - 1
        assert report.add_count == 2 * n - 1
        assert report.max_live_terms == 2


def test_long_line_recursion_agrees_with_sweep():
    for n in (64, 256):
        spec = random_spec(n, 8)
        rec = line_recursion(spec).amplitude
        swp = sweep_amp(build_line(n), spec)
        assert abs(rec - swp) < 1e-12


# ---------------------------------------------------------------------------
# cross-chain recursion


def eq19_expansion(spec):
    """Literal expansion of the double-cross projection (8 qubits)."""
    c, s = spec.c, spec.s
    plus = [c[i] + s[i] for i in range(6)]
    minus = [c[i] - s[i] for i in range(6)]
    c1, s1, c2, s2 = c[6], s[6], c[7], s[7]
    return (2.0 ** -4.0) * (
        c1 * c2 * plus[0] * plus[1] * plus[2] * plus[3] * plus[4] * plus[5]
        + s1 * c2 * minus[0] * minus[1] * minus[2] * minus[3] * plus[4] * plus[5]
        + c1 * s2 * plus[0] * plus[1] * minus[2] * minus[3] * minus[4] * minus[5]
        + s1 * s2 * minus[0] * minus[1] * plus[2] * plus[3] * minus[4] * minus[5]
    )


def test_cross_recursion_single_cross_ghz():
    spec = ProjectionSpec.constant(5, np.pi / 4, 0.0)
    assert cross_chain_recursion(spec).amplitude == pytest.approx(0.5, abs=1e-12)


def test_cross_recursion_k2_matches_written_expansion():
    for seed in range(10):
        spec = random_spec(8, seed)
        assert cross_chain_recursion(spec).amplitude == pytest.approx(
            eq19_expansion(spec), abs=1e-12
        )


def test_cross_recursion_matches_sweep_and_oracle():
    for k in (1, 2, 3, 4):
        g = build_cross_chain(k)
        sv = build_statevector(g)
        for seed in range(5):
            spec = random_spec(g.n, seed)
            amp = cross_chain_recursion(spec).amplitude
            assert abs(amp - sweep_amp(g, spec)) < 1e-10
            assert abs(amp - project_statevector(sv, spec)) < 1e-10


def test_cross_recursion_counters_closed_forms():
    # k + 1 leaf-pair merges (4 multiplies, 2 adds each), then the line
    # recursion over 2k + 1 nodes (2 of each per node after the first, a
    # final add, the normalization multiply)
    for k in range(1, 65):
        report = cross_chain_recursion(random_spec(3 * k + 2, k))
        assert report.mul_count == 8 * k + 5
        assert report.add_count == 6 * k + 3
        assert report.max_live_terms == 2


def test_cross_recursion_size_errors():
    with pytest.raises(TooSmall):
        cross_chain_recursion(random_spec(4, 0))
    with pytest.raises(SizeMismatch):
        cross_chain_recursion(random_spec(9, 0))


# ---------------------------------------------------------------------------
# column evaluator


def test_column_single_cross_matches_ghz_closed_form():
    g = build_lattice(1, 1)
    spec = ProjectionSpec.constant(5, np.pi / 4, 0.0)
    assert column_evaluate(g, spec).amplitude == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (3, 1), (1, 3), (2, 2), (2, 3), (3, 2)])
def test_column_matches_sweep_and_oracle(shape):
    g = build_lattice(*shape)
    sv = build_statevector(g)
    for seed in range(5):
        spec = random_spec(g.n, seed)
        amp = column_evaluate(g, spec).amplitude
        row_major = order_factors(build_polynomial(g, spec), lattice_row_major_order(*shape))
        assert abs(amp - sweep_evaluate(row_major).amplitude) < 1e-10
        assert abs(amp - project_statevector(sv, spec)) < 1e-10


def test_column_degenerate_single_column_is_the_chain():
    # an m x 1 lattice is the canonical chain of m crosses
    for m in (2, 3, 4):
        g = build_lattice(m, 1)
        for seed in range(5):
            spec = random_spec(g.n, seed)
            assert abs(
                column_evaluate(g, spec).amplitude
                - cross_chain_recursion(spec).amplitude
            ) < 1e-12


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (3, 10), (5, 4), (16, 1)])
def test_column_counters_closed_forms(shape):
    m, n = shape
    g = build_lattice(m, n)
    report = column_evaluate(g, random_spec(g.n, 0))
    d = 2 ** m
    # a column's centers in blocks of 3, then the rest: per block of k
    # centers d 2^k multiplies and d (2^k - 1) adds; per corner column after
    # the first d multiplies; the final sum d - 1 adds; one normalization
    # multiply
    blocks = [3] * (m // 3) + [m % 3] * (m % 3 > 0)
    assert report.mul_count == n * sum(d << k for k in blocks) + n * d + 1
    assert report.add_count == n * sum(d * (2**k - 1) for k in blocks) + d - 1
    assert report.max_live_terms == d


def test_column_at_the_row_cap():
    # 16 rows is COLUMN_ROW_CAP: the boundary's highest bit positions
    g = build_lattice(16, 1)
    spec = random_spec(g.n, 3)
    ref = cross_chain_recursion(spec).amplitude
    assert abs(column_evaluate(g, spec).amplitude - ref) <= 1e-12 * abs(ref)
    g = build_lattice(6, 2)
    spec = random_spec(g.n, 4)
    ref = compute_amplitude(g, spec, "sweep").amplitude
    assert abs(column_evaluate(g, spec).amplitude - ref) <= 1e-12 * abs(ref)


def test_column_peak_memory_on_a_tall_lattice():
    # 12 rows: a 2^12-entry boundary, its spare, and one corner column's
    # 2^13-entry chain and its diagonal at a time stay within 0.42 MiB;
    # building several such corner columns at once would pass it
    g = build_lattice(12, 40)
    spec = random_spec(g.n, 0)
    column_evaluate(g, spec)  # warm the layout cache and numpy's
    tracemalloc.start()
    try:
        column_evaluate(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.42 * 2**20


def test_column_errors():
    with pytest.raises(NotALattice):
        column_evaluate(build_line(5), random_spec(5, 0))
    g = build_lattice(17, 1)
    with pytest.raises(ColumnTooWide):
        column_evaluate(g, random_spec(g.n, 0))


# ---------------------------------------------------------------------------
# ordering invariance and profiling


def test_permutation_invariance_tight():
    for g in (build_line(6), build_cross_chain(2)):
        spec = random_spec(g.n, 11)
        base = sweep_amp(g, spec)
        rng = np.random.default_rng(2)
        for _ in range(6):
            perm = list(rng.permutation(g.n))
            poly = order_factors(build_polynomial(g, spec), perm)
            assert abs(sweep_evaluate(poly).amplitude - base) < 1e-12


@pytest.mark.parametrize("g", [build_lattice(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]
                         + [load_graph(fixture_path(f"{name}.graph")) for name in
                            ("fivecross_17", "lattice_3x4", "cross_3", "fig10_c12")])
def test_auto_order_matches_as_built_sweep(g):
    for seed in range(3):
        spec = random_spec(g.n, 40 + seed)
        ref = sweep_amp(g, spec)
        auto = sweep_evaluate(order_factors(build_polynomial(g, spec))).amplitude
        assert abs(auto - ref) <= 1e-12 * abs(ref)


def test_auto_sweep_on_long_lattice_matches_column():
    g = build_lattice(3, 10)
    spec = random_spec(g.n, 44)
    poly = sweep_polynomial(g, spec)
    report = sweep_evaluate(poly)
    assert max_active_slots(poly) <= 5
    assert report.max_live_terms <= 2 ** 5
    ref = column_evaluate(g, spec).amplitude
    assert abs(report.amplitude - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("g,engine", [
    (build_lattice(3, 10), "column"),
    (load_graph(fixture_path("fivecross_17.graph")), "direct-sum"),
], ids=["lattice:3x10", "fivecross_17"])
def test_cached_structure_serves_alternating_specs(g, engine):
    # every sweep_polynomial call binds a spec to the one cached structure;
    # holding all the clones before evaluating any shows none changed it
    specs = [random_spec(g.n, 45), random_spec(g.n, 46)]
    refs = [compute_amplitude(g, spec, engine).amplitude for spec in specs]
    picks = [0, 1, 0, 1, 1, 0]
    polys = [sweep_polynomial(g, specs[i]) for i in picks]
    for i, poly in zip(picks, polys):
        amp = sweep_evaluate(poly).amplitude
        assert abs(amp - refs[i]) <= 1e-12 * abs(refs[i])


def test_five_cross_profile_bounds():
    g = load_graph(fixture_path("fivecross_17.graph"))
    poly = build_polynomial(g, random_spec(17, 13))
    assert max_active_slots(poly) <= 5
    report = sweep_evaluate(poly)
    assert report.max_live_terms <= 4 ** 5


def test_lattice_width_profile_is_deterministic():
    a = lattice_width_profile(2, (2, 3, 4), seed=5)
    b = lattice_width_profile(2, (2, 3, 4), seed=5)
    assert a == b
    assert [row["width"] for row in a] == [2, 3, 4]


# ---------------------------------------------------------------------------
# the engine table


REGISTRY_GRAPHS = (
    [(path.name, load_graph(path))
     for path in sorted(fixture_path("line_4.graph").parent.glob("*.graph"))]
    + [(f"line:{n}", build_line(n)) for n in range(1, 5)]
    + [(f"cross:{k}", build_cross_chain(k)) for k in range(1, 4)]
    + [(f"lattice:{m}x{n}", build_lattice(m, n)) for m in range(1, 4) for n in range(1, 4)]
    # an odd cycle: neither bipartite nor direct-sum fits
    + [("triangle", build_from_edges(3, [(0, 1), (1, 2), (0, 2)]))]
    # a column taller than COLUMN_ROW_CAP
    + [("lattice:17x1", build_lattice(17, 1))]
)


@pytest.mark.parametrize("g", [g for _, g in REGISTRY_GRAPHS],
                         ids=[name for name, _ in REGISTRY_GRAPHS])
def test_applicable_engines_are_exactly_those_that_return(g):
    applicable = applicable_engines(g)
    oracle = "statevector" if "statevector" in applicable else "direct-sum"
    assert oracle in applicable
    spec = random_spec(g.n, 80)
    ref = compute_amplitude(g, spec, oracle).amplitude
    returned = []
    for engine in ENGINE_NAMES:
        try:
            amp = compute_amplitude(g, spec, engine).amplitude
        except LatticeProjError:
            continue
        returned.append(engine)
        assert abs(amp - ref) <= 1e-9, engine
    assert returned == applicable


@pytest.mark.parametrize("shape,fits", [
    ((1, 1), True), ((2, 1), True), ((9, 1), True), ((1, 2), False), ((1, 5), False), ((2, 2), False),
])
def test_cross_recursion_fits_exactly_the_one_column_lattices(shape, fits):
    # a chain of k crosses is the k x 1 lattice; its transpose is no chain
    assert ("cross-recursion" in applicable_engines(build_lattice(*shape))) == fits


EMPTY_BATCHES = {
    "sweep": lambda g: sweep_batch(sweep_polynomial(g, random_spec(g.n, 0)), []),
    "column": lambda g: column_batch(g, []),
    "statevector": lambda g: project_statevector_batch(build_statevector(g), []),
    "direct-sum": lambda g: direct_sum_batch(g, graph.graph_family(g).bipartition, []),
}


@pytest.mark.parametrize("batch", EMPTY_BATCHES.values(), ids=EMPTY_BATCHES)
def test_batch_of_no_specs_is_empty(batch):
    out = batch(build_lattice(2, 2))
    assert out.shape == (0,) and out.dtype == complex


def test_sweep_width_cap():
    wide = build_lattice(40, 40)
    assert applicable_engines(wide) == []
    with pytest.raises(TooLarge, match="bytes"):
        compute_amplitude(wide, random_spec(wide.n, 81), "sweep")
    # 20x20 runs the sweep at width 22
    g = build_lattice(20, 20)
    assert "sweep" in applicable_engines(g)
    assert max_active_slots(sweep_polynomial(g, random_spec(g.n, 82))) <= SWEEP_WIDTH_CAP


def test_family_detected_once_per_graph(monkeypatch):
    calls = []
    real = graph.detect_lattice
    monkeypatch.setattr(graph, "detect_lattice", lambda g: calls.append(g) or real(g))
    graph.graph_family.cache_clear()
    for seed in range(3):
        g = build_lattice(3, 10)  # a new graph object, equal to the last
        for engine in applicable_engines(g):
            compute_amplitude(g, random_spec(g.n, seed), engine)
    assert len(calls) == 1
