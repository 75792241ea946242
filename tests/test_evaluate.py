"""The four evaluation routes against closed forms and the dense oracle."""

import gc
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from latticeproj import evaluate, graph
from latticeproj.engines import (
    ENGINE_NAMES,
    ENGINES,
    SWEEP_WIDTH_CAP,
    applicable_engines,
    compute_amplitude,
    compute_amplitudes,
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
    column_evaluate,
    cross_chain_recursion,
    frontier_plan,
    lattice_width_profile,
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
    ClusterGraph,
    assign_slots,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    lattice_row_major_order,
    load_graph,
)
from latticeproj.oracle import build_statevector, project_statevector

from helpers import cut_plan, named_orders, random_spec, reference_contract, word_sweep


def sweep_amp(g, spec, owners=None):
    """The sweep's amplitude with the factors in their as-built order."""
    return sweep_evaluate(build_polynomial(g, spec, owners)).amplitude


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


def test_sweep_on_edges_stored_high_end_first():
    # edges given high end first (ClusterGraph stores each low end first)
    g = ClusterGraph(3, frozenset({(1, 0), (1, 2)}))
    for seed in range(4):
        spec = random_spec(g.n, seed)
        sweep = compute_amplitude(g, spec, "sweep").amplitude
        assert abs(sweep - compute_amplitude(g, spec, "statevector").amplitude) < 1e-12


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
    the normalization one multiply.  The counters are the layout's, so a
    step-local axis is counted as if it reached the frontier: the replay
    multiplies the whole step in, then sums its step-local and retired axes
    together."""
    frontier = np.ones((1,) * plan.width)
    mul = len(plan.qubit) - len(plan.starts) + 1
    add = 0
    for _, shape, local, retire, _ in plan.steps:
        frontier = frontier * np.ones(shape)
        mul += frontier.size
        if local + retire:
            before = frontier.size
            frontier = frontier.sum(axis=local + retire, keepdims=True)
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


@pytest.mark.parametrize("g", [g for _, g in FRONTIER_GRAPHS],
                         ids=[name for name, _ in FRONTIER_GRAPHS])
def test_contract_matches_the_one_kind_loop_bitwise(g):
    # on these worked-out plans a step-local slot comes only while the
    # frontier is all ones, and halves add as add.reduce does over an axis
    # of length 2
    specs = [random_spec(g.n, 75 + t) for t in range(31)]
    plan = frontier_plan(sweep_polynomial(g, specs[0]))
    for c, s in [(specs[0].c, specs[0].s),
                 (np.stack([p.c for p in specs]), np.stack([p.s for p in specs]))]:
        assert _contract(plan, c, s).tobytes() == reference_contract(plan, c, s).tobytes()


def check_blocks(plan, entries):
    """The plan's blocks tile its values and steps in order, and each holds
    at most ``entries`` values unless it is a single step."""
    blocks = []
    for block, (index, *rest) in plan.blocked_steps:
        if block is not None:
            blocks.append((block, []))
        assert index[-1].stop <= len(blocks[-1][0][3])
        blocks[-1][1].append(tuple(rest))
    assert [step for _, steps in blocks for step in steps] == [
        tuple(rest) for _, *rest in plan.steps]
    runs = [block[0] for block, _ in blocks]
    assert np.concatenate(runs).tobytes() == plan.qubit.tobytes()
    assert all(len(run) <= entries or len(steps) == 1 for run, (_, steps) in zip(runs, blocks))


@pytest.mark.parametrize("entries", [1, 17, 512, 2**20])
def test_blocks_change_no_bits(entries):
    # each plan is built afresh and cut at ``entries``.  On the worked-out
    # plans the reference is the one-kind loop, which builds every value at
    # once; every-owner plans with open slots (as MBQC patterns run) sum
    # step-local slots mid-sweep, unlike that loop, so there it is the
    # same plan in one block
    for name, g in FRONTIER_GRAPHS:
        specs = [random_spec(g.n, 80 + t) for t in range(31)]
        every_owner = build_polynomial(g, specs[0], range(g.n))
        open_slots = tuple(sorted({0, g.n - 1}))
        plan = cut_plan(_build_plan(sweep_polynomial(g, specs[0])), entries)
        owned = cut_plan(_build_plan(every_owner, open_slots), entries)
        whole = cut_plan(_build_plan(every_owner, open_slots), 2**20)
        check_blocks(plan, entries)
        check_blocks(owned, entries)
        for c, s in [(specs[0].c, specs[0].s),
                     (np.stack([p.c for p in specs]), np.stack([p.s for p in specs]))]:
            assert _contract(plan, c, s).tobytes() == reference_contract(plan, c, s).tobytes(), name
            assert _contract(owned, c, s).tobytes() == _contract(whole, c, s).tobytes(), name


@pytest.mark.parametrize("g", [build_line(8192), build_cross_chain(1364)],
                         ids=["line:8192", "cross:1364"])
def test_contract_holds_one_block_of_step_values(g):
    # a four-entry frontier, and at T = 31 one block of 512 values (two
    # copies while they are built); every step's values at once peaked at
    # 23.8 and 11.9 MiB
    specs = [random_spec(g.n, t) for t in range(31)]
    plan = frontier_plan(sweep_polynomial(g, specs[0]))
    check_blocks(plan, evaluate.BLOCK_ENTRIES)
    c, s = np.stack([p.c for p in specs]), np.stack([p.s for p in specs])
    _contract(plan, c, s)  # warm numpy's
    _contract(plan, c, s)
    gc.collect()
    tracemalloc.start()
    try:
        _contract(plan, c, s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _amplitude_bytes(g):
    """The sweep's amplitude at T = 1 and every batching row's 31 batched
    amplitudes, as bytes."""
    poly = sweep_polynomial(g, random_spec(g.n, 72))
    specs = [random_spec(g.n, 73 + t) for t in range(31)]
    one = np.complex128(sweep_evaluate(poly).amplitude)
    batches = {
        name: np.array(ENGINES[name].evaluate_batch(g, specs)).tobytes()
        for name in applicable_engines(g) if ENGINES[name].batch is not None
    }
    return one.tobytes(), batches


@pytest.mark.parametrize("g", [g for _, g in FRONTIER_GRAPHS],
                         ids=[name for name, _ in FRONTIER_GRAPHS])
def test_ufunc_buffer_bound_changes_no_bits(g, monkeypatch):
    bounded = _amplitude_bytes(g)
    assert "sweep" in bounded[1]
    monkeypatch.setattr(evaluate, "UFUNC_BUFFER", 8192)  # numpy's default
    assert _amplitude_bytes(g) == bounded


def test_contract_restores_the_callers_ufunc_buffer():
    g = build_lattice(3, 3)
    spec = random_spec(g.n, 74)
    plan = frontier_plan(sweep_polynomial(g, spec))
    with np.errstate():
        np.setbufsize(4096)
        _contract(plan, spec.c, spec.s)
        assert np.getbufsize() == 4096
        with pytest.raises(ValueError):
            _contract(plan, np.stack([spec.c] * 2), np.stack([spec.s] * 3))
        assert np.getbufsize() == 4096


# Each plan of scripts/plan_digest.py's small corpus, as that script prints it.
RECORDED_DIGESTS = """\
cross_2.graph as-built e1810e283e074904
cross_2.graph worked-out e1810e283e074904
cross_2.graph row-major 0ebc56727acaca7d
cross_3.graph as-built 9e606d56989e0de4
cross_3.graph worked-out 6ee67426ce0ad86f
cross_3.graph row-major 16a801315c0a4aca
fig10_a4.graph as-built f2a4d598316eac2a
fig10_a4.graph worked-out f2a4d598316eac2a
fig10_b7.graph as-built 63a9b379cd01e405
fig10_b7.graph worked-out 63a9b379cd01e405
fig10_c12.graph as-built 758fe264c919eb90
fig10_c12.graph worked-out 758fe264c919eb90
fivecross_17.graph as-built a981ea9a04c34a69
fivecross_17.graph worked-out b702e185277bcfed
lattice_2x2.graph as-built b59ab8b67767a848
lattice_2x2.graph worked-out b59ab8b67767a848
lattice_3x3.graph as-built b6c5499e14566bbb
lattice_3x3.graph worked-out b6c5499e14566bbb
lattice_3x4.graph as-built 0b174f4330f81d15
lattice_3x4.graph worked-out ecbf159d4d6f87e2
line_10.graph as-built d06d0ad89e1f2c99
line_10.graph worked-out d06d0ad89e1f2c99
line_4.graph as-built f2a4d598316eac2a
line_4.graph worked-out f2a4d598316eac2a
lattice:1x1 as-built 63622959b6edce6c
lattice:1x1 worked-out 63622959b6edce6c
lattice:1x1 row-major ce8a2b5958270ea3
lattice:1x2 as-built 7f599a2f96f2a692
lattice:1x2 worked-out 7f599a2f96f2a692
lattice:1x2 row-major d9fbcce7a4ca8945
lattice:1x3 as-built 8a7677f7e25069cb
lattice:1x3 worked-out ee47228f8b104672
lattice:1x3 row-major e416851d29de3406
lattice:1x4 as-built d58b5638763dbeba
lattice:1x4 worked-out 3cda7606a95897f1
lattice:1x4 row-major d0dde0325bba64f7
lattice:2x1 as-built e1810e283e074904
lattice:2x1 worked-out e1810e283e074904
lattice:2x1 row-major 0ebc56727acaca7d
lattice:2x2 as-built da4b4ed33cc32561
lattice:2x2 worked-out da4b4ed33cc32561
lattice:2x2 row-major 10a8527ebfda9a02
lattice:2x3 as-built 1e60a4a32778d047
lattice:2x3 worked-out 9d91b6a896843849
lattice:2x3 row-major d72f5bc7c302de1e
lattice:2x4 as-built 3a6efa7897a7be31
lattice:2x4 worked-out c3b0136b77d852ad
lattice:2x4 row-major ae5d28ee21a5c16c
lattice:3x1 as-built 9e606d56989e0de4
lattice:3x1 worked-out 6ee67426ce0ad86f
lattice:3x1 row-major 16a801315c0a4aca
lattice:3x2 as-built a50085393428d3c1
lattice:3x2 worked-out bf769322bd4f637b
lattice:3x2 row-major 8be4904cb0eee175
lattice:3x3 as-built db66a8ee4db38f18
lattice:3x3 worked-out f1a1469b9368bed4
lattice:3x3 row-major 263810045522cb5a
lattice:3x4 as-built cbe2fed9f4882e0a
lattice:3x4 worked-out 1759a74ad8c6344f
lattice:3x4 row-major 68759150f08ec77e
lattice:4x1 as-built 8c8a29f89e1e1077
lattice:4x1 worked-out b85bfa100a228857
lattice:4x1 row-major 4b8129ee1387599a
lattice:4x2 as-built 0ab89efe164d1bab
lattice:4x2 worked-out 32e4aaffb125a494
lattice:4x2 row-major 5b94a0b2c005a483
lattice:4x3 as-built db056976554734b5
lattice:4x3 worked-out afc34a4df07a83bb
lattice:4x3 row-major 53808de32331d81d
lattice:4x4 as-built 7d70ac6296912b32
lattice:4x4 worked-out d66ca794f71b8728
lattice:4x4 row-major c309aafa290554c6
line:200 as-built 4ae7556b192d23dd
line:200 worked-out 4ae7556b192d23dd
cross:20 as-built cc5e7e11383f6cc0
cross:20 worked-out 7219d765410890e7
cross:20 row-major 642e5c419c22b94c
cphase-chain:5 open-slots d2a57c8aac6d06fc
"""


def _plan_digest_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "plan_digest.py"
    spec = importlib.util.spec_from_file_location("plan_digest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_plans_match_recorded_digests():
    # every array, step, counter and open axis of each plan is byte for byte
    # the recorded one
    lines = list(_plan_digest_script().digest_lines(small=True))
    assert lines == RECORDED_DIGESTS.splitlines()


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


def test_sweep_peak_memory_at_width():
    # lattice:10x10 runs at width 12: a 64 KiB frontier, the old one and the
    # step values; numpy's default ufunc buffers add ~120 KiB more (249 KiB)
    g = build_lattice(10, 10)
    spec = random_spec(g.n, 0)
    ENGINES["sweep"].evaluate(g, spec)  # warm the structure, plan and numpy's
    ENGINES["sweep"].evaluate(g, spec)
    gc.collect()
    tracemalloc.start()
    try:
        ENGINES["sweep"].evaluate(g, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 180 * 2**10


def test_column_errors():
    with pytest.raises(NotALattice):
        column_evaluate(build_line(5), random_spec(5, 0))
    g = build_lattice(17, 1)
    with pytest.raises(ColumnTooWide):
        column_evaluate(g, random_spec(g.n, 0))
    with pytest.raises(SizeMismatch, match="graph has 13"):
        column_evaluate(build_lattice(2, 2), random_spec(12, 0))


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


@pytest.mark.parametrize("batch", ["sweep", "column", "statevector", "direct-sum"])
def test_batch_of_no_specs_is_empty(batch):
    assert compute_amplitudes(build_lattice(2, 2), [], batch) == []


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
