"""The two brute-force references, against each other and against by-hand values."""

import ast
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import latticeproj.oracle

from latticeproj.cli import bench_fig10, main
from latticeproj.engines import ENGINES
from latticeproj.errors import (
    NotBipartite,
    SizeMismatch,
    TooLarge,
    TooManyControls,
)
from latticeproj.factorize import ProjectionSpec
from latticeproj.graph import (
    Bipartition,
    ClusterGraph,
    bipartition,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    load_graph,
)
from latticeproj.oracle import (
    build_statevector,
    direct_sum,
    project_statevector,
)

from helpers import (
    brute_amplitude,
    edge_mask_statevector,
    loop_direct_sum,
    product_fold,
    random_spec,
)

FIXTURES = sorted(p.name for p in fixture_path("line_4.graph").parent.glob("*.graph"))
# every line, cross and lattice builder shape of at most 16 qubits
BUILDER_SHAPES = [
    g
    for g in (
        [build_line(n) for n in range(1, 17)]
        + [build_cross_chain(k) for k in range(1, 5)]
        + [build_lattice(m, n) for m in range(1, 5) for n in range(1, 5)]
    )
    if g.n <= 16
]


def assert_matches_edge_masks(g):
    """The doubling build is bitwise the real part of the per-edge mask build."""
    amps = build_statevector(g)
    reference = edge_mask_statevector(g)
    assert amps.dtype == np.float64
    assert amps.nbytes == 8 << g.n
    assert not reference.imag.any()
    assert amps.tobytes() == np.ascontiguousarray(reference.real).tobytes()
    assert (np.abs(amps) == 2.0 ** (-g.n / 2.0)).all()


def test_bell_statevector():
    sv = build_statevector(build_line(2))
    np.testing.assert_allclose(sv, 0.5 * np.array([1, 1, 1, -1]), atol=1e-15)


def test_single_qubit_statevector():
    sv = build_statevector(build_line(1))
    np.testing.assert_allclose(sv, np.full(2, 2 ** -0.5), atol=1e-15)


def test_cross_statevector_is_ghz_like():
    # qubit 4 is the center: amplitude sign is (-1)^(x4 * sum of leaf bits)
    sv = build_statevector(build_cross_chain(1))
    for x in range(32):
        bits = [(x >> (4 - q)) & 1 for q in range(5)]
        sign = (-1) ** (bits[4] * sum(bits[:4]))
        assert sv[x] == pytest.approx(sign * 2 ** -2.5)


def test_cz_application_is_involution():
    g = build_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sv = build_statevector(g)
    n, (a, b) = g.n, (1, 2)
    idx = np.arange(1 << n)
    both = ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)
    twice = sv.copy()
    twice[both] = -twice[both]
    twice[both] = -twice[both]
    np.testing.assert_array_equal(twice, sv)


@pytest.mark.parametrize("name", FIXTURES)
def test_statevector_matches_edge_masks_on_fixtures(name):
    assert_matches_edge_masks(load_graph(fixture_path(name)))


@pytest.mark.parametrize("g", BUILDER_SHAPES, ids=repr)
def test_statevector_matches_edge_masks_on_builder_shapes(g):
    assert_matches_edge_masks(g)


@pytest.mark.parametrize("g", [
    build_line(1),
    build_from_edges(5, []),
    build_from_edges(6, [(1, 4)]),
    build_from_edges(3, [(0, 1), (1, 2), (0, 2)]),
    build_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    ClusterGraph(4, frozenset({(3, 0), (2, 1), (1, 0)})),
], ids=["n=1", "no edges", "isolated qubits", "triangle", "5-cycle", "reversed edges"])
def test_statevector_matches_edge_masks_on_edge_cases(g):
    assert_matches_edge_masks(g)


@st.composite
def oriented_graph(draw, max_qubits=10):
    """A random graph whose edges are given in the orientation they were
    drawn in (ClusterGraph stores each low end first)."""
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    qubit = st.integers(0, n - 1)
    edges = {}
    for a, b in draw(st.lists(st.tuples(qubit, qubit), max_size=2 * n)):
        if a != b:
            edges.setdefault(frozenset((a, b)), (a, b))
    return ClusterGraph(n, frozenset(edges.values()))


@settings(max_examples=60, deadline=None)
@given(g=oriented_graph())
def test_statevector_matches_edge_masks_on_random_graphs(g):
    assert_matches_edge_masks(g)


def test_non_power_of_two_vector_is_refused():
    with pytest.raises(SizeMismatch):
        project_statevector(np.ones(6) / np.sqrt(6), ProjectionSpec.constant(2, 0.3, 0.1))
    with pytest.raises(SizeMismatch):
        project_statevector(np.ones(0), ProjectionSpec.constant(2, 0.3, 0.1))


def test_oracle_does_not_import_the_factorized_route():
    # the dense and direct-sum oracles must stay a second, independent route
    tree = ast.parse(Path(latticeproj.oracle.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    assert not imported & {"evaluate", "algebra", "engines", "mbqc"}


def test_statevector_cap(monkeypatch):
    monkeypatch.setattr(latticeproj.oracle, "STATEVEC_CAP", 6)
    with pytest.raises(TooLarge):
        build_statevector(build_line(8))


def test_projection_bell_values():
    g = build_line(2)
    sv = build_statevector(g)
    assert project_statevector(sv, ProjectionSpec.constant(2, 0.0, 0.0)) == pytest.approx(0.5)
    # closed form (1/2)[C1(C2+S2) + S1(C2-S2)] at theta=pi/4, phi=0
    spec = ProjectionSpec.constant(2, np.pi / 4, 0.0)
    c, s = spec.c[0], spec.s[0]
    expected = 0.5 * (c * (c + s) + s * (c - s))
    assert project_statevector(sv, spec) == pytest.approx(expected)
    assert expected == pytest.approx(0.5)


def test_projection_is_not_conjugated():
    # phi = pi/2 makes S purely imaginary; a conjugating implementation
    # would flip the sign of the imaginary part.
    g = build_line(2)
    spec = ProjectionSpec.constant(2, np.pi / 3, np.pi / 2)
    got = project_statevector(build_statevector(g), spec)
    assert got == pytest.approx(brute_amplitude(g, spec))


def kron_bra(spec):
    """The product bra as one explicit 2^n vector, qubit 0 most significant."""
    bra = np.ones(1)
    for c, s in zip(spec.c, spec.s):
        bra = np.kron(bra, [c, s])
    return bra


@pytest.mark.parametrize("n", range(1, 18))
def test_projection_is_the_kronecker_bra_product(n):
    # an arbitrary complex vector, so that a wrong split or bit order shows
    rng = np.random.default_rng(n)
    amps = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    spec = random_spec(n, n)
    got = project_statevector(amps, spec)
    assert got == pytest.approx(complex(kron_bra(spec) @ amps), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("n", range(10, 18))
def test_projection_of_real_statevectors_is_the_kronecker_bra_product(n):
    # the real float64 vectors the oracle folds, at the sizes the workloads use
    rng = np.random.default_rng(100 + n)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picked = rng.choice(len(pairs), size=2 * n, replace=False)
    for g in (build_line(n), build_from_edges(n, [pairs[i] for i in picked])):
        sv = build_statevector(g)
        for seed in range(3):
            spec = random_spec(n, seed)
            expected = complex(kron_bra(spec) @ sv)
            got = project_statevector(sv, spec)
            assert abs(got - expected) <= 1e-12 * max(abs(expected), 2.0 ** (-n / 2.0))


def _random_graph(n, seed):
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    picked = rng.choice(len(pairs), size=min(len(pairs), 2 * n), replace=False)
    return build_from_edges(n, sorted(pairs[i] for i in picked))


@pytest.mark.parametrize("n", range(1, 13))
def test_numpy_bras_match_the_exhaustive_sum(n):
    # n = 1 has an empty high half-bra; an asymmetric spec tells a
    # reversed Kronecker order apart
    g = _random_graph(n, 300 + n)
    sv = build_statevector(g)
    for seed in range(2):
        spec = random_spec(n, 400 + seed)
        expected = brute_amplitude(g, spec)
        got = project_statevector(sv, spec)
        assert abs(got - expected) <= 1e-12 * max(abs(expected), 2.0 ** (-n / 2.0))


@pytest.mark.parametrize("n", range(1, 18))
def test_numpy_bras_match_the_python_product_fold(n):
    for g in (build_line(n), _random_graph(n, 500 + n)):
        sv = build_statevector(g)
        for seed in range(3):
            spec = random_spec(n, 600 + seed)
            expected = product_fold(sv, spec)
            assert abs(project_statevector(sv, spec) - expected) <= 1e-13 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 17])
def test_batched_fold_matches_single_folds(n):
    g = _random_graph(n, 700 + n)
    sv = build_statevector(g)
    specs = [random_spec(n, 800 + t) for t in range(7)]
    singles = [project_statevector(sv, spec) for spec in specs]
    row = ENGINES["statevector"]
    batch = row.evaluate_batch(g, specs)
    assert len(batch) == 7
    scale = max(map(abs, singles))
    assert all(abs(b - a) <= 1e-13 * scale for a, b in zip(singles, batch))
    with pytest.raises(SizeMismatch):
        row.evaluate_batch(g, specs + [random_spec(n + 1, 0)])


@pytest.mark.parametrize("g", [build_line(6), build_cross_chain(3), build_lattice(2, 3)])
def test_batched_direct_sum_is_bitwise_the_single_sum(g):
    b = bipartition(g)
    specs = [random_spec(g.n, 900 + t) for t in range(7)]
    assert ENGINES["direct-sum"].evaluate_batch(g, specs) == [direct_sum(g, b, s) for s in specs]


def test_projection_size_mismatch():
    with pytest.raises(SizeMismatch):
        project_statevector(build_statevector(build_line(3)), ProjectionSpec.constant(2, 0, 0))


def test_direct_sum_size_mismatch():
    g = build_line(3)
    with pytest.raises(SizeMismatch, match="graph has 3"):
        direct_sum(g, bipartition(g), random_spec(4, 0))


def test_direct_sum_bell_formula():
    g = build_line(2)
    b = bipartition(g)
    for seed in range(5):
        spec = random_spec(2, seed)
        c1, s1, c2, s2 = spec.c[0], spec.s[0], spec.c[1], spec.s[1]
        expected = 0.5 * (c1 * (c2 + s2) + s1 * (c2 - s2))
        assert direct_sum(g, b, spec) == pytest.approx(expected)


@pytest.mark.parametrize("g", [
    build_line(6),
    build_cross_chain(2),
    build_lattice(2, 2),
    build_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (5, 6)]),
])
def test_oracles_agree(g):
    sv = build_statevector(g)
    b = bipartition(g)
    for seed in range(12):
        spec = random_spec(g.n, seed)
        assert abs(direct_sum(g, b, spec) - project_statevector(sv, spec)) < 1e-12


def test_oracles_match_exhaustive_sum():
    g = build_cross_chain(1)
    sv = build_statevector(g)
    for seed in range(4):
        spec = random_spec(5, seed)
        assert project_statevector(sv, spec) == pytest.approx(brute_amplitude(g, spec))


def test_direct_sum_rejects_bad_partitions():
    g = build_line(3)
    with pytest.raises(NotBipartite):
        direct_sum(g, Bipartition(frozenset({0, 1}), frozenset({2})), random_spec(3, 0))
    big = Bipartition(frozenset(range(25)), frozenset(range(25, 30)))
    with pytest.raises(TooManyControls):
        direct_sum(build_from_edges(30, [(0, 29)]), big, random_spec(30, 0))


def assert_direct_sum_matches_loop(g, b, spec):
    expected = loop_direct_sum(g, b, spec)
    got = direct_sum(g, b, spec)
    assert abs(got - expected) <= 1e-12 * abs(expected), (got, expected)


@pytest.mark.parametrize("g", [
    load_graph(fixture_path(name)) for name in FIXTURES
] + BUILDER_SHAPES, ids=FIXTURES + [repr(g) for g in BUILDER_SHAPES])
def test_direct_sum_matches_loop_reference(g):
    # every packaged fixture and builder shape is bipartite with <= 16 controls
    b = bipartition(g)
    assert len(b.controls) <= 16
    for seed in range(3):
        assert_direct_sum_matches_loop(g, b, random_spec(g.n, seed))


@pytest.mark.parametrize("g, b", [
    # zero controls: the sum has one term, every target has mask 0
    (build_from_edges(4, []), Bipartition(frozenset(), frozenset(range(4)))),
    # an isolated target next to a connected pair
    (build_from_edges(3, [(0, 1)]), Bipartition(frozenset({0}), frozenset({1, 2}))),
    # every target adjacent to every control (complete bipartite K_{3,4})
    (
        build_from_edges(7, [(s, t) for s in range(3) for t in range(3, 7)]),
        Bipartition(frozenset(range(3)), frozenset(range(3, 7))),
    ),
    # one target adjacent to every control of a line's control class
    (
        build_from_edges(9, [(2 * i, 2 * i + 1) for i in range(4)] + [(2 * i, 8) for i in range(4)]),
        Bipartition(frozenset(range(0, 8, 2)), frozenset(range(1, 9, 2)) | {8}),
    ),
], ids=["zero controls", "isolated target", "complete bipartite", "target on every control"])
def test_direct_sum_matches_loop_reference_on_edge_cases(g, b):
    for seed in range(4):
        spec = random_spec(g.n, seed)
        assert_direct_sum_matches_loop(g, b, spec)
        assert direct_sum(g, b, spec) == pytest.approx(brute_amplitude(g, spec), rel=1e-12)


@st.composite
def bipartite_graph(draw, max_side=7):
    """A random graph on controls 0..k-1 and targets k..k+t-1, edges across only."""
    k = draw(st.integers(min_value=0, max_value=max_side))
    t = draw(st.integers(min_value=1, max_value=max_side))
    pairs = [(s, k + q) for s in range(k) for q in range(t)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = build_from_edges(k + t, edges)
    return g, Bipartition(frozenset(range(k)), frozenset(range(k, k + t)))


@settings(max_examples=60, deadline=None)
@given(gb=bipartite_graph(), seed=st.integers(0, 2**31))
def test_direct_sum_matches_loop_reference_on_random_bipartite_graphs(gb, seed):
    g, b = gb
    assert_direct_sum_matches_loop(g, b, random_spec(g.n, seed))


def test_direct_sum_peak_memory_is_order_two_to_the_controls():
    # k = 16 controls, 8 targets each on 12 of them: one complex coefficient
    # vector (16 << k bytes) and a few per-target temporaries may be live at
    # once, never a (targets x 2^k) array
    k, t = 16, 8
    edges = [(s, k + q) for q in range(t) for s in range(k) if (s + q) % 4]
    g = build_from_edges(k + t, edges)
    b = Bipartition(frozenset(range(k)), frozenset(range(k, k + t)))
    spec = random_spec(g.n, 0)
    direct_sum(g, b, spec)  # warm numpy's caches outside the trace
    tracemalloc.start()
    try:
        direct_sum(g, b, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * (16 << k)


def test_direct_sum_rejects_a_bad_partition_on_every_call():
    # the per-(graph, bipartition) prelude caches its result, not its errors
    g = build_line(3)
    spec = random_spec(3, 0)
    same_class = Bipartition(frozenset({0, 1}), frozenset({2}))
    overlap = Bipartition(frozenset({0, 1}), frozenset({1, 2}))
    big = Bipartition(frozenset(range(25)), frozenset(range(25, 30)))
    for _ in range(2):
        with pytest.raises(NotBipartite):
            direct_sum(g, same_class, spec)
        with pytest.raises(NotBipartite):
            direct_sum(g, overlap, spec)
        with pytest.raises(TooManyControls):
            direct_sum(build_from_edges(30, [(0, 29)]), big, random_spec(30, 0))


def test_direct_sum_prelude_is_shared_by_equal_graphs():
    path = fixture_path("fivecross_17.graph")
    g, again = load_graph(path), load_graph(path)
    assert g == again and g is not again
    spec = random_spec(g.n, 0)
    first = direct_sum(g, bipartition(g), spec)
    hits = latticeproj.oracle._direct_sum_plan.cache_info().hits
    assert direct_sum(again, bipartition(again), spec) == first
    assert latticeproj.oracle._direct_sum_plan.cache_info().hits == hits + 1


# the one-slot statevector memo


@pytest.fixture
def builds(monkeypatch):
    """Start with nothing held and count the doubling builds that follow."""
    monkeypatch.setattr(latticeproj.oracle, "_held", None)
    calls = []
    build = latticeproj.oracle._doubling_build

    def counted(g):
        calls.append(g)
        return build(g)

    monkeypatch.setattr(latticeproj.oracle, "_doubling_build", counted)
    return calls


def test_memo_alternating_graphs_of_one_size(builds):
    # same n, different edges: a memo keyed on the qubit count would hand
    # one graph the other's vector
    line = build_line(8)
    cycle = build_from_edges(8, [(q, (q + 1) % 8) for q in range(8)])
    references = {
        g: np.ascontiguousarray(edge_mask_statevector(g).real).tobytes() for g in (line, cycle)
    }
    for _ in range(4):
        for g in (line, cycle):
            assert build_statevector(g).tobytes() == references[g]
    assert len(builds) == 8


def test_memo_equal_graph_objects_share_one_build(builds):
    g, again = build_lattice(2, 2), build_lattice(2, 2)
    assert g == again and g is not again
    first, second = build_statevector(g), build_statevector(again)
    assert len(builds) == 1
    assert second is first


def test_verify_trials_build_the_statevector_once(builds, capsys):
    code = main(["verify", "--graph", "fivecross_17.graph", "--trials", "31"])
    capsys.readouterr()
    assert code == 0
    assert len(builds) == 1


def test_memo_array_is_read_only(builds):
    sv = build_statevector(build_line(5))
    with pytest.raises(ValueError):
        sv[0] = 1.0
    with pytest.raises(ValueError):
        sv *= 2.0
    assert build_statevector(build_line(5)).tobytes() == sv.tobytes()
    assert len(builds) == 1


def test_memo_reads_the_cap_on_every_call(builds, monkeypatch, capsys):
    g = build_line(8)
    build_statevector(g)
    monkeypatch.setattr(latticeproj.oracle, "STATEVEC_CAP", 6)
    with pytest.raises(TooLarge):
        build_statevector(g)
    code = main(
        ["project", "--builder", "line:8", "--angles", "all:0.3,0.2", "--engine", "statevector"]
    )
    assert code == 2
    assert "cap" in capsys.readouterr().err
    assert len(builds) == 1


def test_memo_drops_the_old_vector_before_building_the_new_one(builds):
    n = 16
    a = build_line(n)
    b = build_from_edges(n, [(q, (q + 1) % n) for q in range(n)])
    build_statevector(b)  # warm numpy's caches, then hold nothing of a or b
    latticeproj.oracle._held = None
    tracemalloc.start()
    try:
        held_a = weakref.ref(build_statevector(a))
        assert held_a() is not None
        tracemalloc.reset_peak()
        build_statevector(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert held_a() is None
    # b's build needs its 8 << n float64 result and a 1 << n byte temporary;
    # a's 8 << n bytes held on top of that would pass 2 * (8 << n)
    assert peak < 3 * (8 << n) // 2


def test_fig10_bench_still_builds_every_statevector(builds):
    # its three graphs alternate, so the one held vector never hits and the
    # suite keeps timing the whole dense route
    bench_fig10(trials=3, seed=0)
    assert len(builds) == 3 * 3
