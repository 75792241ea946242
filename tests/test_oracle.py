"""The two brute-force references, against each other and against by-hand values."""

import numpy as np
import pytest

from latticeproj.errors import (
    NotBipartite,
    SizeMismatch,
    TooLarge,
    TooManyControls,
)
from latticeproj.factorize import ProjectionSpec
from latticeproj.graph import (
    Bipartition,
    bipartition,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
)
from latticeproj.oracle import (
    build_statevector,
    direct_sum,
    project_statevector,
    statevector_cap,
)

from helpers import brute_amplitude, random_spec


def test_bell_statevector():
    sv = build_statevector(build_line(2))
    np.testing.assert_allclose(sv.amplitudes, 0.5 * np.array([1, 1, 1, -1]), atol=1e-15)


def test_single_qubit_statevector():
    sv = build_statevector(build_line(1))
    np.testing.assert_allclose(sv.amplitudes, np.full(2, 2 ** -0.5), atol=1e-15)


def test_cross_statevector_is_ghz_like():
    # qubit 4 is the center: amplitude sign is (-1)^(x4 * sum of leaf bits)
    sv = build_statevector(build_cross_chain(1))
    for x in range(32):
        bits = [(x >> (4 - q)) & 1 for q in range(5)]
        sign = (-1) ** (bits[4] * sum(bits[:4]))
        assert sv.amplitudes[x] == pytest.approx(sign * 2 ** -2.5)


def test_cz_application_is_involution():
    g = build_from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    sv = build_statevector(g)
    n, (a, b) = g.n, (1, 2)
    idx = np.arange(1 << n)
    both = ((idx >> (n - 1 - a)) & (idx >> (n - 1 - b)) & 1).astype(bool)
    twice = sv.amplitudes.copy()
    twice[both] = -twice[both]
    twice[both] = -twice[both]
    np.testing.assert_array_equal(twice, sv.amplitudes)


def test_statevector_cap(monkeypatch):
    monkeypatch.setenv("LATTICEPROJ_STATEVEC_CAP", "6")
    with pytest.raises(TooLarge):
        build_statevector(build_line(8))
    monkeypatch.setenv("LATTICEPROJ_STATEVEC_CAP", "22")
    assert statevector_cap() == 22


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


def test_projection_size_mismatch():
    with pytest.raises(SizeMismatch):
        project_statevector(build_statevector(build_line(3)), ProjectionSpec.constant(2, 0, 0))


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
