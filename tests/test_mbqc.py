"""Compiled measurement patterns against their declared gate matrices."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from latticeproj.errors import (
    ArityMismatch,
    CircuitParseError,
    LatticeProjError,
    QubitCollision,
    SizeMismatch,
    ZeroBranch,
)
from latticeproj.graph import build_from_edges
from latticeproj import mbqc
from latticeproj.engines import compute_amplitude, compute_amplitudes
from latticeproj.mbqc import (
    _pattern_plan,
    CNOT_MATRIX,
    CZ_MATRIX,
    Gate,
    HADAMARD,
    MeasurementPattern,
    compile_circuit,
    compile_cnot,
    compile_cphase,
    compile_cphase_exact,
    compile_rotation,
    compile_z_rotation,
    compose,
    cphase_matrix,
    parse_circuit,
    pattern_action_matrix,
    pattern_projection_spec,
    pattern_rotation_angles,
    rotation_bra,
    rotation_projector_to_spec,
    rz_matrix,
    rx_matrix,
    simulate_pattern,
)

from helpers import (
    align_residual,
    circuit_plus_state,
    declared_gate_matrix,
    dense_pattern_action,
    kron_semantics,
)


def assert_realizes(pattern, target=None, tol=1e-9):
    """The pattern's simulated action is the target matrix up to one scalar."""
    target = pattern.semantics if target is None else target
    action = pattern_action_matrix(pattern)
    residual, scalar = align_residual(action, target)
    assert residual <= tol * np.linalg.norm(action)
    assert abs(scalar) > 1e-12
    return scalar


# ---------------------------------------------------------------------------
# single-qubit patterns


def test_z_rotation_theta_zero_maps_zero_to_plus():
    out = simulate_pattern(compile_z_rotation(0.0), np.array([1.0, 0.0]))
    out = out / np.linalg.norm(out)
    np.testing.assert_allclose(out, np.full(2, 2 ** -0.5), atol=1e-12)


def test_z_rotation_matches_matrix_oracle():
    rng = np.random.default_rng(0)
    for theta in (0.0, np.pi / 4, *rng.uniform(0, 2 * np.pi, 3)):
        pattern = compile_z_rotation(theta)
        expected = HADAMARD @ rz_matrix(theta)
        assert_realizes(pattern, expected)
        # and on a random state
        psi = rng.normal(size=2) + 1j * rng.normal(size=2)
        out = simulate_pattern(pattern, psi)
        residual, _ = align_residual(out, expected @ psi)
        assert residual < 1e-9


def test_rotation_pattern_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    assert_realizes(compile_rotation(0.0, 0.0, 0.0), HADAMARD)
    theta = 1.234
    assert_realizes(compile_rotation(theta, 0.0, 0.0), HADAMARD @ rz_matrix(theta))
    for _ in range(4):
        a, b, c = rng.uniform(0, 2 * np.pi, 3)
        expected = HADAMARD @ rz_matrix(c) @ rx_matrix(b) @ rz_matrix(a)
        assert_realizes(compile_rotation(a, b, c), expected)


# ---------------------------------------------------------------------------
# two-qubit patterns


def test_cnot_pattern_is_cz_on_basis_states():
    pattern = compile_cnot()
    scalar = assert_realizes(pattern, CZ_MATRIX)
    action = pattern_action_matrix(pattern)
    # |00> unchanged, |11> picks up the minus sign relative to it
    assert action[0, 0] == pytest.approx(scalar)
    assert action[3, 3] == pytest.approx(-scalar)
    assert abs(action[1, 2]) < 1e-12


def test_cphase_pattern_matches_declared_semantics():
    rng = np.random.default_rng(2)
    for theta in (0.0, np.pi / 2, np.pi, *rng.uniform(0, 2 * np.pi, 5)):
        pattern = compile_cphase(theta)
        expected = np.diag(
            [1.0, 1.0, np.exp(-0.5j * theta), np.exp(0.5j * theta)]
        ).astype(complex)
        np.testing.assert_allclose(pattern.semantics, expected, atol=1e-15)
        assert_realizes(pattern)


def test_cphase_exact_matches_cphase_gate():
    rng = np.random.default_rng(3)
    for theta in (0.0, np.pi / 2, np.pi, *rng.uniform(0, 2 * np.pi, 5)):
        pattern = compile_cphase_exact(theta)
        assert_realizes(pattern, cphase_matrix(theta))
    # theta = pi is the CZ gate up to a global phase
    assert_realizes(compile_cphase_exact(np.pi), CZ_MATRIX)


def test_cphase_theta_zero_is_identity_up_to_scalar():
    assert_realizes(compile_cphase(0.0), np.eye(4, dtype=complex))


def test_cphase_figure_pattern_shape():
    pattern = compile_cphase(1.0)
    assert pattern.graph.n == 6
    degrees = sorted(len([e for e in pattern.graph.edges if q in e]) for q in range(6))
    assert degrees == [1, 1, 2, 2, 3, 3]  # square plus two tails
    assert set(pattern.measurements.values()) == {0.25, -0.25, 0.0}


# ---------------------------------------------------------------------------
# composition


def test_compose_two_z_rotations():
    p1, p2 = compile_z_rotation(0.3), compile_z_rotation(1.1)
    comp = compose([p1, p2], [(0,), (0,)])
    expected = p2.semantics @ p1.semantics
    np.testing.assert_allclose(comp.semantics, expected, atol=1e-12)
    assert_realizes(comp)


def test_compose_with_pass_through_stage_is_identity():
    wire = MeasurementPattern(
        graph=build_from_edges(1, []),
        inputs=(0,),
        outputs=(0,),
        measurements={},
        semantics=np.eye(2, dtype=complex),
    )
    p = compile_z_rotation(0.9)
    comp = compose([p, wire], [(0,), (0,)])
    np.testing.assert_allclose(comp.semantics, p.semantics, atol=1e-15)
    assert_realizes(comp)


def test_compose_fig14f_four_cphases_on_five_wires():
    thetas = (0.4, 1.0, 1.7, 2.5)
    stages = [compile_cphase(t) for t in thetas]
    wiring = [(0, 1), (1, 2), (2, 3), (3, 4)]
    comp = compose(stages, wiring)
    assert len(comp.inputs) == 5 and len(comp.outputs) == 5
    assert_realizes(comp)


def test_compose_error_cases():
    p = compile_cphase(0.5)
    with pytest.raises(ArityMismatch):
        compose([p], [(0,)])
    with pytest.raises(QubitCollision):
        compose([p], [(0, 0)])
    with pytest.raises(ArityMismatch):
        compose([p], [])


@pytest.mark.parametrize("inputs,outputs", [((0, 0), (1,)), ((0,), (1, 1))])
def test_repeated_input_or_output_qubit_is_a_collision(inputs, outputs):
    with pytest.raises(QubitCollision):
        MeasurementPattern(
            graph=build_from_edges(2, [(0, 1)]),
            inputs=inputs,
            outputs=outputs,
            measurements={0: 0.3},
            semantics=np.zeros((1 << len(outputs), 1 << len(inputs)), dtype=complex),
        )


def test_composite_semantics_is_built_on_the_first_read_and_kept(monkeypatch):
    calls = []
    apply_on_wires = mbqc._apply_on_wires

    def counted(*args):
        calls.append(args[1])
        return apply_on_wires(*args)

    monkeypatch.setattr(mbqc, "_apply_on_wires", counted)
    pattern = compile_circuit(parse_circuit("CNOT 0 1\nRZ 1 0.5\nH 0\n"))
    assert calls == []
    first = pattern.semantics
    assert len(calls) == 5  # H, CZ, H on the target, then RZ and H
    assert pattern.semantics is first
    assert len(calls) == 5


def test_pattern_takes_semantics_or_stages_not_both():
    with pytest.raises(TypeError):
        MeasurementPattern(
            graph=build_from_edges(1, []), inputs=(0,), outputs=(0,), measurements={}
        )


def _declared_stage(semantics):
    """A wire-only stage on k = log2(dim) wires declaring an arbitrary matrix."""
    k = semantics.shape[0].bit_length() - 1
    return MeasurementPattern(
        graph=build_from_edges(k, []),
        inputs=tuple(range(k)),
        outputs=tuple(range(k)),
        measurements={},
        semantics=semantics,
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_compose_semantics_matches_kron_reference(data):
    # every stage kind on 1-6 wires, any wire order: reversed and
    # non-adjacent tuples, plus dense declared matrices (which, unlike the
    # diagonal or swap-symmetric gates, tell a reversed tuple apart) on 1-3 wires
    width = data.draw(st.integers(1, 6), label="wires")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31), label="seed"))

    def angle():
        return float(rng.uniform(0, 2 * np.pi))

    def dense(k):
        shape = (1 << k, 1 << k)
        return _declared_stage(rng.normal(size=shape) + 1j * rng.normal(size=shape))

    kinds = [
        (1, lambda: compile_z_rotation(angle())),
        (1, lambda: compile_rotation(angle(), angle(), angle())),
        (1, _pass_through),
        (1, lambda: dense(1)),
        (2, compile_cnot),
        (2, lambda: compile_cphase(angle())),
        (2, lambda: compile_cphase_exact(angle())),
        (2, lambda: dense(2)),
        (3, lambda: dense(3)),
    ]
    usable = [kind for kind in kinds if kind[0] <= width]
    stages, wiring = [], []
    for _ in range(data.draw(st.integers(1, 8), label="stages")):
        k, make = usable[data.draw(st.integers(0, len(usable) - 1), label="kind")]
        wires = data.draw(st.permutations(range(width)), label="wires")[:k]
        stages.append(make())
        wiring.append(tuple(wires))
    semantics = compose(stages, wiring).semantics
    reference = kron_semantics(stages, wiring)
    assert semantics.shape == reference.shape
    assert np.abs(semantics - reference).max() <= 1e-13 * np.abs(reference).max()


def test_compose_ten_wire_cz_chain_at_the_cap(monkeypatch):
    # 2w = 20 is exactly the default cap; the I-shape CZ declares its gate
    # exactly, so the product is diag((-1)^(sum_i x_i x_{i+1})) to the bit
    monkeypatch.delenv("LATTICEPROJ_STATEVEC_CAP", raising=False)
    width = 10
    pattern = compile_circuit(parse_circuit(
        "".join(f"CZ {i} {i + 1}\n" for i in range(width - 1))
    ))
    x = np.arange(1 << width)
    bits = (x[:, None] >> (width - 1 - np.arange(width))) & 1
    signs = (-1.0) ** (bits[:, :-1] * bits[:, 1:]).sum(axis=1)
    assert np.array_equal(pattern.semantics, np.diag(signs).astype(complex))


def _cnot_ladder(width, seed):
    """CNOT ladder down ``width`` wires, an RZ on four of them and a CPHASE."""
    rng = np.random.default_rng(seed)
    rz_wires = set(np.linspace(0, width - 2, 4).astype(int).tolist())
    lines = []
    for w in range(width - 1):
        if w in rz_wires:
            lines.append(f"RZ {w} {float(rng.uniform(0, 2 * np.pi))!r}")
        lines.append(f"CNOT {w} {w + 1}")
        if w == width // 2:
            lines.append(f"CPHASE {w - 1} {w + 1} {float(rng.uniform(0, 2 * np.pi))!r}")
    return parse_circuit("\n".join(lines))


def test_wide_ladder_projects_to_the_declared_circuit_state():
    # no 2^w x 2^w matrix: the sweep's amplitude at several output bras,
    # with the phase rule of pattern_projection_spec, against the declared
    # gates applied to |+>^16, up to the pattern's one post-selection scalar
    gates = _cnot_ladder(16, seed=4)
    pattern = compile_circuit(gates)
    state = circuit_plus_state(gates).reshape((2,) * 16)
    rng = np.random.default_rng(5)
    specs, phases, references = [], [], []
    for _ in range(6):
        out_thetas = dict(zip(pattern.outputs, rng.uniform(0, 2 * np.pi, 16).tolist()))
        specs.append(pattern_projection_spec(pattern, out_thetas))
        phases.append(np.exp(-1j * sum(pattern_rotation_angles(pattern, out_thetas))))
        projected = state
        for q in pattern.outputs:
            projected = np.tensordot(rotation_bra(out_thetas[q]), projected, (0, 0))
        references.append(complex(projected))
    amplitudes = np.array(phases) * compute_amplitudes(pattern.graph, specs, "sweep")
    residual, scalar = align_residual(amplitudes, references)
    assert residual <= 1e-10 * np.linalg.norm(amplitudes)
    assert abs(scalar) > 0


# ---------------------------------------------------------------------------
# simulation details


def test_simulate_without_measurements_is_the_cz_network():
    g = build_from_edges(3, [(0, 1), (1, 2)])
    pattern = MeasurementPattern(
        graph=g,
        inputs=(0, 1, 2),
        outputs=(0, 1, 2),
        measurements={},
        semantics=np.eye(8, dtype=complex),
    )
    action = pattern_action_matrix(pattern)
    phases = np.ones(8)
    for x in range(8):
        bits = [(x >> (2 - q)) & 1 for q in range(3)]
        phases[x] = (-1) ** ((bits[0] & bits[1]) ^ (bits[1] & bits[2]))
    np.testing.assert_allclose(action, np.diag(phases), atol=1e-12)


def test_simulate_rejects_wrong_input_dimension():
    with pytest.raises(SizeMismatch):
        simulate_pattern(compile_z_rotation(0.1), np.ones(4))


def test_zero_branch_is_reported():
    # bell-pair graph fully measured; these two angles annihilate the branch
    pattern = MeasurementPattern(
        graph=build_from_edges(2, [(0, 1)]),
        inputs=(),
        outputs=(),
        measurements={0: 3 * np.pi / 4, 1: np.pi / 4},
        semantics=np.ones((1, 1), dtype=complex),
    )
    with pytest.raises(ZeroBranch):
        simulate_pattern(pattern, np.ones(1, dtype=complex))


def test_zero_column_is_reported():
    # ancilla 1 measured at pi/2 annihilates |+> (input 0 in |0>) but maps
    # |-> (input 0 in |1>) to -i, so only the first column vanishes
    pattern = MeasurementPattern(
        graph=build_from_edges(2, [(0, 1)]),
        inputs=(0,),
        outputs=(0,),
        measurements={1: np.pi / 2},
        semantics=np.eye(2, dtype=complex),
    )
    with pytest.raises(ZeroBranch):
        pattern_action_matrix(pattern)
    with pytest.raises(ZeroBranch):
        simulate_pattern(pattern, np.array([1.0, 0.0]))
    out = simulate_pattern(pattern, np.array([0.0, 1.0]))
    np.testing.assert_allclose(out, [0.0, -1j], atol=1e-15)


def _pass_through():
    return MeasurementPattern(
        graph=build_from_edges(1, []),
        inputs=(0,),
        outputs=(0,),
        measurements={},
        semantics=np.eye(2, dtype=complex),
    )


def _random_chain(seed):
    """Seeded compose chain of 2-3 random stages on wires 0-2, <= 16 qubits."""
    rng = np.random.default_rng(seed)

    def angle():
        return float(rng.uniform(0, 2 * np.pi))

    one_wire = (
        lambda: compile_z_rotation(angle()),
        lambda: compile_rotation(angle(), angle(), angle()),
        _pass_through,
    )
    two_wire = (
        compile_cnot,
        lambda: compile_cphase(angle()),
        lambda: compile_cphase_exact(angle()),
    )
    while True:
        stages, wiring = [], []
        for _ in range(rng.integers(2, 4)):
            if rng.random() < 0.5:
                stages.append(one_wire[rng.integers(3)]())
                wiring.append((int(rng.integers(3)),))
            else:
                stages.append(two_wire[rng.integers(3)]())
                wiring.append(tuple(int(w) for w in rng.choice(3, 2, replace=False)))
        pattern = compose(stages, wiring)
        if pattern.graph.n <= 16:
            return pattern


def _cz_network():
    return MeasurementPattern(
        graph=build_from_edges(3, [(0, 1), (1, 2)]),
        inputs=(0, 1, 2),
        outputs=(0, 1, 2),
        measurements={},
        semantics=np.eye(8, dtype=complex),
    )


REFERENCE_PATTERNS = {
    "z-rotation": compile_z_rotation(0.77),
    "rotation": compile_rotation(0.3, 1.1, 2.0),
    "cnot": compile_cnot(),
    "cphase": compile_cphase(1.3),
    "cphase-exact": compile_cphase_exact(0.9),
    "circuit": compile_circuit(parse_circuit("CNOT 0 1\nRZ 1 0.5\nH 0\n")),
    "cz-network": _cz_network(),
    # the untouched CPhase control is an input that is also an output
    "pass-through-control": compose(
        [compile_cphase(0.7), compile_z_rotation(0.4)], [(0, 1), (1,)]
    ),
    **{f"chain-seed{seed}": _random_chain(seed) for seed in range(8)},
    # no open input slot: a 3-qubit line with only qubit 0 measured
    "no-inputs": MeasurementPattern(
        graph=build_from_edges(3, [(0, 1), (1, 2)]),
        inputs=(),
        outputs=(1, 2),
        measurements={0: 0.6},
        semantics=np.zeros((4, 1), dtype=complex),
    ),
    # no open output slot: input 0 and every other qubit measured
    "no-outputs": MeasurementPattern(
        graph=build_from_edges(3, [(0, 1), (1, 2)]),
        inputs=(0,),
        outputs=(),
        measurements={0: 0.2, 1: 1.4, 2: 2.9},
        semantics=np.zeros((1, 2), dtype=complex),
    ),
}


@pytest.mark.parametrize(
    "pattern", REFERENCE_PATTERNS.values(), ids=REFERENCE_PATTERNS.keys()
)
def test_action_matrix_matches_dense_reference(pattern):
    action = pattern_action_matrix(pattern)
    reference = dense_pattern_action(pattern)
    assert action.shape == reference.shape
    assert np.linalg.norm(action - reference) <= 1e-12 * np.linalg.norm(reference)


def _cphase_chain(wires, seed):
    rng = np.random.default_rng(seed)
    text = "".join(
        f"CPHASE {w} {w + 1} {float(t)!r}\n"
        for w, t in enumerate(rng.uniform(0, 2 * np.pi, wires - 1))
    )
    return compile_circuit(parse_circuit(text))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_action_matrix_matches_dense_reference_on_random_patterns(data):
    n = data.draw(st.integers(1, 7))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda e: e[0] != e[1]).map(lambda e: tuple(sorted(e)))
    edges = data.draw(st.sets(pairs, max_size=2 * n))
    qubits = st.lists(st.integers(0, n - 1), unique=True)
    inputs, outputs = tuple(data.draw(qubits)), tuple(data.draw(qubits))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 31)))
    measured = [q for q in range(n) if q not in outputs]
    pattern = MeasurementPattern(
        graph=build_from_edges(n, sorted(edges)),
        inputs=inputs,
        outputs=outputs,
        measurements=dict(zip(measured, rng.uniform(0, 2 * np.pi, len(measured)))),
        semantics=np.zeros((1 << len(outputs), 1 << len(inputs)), dtype=complex),
    )
    reference = dense_pattern_action(pattern)
    try:
        action = pattern_action_matrix(pattern)
    except ZeroBranch:
        assert np.linalg.norm(reference, axis=0).min() <= 1e-12
        return
    assert action.shape == reference.shape
    assert np.linalg.norm(action - reference) <= 1e-12 * np.linalg.norm(reference)


@pytest.mark.parametrize("wires,width", [(5, 11), (8, 17)])
def test_cphase_chain_peak_frontier(wires, width):
    # the peak live array of the measure-as-soon-as-possible schedule:
    # 2^11 entries on the 21-qubit chain, 2^17 on the 36-qubit one
    pattern = _cphase_chain(wires, seed=8)
    opened = pattern.inputs + tuple(q for q in pattern.outputs if q not in pattern.inputs)
    assert _pattern_plan(pattern.graph, opened).width == width


def test_eight_wire_cphase_chain_beyond_the_dense_limit():
    # 36 qubits: a dense 2^36 tensor would take 1 TB
    pattern = _cphase_chain(8, seed=8)
    assert pattern.graph.n == 36 and len(pattern.inputs) == 8
    assert_realizes(pattern)


# ---------------------------------------------------------------------------
# bridge to the main engine


def test_rotation_projector_to_spec_values():
    assert rotation_projector_to_spec(0.0) == (np.pi / 4, 0.0)
    theta_p, phi_p = rotation_projector_to_spec(np.pi / 2)
    assert theta_p == pytest.approx(np.pi / 4)
    assert phi_p == pytest.approx(np.pi)
    # the C/S bra times e^{-i theta} reproduces <theta|_R exactly
    for theta in (0.3, 1.9):
        tp, pp = rotation_projector_to_spec(theta)
        cs = np.array([np.cos(tp), np.exp(1j * pp) * np.sin(tp)])
        np.testing.assert_allclose(
            np.exp(-1j * theta) * cs, rotation_bra(theta), atol=1e-12
        )


@pytest.mark.parametrize("pattern", [
    compile_z_rotation(0.77),
    compile_rotation(0.3, 1.1, 2.0),
    compile_cnot(),
    compile_cphase(1.3),
    compile_cphase_exact(0.9),
    _cphase_chain(8, seed=8),
])
def test_fully_projected_pattern_matches_engine_sweep(pattern):
    rng = np.random.default_rng(17)
    out_thetas = {
        q: float(a)
        for q, a in zip(pattern.outputs, rng.uniform(0, 2 * np.pi, len(pattern.outputs)))
    }
    dim_in = 1 << len(pattern.inputs)
    plus_in = np.full(dim_in, dim_in ** -0.5, dtype=complex)
    outvec = simulate_pattern(pattern, plus_in)
    bra = np.array([1.0], dtype=complex)
    for q in pattern.outputs:
        bra = np.kron(bra, rotation_bra(out_thetas[q]))
    scalar_simulated = complex(bra @ outvec)

    spec = pattern_projection_spec(pattern, out_thetas)
    scalar_engine = compute_amplitude(pattern.graph, spec, "sweep").amplitude
    phase = np.exp(-1j * sum(pattern_rotation_angles(pattern, out_thetas)))
    assert abs(scalar_simulated - phase * scalar_engine) < 1e-12


# ---------------------------------------------------------------------------
# circuit DSL


def test_parse_circuit():
    gates = parse_circuit("RZ 0 0.5\nH 1\n# comment\nCPHASE 0 1 3.0\n")
    assert gates == [
        Gate("RZ", (0,), 0.5),
        Gate("H", (1,), None),
        Gate("CPHASE", (0, 1), 3.0),
    ]


@pytest.mark.parametrize("bad", ["FOO 0", "RZ 0", "CZ 1 1", "RZ x 0.5", "CPHASE 0 1"])
def test_parse_circuit_rejects(bad):
    with pytest.raises(CircuitParseError):
        parse_circuit(bad)


@pytest.mark.parametrize("angle", ["nan", "inf", "-inf", "1e999"])
def test_parse_circuit_rejects_non_finite_angles(angle):
    with pytest.raises(CircuitParseError, match="^line 2: angle must be finite") as exc:
        parse_circuit(f"CZ 0 1\nRZ 0 {angle}\n")
    assert exc.value.lineno == 2


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
def test_pattern_rejects_non_finite_measurement_angles(angle):
    with pytest.raises(ValueError, match="must be finite"):
        MeasurementPattern(
            build_from_edges(2, [(0, 1)]), (0,), (1,), {0: angle}, semantics=np.eye(2),
        )
    # the declared R_Z(angle) is NaN, which numpy warns about
    with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="must be finite"):
        compile_circuit([Gate("RZ", (0,), angle)])


@pytest.mark.parametrize("angle", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("build", [
    compile_z_rotation,
    lambda a: compile_rotation(a, 0.0, 0.0),
    lambda a: compile_rotation(0.0, a, 0.0),
    lambda a: compile_rotation(0.0, 0.0, a),
    compile_cphase,
    compile_cphase_exact,
    lambda a: compile_circuit([Gate("RZ", (0,), a)]),
], ids=["z-rotation", "rotation-theta", "rotation-zeta", "rotation-xi", "cphase",
        "cphase-exact", "circuit"])
def test_gate_constructors_reject_non_finite_angles_before_any_warning(build, angle):
    # the angle is checked before the declared semantics is built
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be finite"):
            build(angle)


@pytest.mark.parametrize("kind", sorted(mbqc._GATES))
def test_every_gate_kind_parses_and_compiles(kind):
    operands, takes_angle, _ = mbqc._GATES[kind]
    line = " ".join([kind.lower()] + [str(q) for q in range(operands)] + ["0.7"] * takes_angle)
    (gate,) = parse_circuit(line)
    assert gate == Gate(kind, tuple(range(operands)), 0.7 if takes_angle else None)
    pattern = compile_circuit([gate])
    np.testing.assert_allclose(pattern.semantics, declared_gate_matrix(gate), atol=1e-12)
    assert_realizes(pattern)


@pytest.mark.parametrize("extra", [-1, 1], ids=["too-few", "too-many"])
@pytest.mark.parametrize("kind", sorted(mbqc._GATES))
def test_library_gate_with_the_wrong_operand_count_is_refused(kind, extra):
    operands, takes_angle, _ = mbqc._GATES[kind]
    gate = Gate(kind, tuple(range(operands + extra)), 0.7 if takes_angle else None)
    with pytest.raises(ArityMismatch):
        compile_circuit([gate])


@pytest.mark.parametrize("gate", [
    Gate("RZ", (0,)), Gate("RX", (0,)), Gate("CPHASE", (0, 1)), Gate("H", (0,), 0.5),
], ids=str)
def test_library_gate_without_its_angle_or_with_a_stray_one_is_refused(gate):
    with pytest.raises(LatticeProjError, match="angle"):
        compile_circuit([gate])


def test_compile_circuit_cnot_is_exact():
    pattern = compile_circuit(parse_circuit("CNOT 0 1\n"))
    np.testing.assert_allclose(pattern.semantics, CNOT_MATRIX, atol=1e-12)
    assert_realizes(pattern)


def test_compile_circuit_single_cphase_is_the_square_pattern():
    pattern = compile_circuit(parse_circuit("CPHASE 0 1 1.5\n"))
    assert pattern.graph.n == 6
    assert_realizes(pattern)


def test_compile_circuit_empty_errors():
    with pytest.raises(CircuitParseError, match="no gates"):
        compile_circuit([])
