"""Batched evaluation: every engine's evaluate_batch against its own evaluate."""

import csv
import gc
import io
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from latticeproj import engines, evaluate, oracle
from latticeproj.cli import main
from latticeproj.engines import (
    ENGINES,
    Engine,
    applicable_engines,
    compute_amplitude,
    compute_amplitudes,
)
from latticeproj.errors import LatticeProjError, NotALattice, SizeMismatch
from latticeproj.evaluate import EvalReport
from latticeproj.factorize import ProjectionSpec
from latticeproj.graph import (
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    fixture_path,
    load_graph,
)

from helpers import random_spec, spec_from_bras

BUILDERS = {"line": build_line, "cross": build_cross_chain, "lattice": build_lattice}


def _agree(engine, batch, singles):
    # the statevector's rows meet its amplitudes in one GEMM, whose rounding
    # depends on how many rows it takes; every other engine runs the very
    # same operations per trial
    if engine != "statevector":
        return batch == singles
    scale = max(map(abs, singles))
    return all(abs(a - b) <= 1e-13 * scale for a, b in zip(batch, singles))


def _check_batches(g, trials, seed):
    specs = [random_spec(g.n, seed + t) for t in range(trials)]
    for name in applicable_engines(g):
        row = ENGINES[name]
        singles = [row.evaluate(g, spec).amplitude for spec in specs]
        batch = row.evaluate_batch(g, specs)
        assert len(batch) == trials, name
        assert _agree(name, batch, singles), name


def test_batch_past_numpys_elision_size_rounds_like_single():
    # seven 2^12-entry complex rows (12 controls) pass 256 KiB, the size from
    # which numpy's `*` reuses a temporary operand as its output, an in-place
    # multiply that rounds unlike the one-spec product
    _check_batches(build_lattice(3, 4), 7, 0)


@st.composite
def random_graph(draw, max_qubits=8):
    n = draw(st.integers(min_value=1, max_value=max_qubits))
    pairs = st.tuples(
        st.integers(0, n - 1), st.integers(0, n - 1)
    ).filter(lambda e: e[0] != e[1]).map(lambda e: tuple(sorted(e)))
    return build_from_edges(n, sorted(draw(st.sets(pairs, max_size=2 * n))))


@settings(max_examples=40, deadline=None)
@given(g=random_graph(), trials=st.sampled_from([1, 2, 7]), seed=st.integers(0, 2**20))
def test_batch_equals_single_on_random_graphs(g, trials, seed):
    _check_batches(g, trials, seed)


@settings(max_examples=30, deadline=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("line"), st.integers(1, 12)),
        st.tuples(st.just("cross"), st.integers(1, 5)),
        st.tuples(st.just("lattice"), st.integers(1, 3), st.integers(1, 4)),
    ),
    trials=st.sampled_from([1, 2, 7]),
    seed=st.integers(0, 2**20),
)
def test_batch_equals_single_on_builder_shapes(shape, trials, seed):
    kind, *size = shape
    _check_batches(BUILDERS[kind](*size), trials, seed)


# Pauli eigenstates' bras (C, S): C - S is exactly 0 on <+| and C + S on <-|,
# which zeroes half of a center's 2x2 map
_R = 0.5**0.5
PAULI_BRAS = ((1.0, 0.0), (0.0, 1.0), (_R, _R), (_R, -_R), (_R, 1j * _R), (_R, -1j * _R))


def _lattice_spec(n, rng, pauli):
    """Random angles; with ``pauli``, three qubits in four take a Pauli bra."""
    spec = ProjectionSpec.random(n, rng)
    if not pauli:
        return spec
    c, s = spec.c.copy(), spec.s.copy()
    for q in np.flatnonzero(rng.random(n) < 0.75):
        c[q], s[q] = PAULI_BRAS[rng.integers(len(PAULI_BRAS))]
    return spec_from_bras(c, s)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 7),  # the column's centers run in blocks of 3: one to three blocks
    n=st.integers(1, 4),
    pauli=st.booleans(),
    seed=st.integers(0, 2**20),
)
@example(m=7, n=4, pauli=True, seed=0)
def test_column_on_lattices_matches_the_sweep_and_batches_bitwise(m, n, pauli, seed):
    g = build_lattice(m, n)
    rng = np.random.default_rng(seed)
    specs = [_lattice_spec(g.n, rng, pauli) for _ in range(7)]
    column = ENGINES["column"]
    singles = [column.evaluate(g, spec).amplitude for spec in specs]
    # 1e-12 relative, |amp| floored at 2^(-N/2), a random projection's typical
    # size: Pauli bras give exact zeros, which leave the two routes' rounding
    floor = 2.0 ** (-g.n / 2)
    for spec, amp in zip(specs, singles):
        ref = compute_amplitude(g, spec, "sweep").amplitude
        assert abs(amp - ref) <= 1e-12 * max(abs(ref), floor)
    for trials in (1, 2, 7):
        assert column.evaluate_batch(g, specs[:trials]) == singles[:trials]


# Each batching row's cap and the core its pass calls.  The budget is 2^cap
# entries and a spec holds 2^(controls, frontier width or rows), so a cap
# one above that allows 2 specs a pass.
CAPS = {
    "direct-sum": ("DIRECT_SUM_CONTROL_CAP", "_direct_sum"),
    "sweep": ("SWEEP_WIDTH_CAP", "_contract"),
    "column": ("COLUMN_ROW_CAP", "_column_sum"),
}


def _spy_core(row, record):
    """``row`` with ``record(T)`` called before each call of its pass's core."""

    def batch(g):
        per_spec, budget, core = row.batch(g)

        def spied(c, s):
            record(len(c))
            return core(c, s)

        return per_spec, budget, spied

    return Engine(row.misfit, row.evaluate, batch)


def _spy(monkeypatch, name):
    calls = []
    real = getattr(engines, name)

    def spy(*args):
        calls.append(len(args[-1]))
        return real(*args)

    monkeypatch.setattr(engines, name, spy)
    return calls


@pytest.mark.parametrize("engine", sorted(CAPS))
def test_lowered_cap_splits_the_batch_into_chunks(monkeypatch, engine):
    g = build_lattice(2, 3)
    specs = [random_spec(g.n, 70 + t) for t in range(7)]
    whole = ENGINES[engine].evaluate_batch(g, specs)
    plan = engines.frontier_plan(engines._sweep_structure(g))
    need = {
        "direct-sum": len(engines.graph_family(g).bipartition.controls),
        # the sweep counts its step values beside the frontier: 240 entries here
        "sweep": ((1 << plan.width) + sum(len(b[0]) for b in plan.blocks) - 1).bit_length(),
        "column": 2,
    }[engine]
    cap, kernel = CAPS[engine]
    monkeypatch.setattr(engines, cap, need + 1)
    calls = _spy(monkeypatch, kernel)
    assert ENGINES[engine].evaluate_batch(g, specs) == whole
    # 2 + 2 + 2 + 1: the last, partial chunk is run too
    assert calls == [2, 2, 2, 1]


def test_sweep_chunk_counts_its_step_values(monkeypatch):
    # line:1000 has a 2-axis frontier but 3996 step values a spec: sized by
    # its frontier alone, a 2^16 budget would take all 1000 specs in one pass
    g = build_line(1000)
    specs = [random_spec(g.n, t) for t in range(1000)]
    monkeypatch.setattr(engines, "SWEEP_WIDTH_CAP", 16)
    ENGINES["sweep"].evaluate_batch(g, specs[:2])  # builds the cached structure untraced
    tracemalloc.start()
    try:
        ENGINES["sweep"].evaluate_batch(g, specs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def _batch_peak(name, g, trials=31):
    """Peak traced bytes of a warm evaluate_batch of ``trials`` specs on the row."""
    specs = [random_spec(g.n, t) for t in range(trials)]
    row = ENGINES[name]
    row.evaluate_batch(g, specs)  # builds the vector, plan or layout untraced
    gc.collect()
    tracemalloc.start()
    try:
        row.evaluate_batch(g, specs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# under numpy's default 8192-entry ufunc buffers these peaked at 839 and 939 KiB
@pytest.mark.parametrize("name,g,bound", [
    ("statevector", load_graph(fixture_path("fivecross_17.graph")), 750 << 10),
    ("column", build_cross_chain(8), 800 << 10),
], ids=["statevector-fivecross_17", "column-cross8"])
def test_batch_pass_bounds_numpys_ufunc_buffers(name, g, bound):
    assert _batch_peak(name, g) < bound


def test_batch_pass_runs_under_the_ufunc_bound_and_restores_the_callers(monkeypatch):
    g = build_lattice(2, 3)
    specs = [random_spec(g.n, 100 + t) for t in range(3)]
    seen = {}
    for name in applicable_engines(g):
        row = _spy_core(ENGINES[name], lambda _, name=name: seen.setdefault(name, np.getbufsize()))
        with np.errstate():
            np.setbufsize(4096)
            row.evaluate_batch(g, specs)
            assert np.getbufsize() == 4096
    assert seen == dict.fromkeys(["statevector", "direct-sum", "sweep", "column"], evaluate.UFUNC_BUFFER)
    # 2^3 entries a pass, 2^2 a spec: the wrong-sized spec is in the second chunk
    monkeypatch.setattr(engines, "COLUMN_ROW_CAP", 3)
    calls = _spy(monkeypatch, "_column_sum")
    with np.errstate():
        np.setbufsize(4096)
        with pytest.raises(SizeMismatch):
            ENGINES["column"].evaluate_batch(g, specs[:2] + [random_spec(g.n + 1, 0)])
        assert np.getbufsize() == 4096
    assert calls == [2]


def test_lowered_statevector_cap_splits_the_batch_into_chunks(monkeypatch):
    g = build_line(6)
    specs = [random_spec(g.n, 80 + t) for t in range(7)]
    whole = ENGINES["statevector"].evaluate_batch(g, specs)
    # 2^7 - 2^6 entries beside the vector, 2^3 + 2^3 per spec: 4 specs a pass
    monkeypatch.setattr(oracle, "STATEVEC_CAP", 7)
    calls = _spy(monkeypatch, "_fold")
    assert _agree("statevector", ENGINES["statevector"].evaluate_batch(g, specs), whole)
    assert calls == [4, 3]


@pytest.mark.parametrize("budget", [1, 2, 3, 5])
def test_any_chunk_length_gives_the_same_amplitudes(monkeypatch, budget):
    # every batching row, with the budget cut to `budget` specs a pass
    g = build_cross_chain(2)
    specs = [random_spec(g.n, 90 + t) for t in range(7)]
    whole = {name: ENGINES[name].evaluate_batch(g, specs) for name in applicable_engines(g)}
    real = engines._chunk_length
    monkeypatch.setattr(engines, "_chunk_length", lambda per_spec, _: real(per_spec, budget * per_spec))
    for name, amps in whole.items():
        assert _agree(name, ENGINES[name].evaluate_batch(g, specs), amps), name


def test_chunk_length_keeps_within_the_budget():
    assert engines._chunk_length(8, 64) == 8
    assert engines._chunk_length(8, 63) == 7
    # a spec larger than the budget still runs, alone
    assert engines._chunk_length(8, 7) == 1
    assert engines._chunk_length(8, -5) == 1


def test_a_row_without_a_batch_loops_over_its_evaluate():
    seen = []

    def evaluate(g, spec):
        seen.append(spec)
        return EvalReport(complex(len(seen)), 1, 0, 0)

    row = Engine(lambda g: None, evaluate)
    specs = [random_spec(3, t) for t in range(3)]
    assert row.evaluate_batch(build_line(3), specs) == [1, 2, 3]
    assert seen == specs


def test_compute_amplitudes_checks_like_compute_amplitude():
    g = build_line(5)
    with pytest.raises(SizeMismatch):
        compute_amplitudes(g, [random_spec(5, 0), random_spec(4, 0)], "sweep")
    with pytest.raises(NotALattice):
        compute_amplitudes(g, [random_spec(5, 0)], "column")
    with pytest.raises(LatticeProjError, match="unknown engine"):
        compute_amplitudes(g, [random_spec(5, 0)], "nope")


def test_verify_makes_one_batch_call_per_engine(capsys, monkeypatch):
    g = build_lattice(2, 2)
    names = applicable_engines(g)
    assert names == ["statevector", "direct-sum", "sweep", "column"]
    counts = {}
    for name in names:
        row = ENGINES[name]
        counts[name] = {"evaluate": 0, "batch": []}

        def evaluate(g, spec, row=row, count=counts[name]):
            count["evaluate"] += 1
            return row.evaluate(g, spec)

        batch = _spy_core(row, counts[name]["batch"].append).batch
        monkeypatch.setitem(ENGINES, name, Engine(row.misfit, evaluate, batch))
    code = main(["verify", "--builder", "lattice:2x2", "--trials", "31"])
    out = capsys.readouterr().out
    assert code == 0
    assert len(list(csv.DictReader(io.StringIO(out)))) == 31
    assert counts == {name: {"evaluate": 0, "batch": [31]} for name in names}


def test_verify_csv_is_the_per_trial_one(capsys):
    # the amplitudes verify prints are each engine's per-spec evaluate
    code = main(["verify", "--builder", "cross:2", "--trials", "5", "--seed", "3"])
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert code == 0
    g = build_cross_chain(2)
    for trial, row in enumerate(rows):
        spec = random_spec(g.n, 3 + trial)
        for name in applicable_engines(g):
            amp = ENGINES[name].evaluate(g, spec).amplitude
            key = name.replace("-", "_")
            if name == "statevector":
                assert abs(complex(float(row[f"{key}_re"]), float(row[f"{key}_im"])) - amp) <= 1e-13 * abs(amp)
            else:
                assert (row[f"{key}_re"], row[f"{key}_im"]) == (repr(amp.real), repr(amp.imag))
