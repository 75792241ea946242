"""Applicability probe: every engine each graph is offered, run once.

For the graphs the project's roadmap names (``line:4096``, ``cross:64``,
``lattice:3x10``, ``lattice:6x6``, ``fivecross_17`` and the five-wire
CPhase composite) the probe records what ``applicable_engines`` offers,
whether each offered engine ran or raised, the sweep's peak live terms and
the factor order's peak active slots.  The engine list is used as offered,
never filtered, so an engine offered on a graph it cannot handle shows as a
failure (``column`` on ``cross:64``, detected as a 64 x 1 lattice, raises).
"""

from __future__ import annotations

import time

import numpy as np

import checks
from tracing import peak_active
from workloads import cphase_chain


def probe_graphs(seed: int) -> list[tuple[str, object]]:
    import latticeproj as lp

    circuit = cphase_chain(np.random.default_rng(seed))
    return [
        ("line:4096", lp.build_line(4096)),
        ("cross:64", lp.build_cross_chain(64)),
        ("lattice:3x10", lp.build_lattice(3, 10)),
        ("lattice:6x6", lp.build_lattice(6, 6)),
        ("fivecross_17", lp.load_graph(lp.fixture_path("fivecross_17.graph"))),
        ("cphase-chain-5", lp.compile_circuit(lp.parse_circuit(circuit)).graph),
    ]


def run_probe(seed: int) -> dict:
    """Per-graph records plus totals of engines run, raised and wrong."""
    import latticeproj as lp
    from latticeproj.errors import LatticeProjError

    graphs = []
    runs = failures = wrong = 0
    for name, g in probe_graphs(seed):
        spec = lp.ProjectionSpec.random(g.n, np.random.default_rng(seed))
        record = {"graph": name, "qubits": g.n, "engines": {}}
        amplitudes = []
        for engine in lp.applicable_engines(g):
            runs += 1
            start = time.perf_counter()
            try:
                report = lp.compute_amplitude(g, spec, engine)
            except LatticeProjError as exc:
                failures += 1
                record["engines"][engine] = {"ran": False, "raised": type(exc).__name__,
                                             "message": str(exc)}
                continue
            amp = complex(report.amplitude)
            record["engines"][engine] = {
                "ran": True,
                "seconds": time.perf_counter() - start,
                "amplitude": [amp.real, amp.imag],
                "max_live_terms": report.max_live_terms,
            }
            if amp == 0:
                wrong += 1
            amplitudes.append(amp)
            if engine == "sweep":
                record["sweep_peak_live"] = report.max_live_terms
                record["max_active_slots"] = peak_active(lp.sweep_polynomial(g, spec).activity)
        record["engines_agree"] = checks.amplitudes_agree(amplitudes)
        graphs.append(record)
    return {"graphs": graphs, "engines_run": runs, "engine_failures": failures,
            "zero_amplitudes": wrong}
