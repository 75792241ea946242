"""Local projections on cluster states, two ways.

Brute-force oracles (dense statevector, control-bitstring sum) and the
factorized route: one binomial factor of {I, Z, U, D} tensor words per
qubit, whose trace (times 2^(-N/2)) is the projection amplitude.  On top
of the generic sweep sit the line and cross-chain recursions, the lattice
column evaluator, a profiling harness, and a compiler from small gate
circuits to measurement patterns.
"""

from .algebra import (
    EMPTY_WORD,
    Letter,
    SignedLetter,
    TensorWord,
    ZERO,
    letter_matrix,
    letter_mul,
    letter_trace,
    word_mul,
    word_trace,
)
from .engines import (
    ENGINE_NAMES,
    applicable_engines,
    compute_amplitude,
    compute_amplitudes,
    sweep_polynomial,
)
from .evaluate import (
    EvalReport,
    column_evaluate,
    cross_chain_recursion,
    lattice_width_profile,
    line_recursion,
    sweep_evaluate,
)
from .factorize import (
    Factor,
    FactorizedPolynomial,
    ProjectionSpec,
    build_polynomial,
    load_angles,
    max_active_slots,
    order_factors,
    save_angles,
)
from .graph import (
    Bipartition,
    ClusterGraph,
    assign_slots,
    bipartition,
    build_cross_chain,
    build_from_edges,
    build_lattice,
    build_line,
    detect_cross_chain,
    detect_lattice,
    detect_line,
    fixture_path,
    lattice_row_major_order,
    load_graph,
    save_graph,
)
from .mbqc import (
    Gate,
    MeasurementPattern,
    compile_circuit,
    compile_cnot,
    compile_cphase,
    compile_cphase_exact,
    compile_rotation,
    compile_z_rotation,
    compose,
    parse_circuit,
    pattern_action_matrix,
    pattern_projection_spec,
    rotation_projector_to_spec,
    simulate_pattern,
)
from .oracle import (
    build_statevector,
    direct_sum,
    project_statevector,
)

__version__ = "0.1.0"
