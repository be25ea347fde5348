"""tightbell: exact and certified analysis of two-player XOR games.

Classical biases, optimal-vertex enumeration and polytope face dimensions are
exact (rational/integer arithmetic); the quantum bias is solved as a
unit-diagonal semidefinite program and reported only together with its dual
certificate.
"""

from .classical import (
    ClassicalBiasResult,
    OptimalVertexSet,
    classical_bias,
    optimal_vertices,
    verify_F_relation,
)
from .errors import TightBellError
from .facegeom import (
    FaceReport,
    ProbeReport,
    TrivialFacetReport,
    affine_dimension_exact,
    face_report,
    face_report_to_dict,
    quantum_face_probe,
    theorem1_dim_bound,
    theorem2_codim_bound,
    trivial_facet_check,
)
from .game import (
    Behaviour,
    DeterministicStrategy,
    GameMatrix,
    XorGame,
    bias_of_behaviour,
    bias_of_strategy,
    build_game,
    load_game,
    make_named,
    ns_perfect_behaviour,
    reduce_exhaustive,
    save_game,
)
from .nlc import (
    CorollaryBound,
    G0Dimension,
    NlcAnalysis,
    NlcBiasBound,
    NlcSpec,
    build_nlc,
    corollary_bound,
    g0_dimension,
    hadamard_spectrum,
    kl_dimension_bound,
    nlc_bias_bound,
    spec_from_game,
)
from .qsdp import (
    DualCertificate,
    FRelationReport,
    GramSolution,
    QuantumBiasResult,
    SolveConfig,
    certificate_to_dict,
    extract_F,
    quantum_slackness_check,
    solve_quantum_bias,
)

__version__ = "0.1.0"
