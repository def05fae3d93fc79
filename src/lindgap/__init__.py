"""Mixing diagnostics and convergence certificates for Lindblad generators.

Construct finite-dimensional generators with or without quantum detailed
balance, compute their spectral gaps and frequency decompositions, emit
explicit decay-rate certificates, and verify every certificate against the
exact semigroup evolution.
"""

__version__ = "0.2.0"

from .operators import (
    QuantumState,
    KmsFrame,
    SuperOperator,
    kms_frame,
    gns_frame,
    superop_matrix,
    kms_adjoint,
    op_norm_2to2,
    weighted_inner,
    weighted_norm,
)
from .lindblad import (
    Lindbladian,
    build_gksl,
    build_gns_canonical,
    check_invariance,
    generator_matrix,
    structure_report,
    StructureReport,
    kernel_projection,
    SpaceSplit,
    commutant_dimension,
    kernel_dimension,
)
from .spectral import (
    GapReport,
    spectral_gap,
    gap_from_matrix,
    hamiltonian_superop,
    bohr_decompose,
    lambda_nu_table,
    large_alpha_limit,
    gap_curve,
    GapCurve,
    hypoco_index,
    singular_relaxation_check,
)
from .certify import (
    StructuralConstants,
    RateCertificate,
    CoerciveCertificate,
    structural_constants,
    check_assumption,
    c_constants,
    c_constants_trivial_kernel,
    certify,
    certify_coercive,
    rate_from_constants,
    simplified_rate,
    optimize_T,
    alpha_gamma_scaling,
    dms_compare,
)
from .models import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    op_on_qubit,
    matrix_unit,
    single_jump_model,
    canonical_path_bound,
    bfs_paths,
    CanonicalPaths,
    dephasing_jumps,
    cycle_graph,
    hypercube_graph,
    dephasing_walk,
    tfim,
    GraphSpec,
    graph_lindblad,
    graph_hamiltonian_cert,
    birth_death_spectrum,
    haar_avg_gibbs,
    lift_model,
)
from .evolve import (
    propagate,
    decay_curve,
    DecayCurve,
    time_avg_check,
    window_gramian,
    semigroup_norm_curve,
    stp_verify,
)
from .modelspec import ModelBundle, SpecError, Tolerances, build_model, load_spec

__all__ = [name for name in dir() if not name.startswith("_")]
