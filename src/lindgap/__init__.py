"""Mixing diagnostics and convergence certificates for Lindblad generators.

Construct finite-dimensional generators with or without quantum detailed
balance, compute their spectral gaps and frequency decompositions, emit
explicit decay-rate certificates, and verify every certificate against the
exact semigroup evolution.
"""

__version__ = "0.2.0"

from .operators import QuantumState, KmsFrame
from .lindblad import (
    Analysis,
    Lindbladian,
    build_gksl,
    generator_matrix,
    hamiltonian_superop,
    structure_report,
    StructureReport,
    kernel_projection,
    SpaceSplit,
)
from .spectral import (
    spectral_gap,
    gap_from_matrix,
    bohr_decompose,
    large_alpha_limit,
    gap_curve,
    GapCurve,
    singular_relaxation_check,
)
from .certify import (
    StructuralConstants,
    RateCertificate,
    CoerciveCertificate,
    structural_constants,
    check_assumption,
    c_constants,
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
    dephasing_jumps,
    cycle_graph,
    hypercube_graph,
    dephasing_walk,
    tfim,
    GraphSpec,
    graph_lindblad,
    birth_death_spectrum,
    haar_avg_gibbs,
    lift_model,
)
from .evolve import (
    time_avg_check,
    window_gramian,
    semigroup_norm_curve,
    stp_verify,
)
from .modelspec import ModelBundle, SpecError, build_model, load_spec

__all__ = [name for name in dir() if not name.startswith("_")]
