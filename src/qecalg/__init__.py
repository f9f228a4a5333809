"""qecalg: group-algebra weight enumerators for quantum error-correcting codes.

Builds nice error bases with Abelian index group Z_m x Z_m, maps any quantum
code (stabilizer generators or explicit orthonormal basis) to an element of
the group algebra over (Z_m x Z_m)^n, computes its MacWilliams-type transform
and the exact / complete / Lee / Hamming weight enumerators, verifies the
enumerator identities, and extracts code dimension, minimum distance, and
purity.
"""

__version__ = "0.1.0"

from .error_basis import (
    GroupOrdering,
    PhaseSystem,
    build_pauli_system,
    canonical_ordering,
    validate_custom_basis,
    verify_basis_axioms,
    verify_kernel_row_sums,
)
from .group_algebra import (
    AlgebraElement,
    double_transform_scaling_check,
    multiply,
    random_element,
    transform,
)
from .enumerators import (
    CompositionDistribution,
    HammingDistribution,
    complete_distribution,
    hamming_distribution,
    lee_distribution,
    macwilliams_hamming,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
)
from .code_analysis import (
    AnalysisReport,
    BasisVectors,
    CodeSpec,
    StabilizerGenerators,
    analyze,
    associated_element,
    check_cs_ordering,
    pauli_label,
    random_code,
)
from .reports import CheckReport

__all__ = [
    "__version__",
    "GroupOrdering", "PhaseSystem", "build_pauli_system", "canonical_ordering",
    "validate_custom_basis", "verify_basis_axioms", "verify_kernel_row_sums",
    "AlgebraElement", "multiply", "transform", "double_transform_scaling_check",
    "random_element",
    "CompositionDistribution", "HammingDistribution", "complete_distribution",
    "lee_distribution", "hamming_distribution", "macwilliams_hamming",
    "verify_exact_identity", "verify_complete_identity", "verify_lee_identity", "verify_hamming_identity",
    "CodeSpec", "StabilizerGenerators", "BasisVectors", "AnalysisReport",
    "associated_element", "analyze", "check_cs_ordering",
    "random_code", "pauli_label",
    "CheckReport",
]
