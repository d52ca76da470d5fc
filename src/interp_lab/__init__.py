"""Finite-scale numerical diagnostics for interpolation problems.

Disk and polydisc complete-Pick kernels, normalized Gramians with Riesz and
Carleson bounds, Pick-matrix and Schur-product semidefinite feasibility with
optimal constants, disk-automorphism group machinery with a truncated
invariant kernel, and partitioning of point sets into Riesz classes.
"""

__version__ = "0.1.0"

from .errors import ArgumentError, BudgetError, DomainError, InterpLabError, NumericError
from .kernels import (
    SZEGO,
    KernelSpec,
    ProductKernelSpec,
    eval_kernel,
    inv_kernel_form,
    kernel_matrix,
    pseudo_hyperbolic,
    rho_semimetric,
)
from .gramian import (
    RieszReport,
    min_semimetric,
    multiplier_separation,
    normalized_gramian,
    riesz_bounds,
    weak_separation,
)
from .sdp import (
    AffineConstraint,
    SdpResult,
    check_certificate,
    dykstra_solve,
    project_affine,
    project_psd,
)
from .pick import (
    PickProblem,
    agler_feasible,
    condition_a_constant,
    condition_b_constant,
    pick_constant_for_values,
    pick_psd_test,
    vector_valued_feasible,
)
from .fuchsian import (
    GammaKernelApprox,
    GammaSequenceReport,
    GroupWordList,
    MobiusMap,
    analyze_gamma_sequence,
    composition_matrix,
    enumerate_group,
    gamma_kernel,
    invariance_residual,
    orbit_set,
)
from .partition import PartitionResult, partition_separated, verify_partition

__all__ = [
    "ArgumentError",
    "BudgetError",
    "DomainError",
    "InterpLabError",
    "NumericError",
    "SZEGO",
    "KernelSpec",
    "ProductKernelSpec",
    "eval_kernel",
    "inv_kernel_form",
    "kernel_matrix",
    "pseudo_hyperbolic",
    "rho_semimetric",
    "RieszReport",
    "min_semimetric",
    "multiplier_separation",
    "normalized_gramian",
    "riesz_bounds",
    "weak_separation",
    "AffineConstraint",
    "SdpResult",
    "check_certificate",
    "dykstra_solve",
    "project_affine",
    "project_psd",
    "PickProblem",
    "agler_feasible",
    "condition_a_constant",
    "condition_b_constant",
    "pick_constant_for_values",
    "pick_psd_test",
    "vector_valued_feasible",
    "GammaKernelApprox",
    "GammaSequenceReport",
    "GroupWordList",
    "MobiusMap",
    "analyze_gamma_sequence",
    "composition_matrix",
    "enumerate_group",
    "gamma_kernel",
    "invariance_residual",
    "orbit_set",
    "PartitionResult",
    "partition_separated",
    "verify_partition",
]
