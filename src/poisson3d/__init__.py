"""3-D Poisson structures of the separable chi-product family.

Construction and validation of structure matrices built from per-axis
primitives, numerical Jacobi-identity verification, Casimir invariants,
the global Darboux chart with time reparametrization, and fixed-step
Poisson dynamics with invariant monitoring.
"""

from .builtin_systems import (
    EulerTopParams,
    build_system,
    circle_maps_structure,
    euler_top_raw_matrix,
    euler_top_structure,
    halphen_structure,
)
from .casimir import (
    annihilation_residual,
    casimir_expr,
    casimir_gradient,
    casimir_gradient_fd,
    casimir_value,
    default_casimir_index,
)
from .darboux import (
    DarbouxChart,
    build_chart,
    canonical_check,
    canonical_matrix,
    forward_map,
    inverse_map,
    pushforward_matrix,
    reparam_factor,
)
from .dynamics import (
    Trajectory,
    hamiltonian_vector_field,
    integrate,
    integrate_reduced,
    invariant_drift,
)
from .expr import compile_expr, differentiate, eval_expr, parse, to_source
from .family import (
    KappaMatrix,
    PoissonFamilySpec,
    StructureMatrixValue,
    chi,
    make_family_spec,
    make_kappa,
    rank_at,
    rescale,
    structure_matrix_at,
)
from .scalar_fields import (
    DomainBox,
    Field3,
    ScalarField1D,
    build_scalar_field,
    build_scalar_fields,
    psi_inverse,
)
from .verification import (
    MatrixField3,
    SampledCheckReport,
    jacobi_residual,
    matrix_field_from_spec,
    reduction_identity_check,
    verify_structure,
)

__version__ = "0.1.0"
