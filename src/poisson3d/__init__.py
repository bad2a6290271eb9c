"""3-D Poisson structures of the separable chi-product family.

Construction and validation of structure matrices built from per-axis
primitives, numerical Jacobi-identity verification, Casimir invariants,
the global Darboux chart with time reparametrization, and fixed-step
Poisson dynamics with invariant monitoring.

``import poisson3d`` loads no submodule: a public name, or a submodule
such as ``poisson3d.darboux``, imports its module on first use (PEP 562;
docs/decisions.md, D21).
"""

from importlib import import_module as _import_module

_EXPORTS = {  # module: the public names the package hands out from it
    "builtin_systems": ("EulerTopParams", "build_system", "circle_maps_structure", "euler_top_raw_matrix",
                        "euler_top_structure", "halphen_structure"),
    "casimir": ("annihilation_residual", "casimir_expr", "casimir_gradient", "casimir_gradient_fd",
                "casimir_value", "default_casimir_index"),
    "darboux": ("DarbouxChart", "build_chart", "canonical_check", "canonical_matrix", "forward_map",
                "inverse_map", "pushforward_matrix", "reparam_factor"),
    "dynamics": ("Trajectory", "hamiltonian_vector_field", "integrate", "integrate_reduced", "invariant_drift"),
    "expr": ("compile_expr", "differentiate", "eval_expr", "parse", "to_source"),
    "family": ("KappaMatrix", "PoissonFamilySpec", "StructureMatrixValue", "chi", "make_family_spec",
               "make_kappa", "rank_at", "rescale", "structure_matrix_at"),
    "scalar_fields": ("DomainBox", "Field3", "ScalarField1D", "build_scalar_field", "build_scalar_fields",
                      "psi_inverse"),
    "verification": ("MatrixField3", "SampledCheckReport", "jacobi_residual", "matrix_field_from_spec",
                     "reduction_identity_check", "verify_structure"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli", "errors", "plan", "testing")

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    # read from the module on every access and never bound here, so a rebinding there is what this returns
    if name in _HOME:
        return getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
