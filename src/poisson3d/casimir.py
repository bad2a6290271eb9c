"""Casimir invariants of family members and their annihilation property.

For a cyclic permutation (i, j, k) of (1, 2, 3) with chi_ij nonvanishing
on the domain, the ratio

    C_k(x) = chi_jk(x_j, x_k) / chi_ij(x_i, x_j)

is a Casimir: J grad(C_k) = 0, so it is conserved by every Hamiltonian
flow of the structure.  The three choices satisfy C1 C2 C3 = 1 wherever
all are defined.  casimir_gradient gives the symbolic partials of C_k,
the formula the global chart differentiates; finite differences are kept
only as an independent oracle (casimir_gradient_fd).  The gradient reads
neither eta nor J, so the annihilation residual J grad(C_k) is a check:
it is roundoff where psi' = phi holds on every axis, and it measures the
defect where a psi is not a primitive of its phi.
"""

from __future__ import annotations

import numpy as np

from . import expr as ex
from .errors import DomainEvalError, InvalidAxisError, UndefinedAtPointError
from .family import PoissonFamilySpec, axis_exprs, chi, chi_triple, j_grad, structure_matrix_at
from .scalar_fields import Field3, central_difference, coordinates, element, fd_step, first_flagged, point_at


def cyclic(k: int) -> tuple[int, int, int]:
    """The cyclic permutation (i, j, k) of (1, 2, 3) ending at k."""
    if k not in (1, 2, 3):
        raise InvalidAxisError(f"Casimir index must be 1, 2 or 3, got {k}")
    i = k % 3 + 1
    j = i % 3 + 1
    return i, j, k


def denominator_threshold(psi_i: float, psi_j: float) -> float:
    """|chi_ij| at or below this, given psi_i and psi_j, counts as a zero."""
    return 1e-12 * (1.0 + abs(psi_i) + abs(psi_j))


def _guarded_chis(spec: PoissonFamilySpec, k: int, x):
    """(chi_ij, chi_jk) at x for the cyclic (i, j, k), from one psi evaluation per axis.

    UndefinedAtPointError when chi_ij is below the threshold (at the first
    such point).  Each value is computed as chi() computes it.
    """
    i, j, k = cyclic(k)
    x = coordinates(x)
    psis = tuple(spec.psi(a, x[a - 1]) for a in (1, 2, 3))
    chis = chi_triple(spec.kappa.triple, *psis)  # chi_12, chi_23, chi_31: chi_ij sits at i - 1
    denom = chis[i - 1]
    bad = first_flagged(abs(denom) <= denominator_threshold(psis[i - 1], psis[j - 1]))
    if bad is not None:
        raise UndefinedAtPointError(
            f"chi_{i}{j} = {element(denom, bad)!r} at {point_at(x, bad)}; C_{k} undefined there"
        )
    return denom, chis[j - 1]


def casimir_value(spec: PoissonFamilySpec, k: int, x):
    """C_k at a point, or per point of three coordinate arrays; UndefinedAtPointError below the denominator guard.

    Where psi fails at a point, the DomainEvalError names the point, as casimir_gradient's does.
    """
    try:
        denom, numer = _guarded_chis(spec, k, x)
    except DomainEvalError as exc:
        if isinstance(x[0], np.ndarray):
            raise
        raise DomainEvalError(f"C_{k} is undefined at {tuple(float(v) for v in x)}: {exc}") from None
    return numer / denom


def casimir_expr(spec: PoissonFamilySpec, k: int) -> ex.Expr:
    """C_k = chi_jk / chi_ij as an expression in x1, x2, x3; its right operand is the denominator chi_ij."""
    i, j, k = cyclic(k)
    chis = chi_triple(spec.kappa.triple, *axis_exprs(spec)[0])
    return chis[j - 1] / chis[i - 1]


def casimir_gradient(spec: PoissonFamilySpec, k: int, x) -> np.ndarray:
    """The symbolic partials of casimir_expr(spec, k) at x; DomainEvalError naming x where they are undefined."""
    _guarded_chis(spec, k, x)
    try:
        return np.array(Field3(casimir_expr(spec, k)).gradient(*coordinates(x)))
    except DomainEvalError as exc:
        raise DomainEvalError(f"grad C_{k} is undefined at {tuple(float(v) for v in x)}: {exc}") from None


def casimir_gradient_fd(spec: PoissonFamilySpec, k: int, x) -> np.ndarray:
    """Central-difference oracle for the gradient.

    The step shrinks with the Casimir denominator so the stencil stays well
    inside the region where C_k varies smoothly; accuracy is then uniformly
    ~1e-8 relative regardless of how small chi_ij is.
    """
    i, j, _ = cyclic(k)
    denom = abs(chi(spec, i, j, x))
    point = [float(v) for v in x]
    c_k = lambda *p: casimir_value(spec, k, p)
    out = np.empty(3)
    for axis in (1, 2, 3):
        xl = point[axis - 1]
        h = fd_step(xl)
        phi_l = abs(spec.phi(axis, xl))
        if phi_l > 0.0:
            h = min(h, 1e-4 * denom / phi_l)
        out[axis - 1] = central_difference(c_k, point, axis - 1, h)
    return out


def annihilation_residual(spec: PoissonFamilySpec, k: int, x, gradient: np.ndarray | None = None) -> float:
    """Max-norm of J(x) grad(C_k)(x); roundoff certifies psi' = phi at x.  DomainEvalError naming x where it is
    undefined or not finite."""
    if gradient is None:
        gradient = casimir_gradient(spec, k, x)
    what = f"the annihilation residual of C_{k}"
    at = tuple(float(v) for v in x)
    try:
        J = structure_matrix_at(spec, x, check_domain=False)
    except DomainEvalError as exc:
        raise DomainEvalError(f"{what} is undefined at {at}: {exc}") from None
    with np.errstate(all="ignore"):
        residual = float(np.max(np.abs(j_grad(*J.entries(), *gradient))))
    if not np.isfinite(residual):
        raise DomainEvalError(f"{what} is not finite at {at}")
    return residual


CHART_SAMPLES = 512


def _denominators(spec: PoissonFamilySpec, psis):
    """(chi_23, chi_31, chi_12), the denominators of C_1, C_2, C_3, from (psi_1, psi_2, psi_3)."""
    c12, c23, c31 = chi_triple(spec.kappa.triple, *psis)
    return c23, c31, c12


def chi_table(spec: PoissonFamilySpec, points) -> tuple[np.ndarray, np.ndarray]:
    """(psi_1, psi_2, psi_3) and the denominators (chi_23, chi_31, chi_12) of C_1, C_2, C_3, as two (3, n) arrays.

    Column n holds point n.  Each chi is computed as chi() computes it, so
    values are float-identical.  All points are evaluated at once; a batch
    fault replays them one by one (expr.batched).
    """
    points = np.asarray(points, dtype=float)

    def on_arrays():
        psis = tuple(spec.psi(a, points[:, a - 1]) for a in (1, 2, 3))
        return np.array(psis), np.array(_denominators(spec, psis))

    def per_point():
        psis = [tuple(spec.psi(a, float(x[a - 1])) for a in (1, 2, 3)) for x in points]
        return np.array(psis).T, np.array([_denominators(spec, p) for p in psis]).T

    return ex.batched(on_arrays, per_point)


def best_casimir_index(chis: np.ndarray) -> int:
    """The k whose denominator stays farthest from zero over chi_table's denominators; the first k wins ties."""
    return int(np.argmax(np.min(np.abs(chis), axis=1))) + 1


def default_casimir_index(spec: PoissonFamilySpec) -> int:
    """best_casimir_index over CHART_SAMPLES domain points at seed 0."""
    return best_casimir_index(chi_table(spec, spec.domain.sample(CHART_SAMPLES, seed=0))[1])
