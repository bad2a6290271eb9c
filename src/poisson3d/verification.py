"""Numerical verification of skew-symmetry and the Jacobi identity.

In three dimensions the full Jacobi system collapses to one scalar
equation in the independent entries (J12, J23, J31):

    J12 d1J31 - J31 d1J12 + J23 d2J12 - J12 d2J23 + J31 d3J23 - J23 d3J31 = 0

Skew-symmetry holds by representation (only the upper entries are stored).
Entry derivatives come either from symbolic differentiation of expression
entries / user-supplied partials ("analytic") or central differences
("fd").  Residuals are normalized per point by 1 + max |entry|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DomainEvalError
from .family import PoissonFamilySpec, axis_exprs, structure_entries
from .scalar_fields import DomainBox, Field3

ENTRY_NAMES = ("j12", "j23", "j31")


class MatrixField3:
    """A 3-D skew matrix field given by its three independent entries.

    Entries may be expressions (enabling the analytic derivative scheme) or
    plain callables f(x1, x2, x3); each becomes a Field3.  partials, when
    given, maps (entry_name, axis) to the function for that partial
    derivative and takes precedence over symbolic differentiation.
    """

    def __init__(self, j12, j23, j31, partials: dict | None = None):
        supplied = {name: [None, None, None] for name in ENTRY_NAMES}
        for (name, axis), obj in (partials or {}).items():
            supplied[name][int(axis) - 1] = obj
        self.fields = tuple(
            Field3(obj, supplied[name]) for name, obj in zip(ENTRY_NAMES, (j12, j23, j31))
        )

    def entries(self, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
        return tuple(f.value(x1, x2, x3) for f in self.fields)

    def analytic_available(self) -> bool:
        return all(f.symbolic() for f in self.fields)


def matrix_field_from_spec(spec: PoissonFamilySpec) -> MatrixField3:
    """Expression-backed field for a family member (analytic scheme works).

    The entries are structure_entries applied to trees, so they are the
    trees of the operations structure_matrix_at performs.
    """
    psis, phis = axis_exprs(spec)
    return MatrixField3(*structure_entries(spec.kappa.triple, psis, phis, spec.eta_chain))


def resolve_scheme(field: MatrixField3, scheme: str) -> str:
    if scheme == "auto":
        return "analytic" if field.analytic_available() else "fd"
    if scheme not in ("analytic", "fd"):
        raise ValueError(f"scheme must be analytic, fd or auto, got {scheme!r}")
    if scheme == "analytic" and not field.analytic_available():
        raise ValueError("analytic scheme requested but no expressions or partials available")
    return scheme


def jacobi_residual(field: MatrixField3, x, scheme: str = "auto") -> float:
    """The single independent 3-D Jacobi combination at a point."""
    scheme = resolve_scheme(field, scheme)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    return _finite_residual(field, x1, x2, x3, field.entries(x1, x2, x3), scheme)


def _jacobi_combination(field: MatrixField3, x1, x2, x3, entries, scheme: str):
    """The Jacobi combination at a point, or elementwise at arrays of points."""
    j12, j23, j31 = entries
    p = lambda idx, axis: field.fields[idx].partial(axis, x1, x2, x3, scheme)
    return (
        j12 * p(2, 1)
        - j31 * p(0, 1)
        + j23 * p(0, 2)
        - j12 * p(1, 2)
        + j31 * p(1, 3)
        - j23 * p(2, 3)
    )


def _finite_residual(field: MatrixField3, x1: float, x2: float, x3: float, entries, scheme: str) -> float:
    r = _jacobi_combination(field, x1, x2, x3, entries, scheme)
    if not math.isfinite(r):
        raise DomainEvalError(f"non-finite residual at {(x1, x2, x3)}")
    return r


# report keys of each check kind: (worst-value key, scheme key)
_REPORT_KEYS = {
    "jacobi": ("max_abs_residual", "derivative_scheme"),
    "canonical": ("max_deviation", "scheme"),
}


@dataclass(frozen=True)
class SampledCheckReport:
    """Worst per-point value of a sampled check and the verdict against tol.

    kind "jacobi": the scale-normalized Jacobi residual, worst_point in x.
    kind "canonical": the deviation from the canonical form, worst_point in y.
    """

    kind: str
    samples: int
    worst: float
    worst_point: tuple[float, float, float]
    verdict: str  # "pass" | "fail"
    scheme: str
    seed: int
    tol: float

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        worst_key, scheme_key = _REPORT_KEYS[self.kind]
        return {
            "samples": self.samples,
            worst_key: self.worst,
            "worst_point": list(self.worst_point),
            "verdict": self.verdict,
            scheme_key: self.scheme,
            "seed": self.seed,
            "tol": self.tol,
        }


def _report(kind: str, samples: int, worst: float, worst_point, scheme: str, seed: int, tol: float) -> SampledCheckReport:
    verdict = "pass" if worst <= tol else "fail"
    return SampledCheckReport(kind, samples, worst, worst_point, verdict, scheme, seed, tol)


def sampled_check(kind: str, measure, points, scheme: str, seed: int, tol: float) -> SampledCheckReport:
    """Apply measure(point) -> (value, reported point) to every sample point.

    The first point with the largest value is the worst point; the verdict
    passes when that value is at most tol.
    """
    worst = -1.0
    worst_point = (0.0, 0.0, 0.0)
    for pt in points:
        value, where = measure(pt)
        if value > worst:
            worst, worst_point = value, where
    return _report(kind, len(points), worst, worst_point, scheme, seed, tol)


def batch_report(kind: str, values: np.ndarray, points: np.ndarray, scheme: str, seed: int, tol: float) -> SampledCheckReport:
    """The report of per-point values computed in one batch, the row of points reported with each.

    The first maximum is the worst point, as sampled_check keeps it.
    """
    worst = int(np.argmax(values))
    where = tuple(float(v) for v in points[worst])
    return _report(kind, len(values), float(values[worst]), where, scheme, seed, tol)


def _batch_residuals(field: MatrixField3, points: np.ndarray, scheme: str) -> np.ndarray:
    """The scale-normalized residual of every point at once; BatchFault on any fault."""
    xs = tuple(np.ascontiguousarray(points[:, a]) for a in range(3))
    with ex.batch_arithmetic():
        entries = tuple(f.value(*xs) for f in field.fields)
        scale = 1.0 + np.maximum(np.maximum(np.abs(entries[0]), np.abs(entries[1])), np.abs(entries[2]))
        return np.abs(_jacobi_combination(field, *xs, entries, scheme)) / scale


def verify_structure(
    field: MatrixField3,
    domain: DomainBox,
    n_samples: int = 1000,
    tol: float = 1e-6,
    seed: int = 42,
    scheme: str = "auto",
) -> SampledCheckReport:
    """Sample the domain and report the worst scale-normalized residual.

    Points derive from (seed, index) alone, so the report is reproducible
    regardless of evaluation order or worker count.  Expression fields are
    checked in one batch, bit-identical to the per-point loop; a batch that
    faults anywhere, and any field with a callable entry or partial, goes
    through the per-point loop, which raises the first fault in index order.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    scheme = resolve_scheme(field, scheme)
    points = domain.sample(n_samples, seed)
    if all(f.batchable() for f in field.fields):
        try:
            values = _batch_residuals(field, points, scheme)
        except ex.BatchFault:
            pass
        else:
            return batch_report("jacobi", values, points, scheme, seed, tol)

    def measure(pt):
        x1, x2, x3 = float(pt[0]), float(pt[1]), float(pt[2])
        entries = field.entries(x1, x2, x3)
        scale = 1.0 + max(abs(v) for v in entries)
        return abs(_finite_residual(field, x1, x2, x3, entries, scheme)) / scale, (x1, x2, x3)

    return sampled_check("jacobi", measure, points, scheme, seed, tol)


def reduction_identity_check(
    spec: PoissonFamilySpec,
    x,
    kappa_override: tuple[float, float, float] | None = None,
) -> tuple[float, float]:
    """Jacobi residual of the eta-stripped entries vs its closed form.

    For entries chi_ij * phi_k the residual reduces algebraically to
    -2 phi_1 phi_2 phi_3 (k12 + k23 + k31); both sides are computed
    independently and returned as a pair.  With the built-in zero-sum
    constants both are ~0; kappa_override admits deliberately broken
    constants, for which both sides are equal and nonzero.
    """
    psis, phis = axis_exprs(spec)
    kappa = spec.kappa.triple if kappa_override is None else kappa_override
    field = MatrixField3(*structure_entries(kappa, psis, phis, ()))
    residual = jacobi_residual(field, x, "analytic")
    if kappa_override is None:
        ksum = (spec.kappa.k12 + spec.kappa.k23) + spec.kappa.k31
    else:
        ksum = math.fsum(kappa_override)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    rhs = -2.0 * spec.phi(1, x1) * spec.phi(2, x2) * spec.phi(3, x3) * ksum
    return residual, rhs
