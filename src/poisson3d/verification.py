"""Numerical verification of skew-symmetry and the Jacobi identity.

In three dimensions the full Jacobi system collapses to one scalar
equation in the independent entries (J12, J23, J31):

    J12 d1J31 - J31 d1J12 + J23 d2J12 - J12 d2J23 + J31 d3J23 - J23 d3J31 = 0

Skew-symmetry holds by representation (only the upper entries are stored).
Entry derivatives come either from symbolic differentiation of the entry
expressions ("analytic") or central differences ("fd").  Residuals are
normalized per point by 1 + max |entry|.
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

    Each entry is an expression in x1, x2, x3 and becomes a Field3.
    """

    def __init__(self, j12, j23, j31):
        for name, entry in zip(ENTRY_NAMES, (j12, j23, j31)):
            if not isinstance(entry, ex.Expr):
                raise TypeError(f"{name} must be an expression, got {type(entry)!r}")
        self.fields = (Field3(j12), Field3(j23), Field3(j31))

    def entries(self, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
        return tuple(f.value(x1, x2, x3) for f in self.fields)


def matrix_field_from_spec(spec: PoissonFamilySpec) -> MatrixField3:
    """The field of a family member.

    The entries are structure_entries applied to trees, so they are the
    trees of the operations structure_matrix_at performs.
    """
    psis, phis = axis_exprs(spec)
    return MatrixField3(*structure_entries(spec.kappa.triple, psis, phis, spec.eta_chain))


def resolve_scheme(scheme: str) -> str:
    """analytic or fd; auto is analytic, which every field's expression entries allow."""
    if scheme == "auto":
        return "analytic"
    if scheme not in ("analytic", "fd"):
        raise ValueError(f"scheme must be analytic, fd or auto, got {scheme!r}")
    return scheme


def jacobi_residual(field: MatrixField3, x, scheme: str = "auto") -> float:
    """The single independent 3-D Jacobi combination at a point."""
    scheme = resolve_scheme(scheme)
    x1, x2, x3 = float(x[0]), float(x[1]), float(x[2])
    return _finite_residual(_jacobi_terms(field, x1, x2, x3, scheme)[3], (x1, x2, x3))


# the partials the combination reads, in its order, as (entry index, axis): d1J31, d1J12, d2J12, d2J23, d3J23, d3J31
_PARTIALS = ((2, 1), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3))


def _jacobi_combination(j12, j23, j31, d1j31, d1j12, d2j12, d2j23, d3j23, d3j31):
    """The Jacobi combination from the entries and the _PARTIALS.

    The values are floats, arrays or expression trees; for trees the result
    is the tree of these very operations (docs/decisions.md, D6).
    """
    return j12 * d1j31 - j31 * d1j12 + j23 * d2j12 - j12 * d2j23 + j31 * d3j23 - j23 * d3j31


def _named(name: str, fn, *args):
    """fn(*args); a DomainEvalError, or a float value that is not finite, names the entry or partial it came from.

    The fd scheme's central differences return inf where the values they subtract overflow; an array
    value passes as it is.
    """
    try:
        v = fn(*args)
        if isinstance(v, float) and not math.isfinite(v):
            raise DomainEvalError(f"non-finite result {v!r}")
    except DomainEvalError as exc:
        raise DomainEvalError(f"{exc} in {name}") from None
    return v


def _jacobi_terms(field: MatrixField3, x1, x2, x3, scheme: str) -> tuple:
    """(J12, J23, J31, the Jacobi combination) at a point, or elementwise at arrays, through each entry's callables.

    A DomainEvalError names its entry, or its partial as _jacobi_combination does (d1j31, ...).
    """
    entries = tuple(_named(name, f.value, x1, x2, x3) for name, f in zip(ENTRY_NAMES, field.fields))
    partials = tuple(
        _named(f"d{axis}{ENTRY_NAMES[idx]}", field.fields[idx].partial, axis, x1, x2, x3, scheme)
        for idx, axis in _PARTIALS
    )
    return (*entries, _jacobi_combination(*entries, *partials))


def _jacobi_kernel(field: MatrixField3, scheme: str):
    """_jacobi_terms as one expr.plan_kernel that checks the six partials; None for fd, or where it gives none."""
    if scheme != "analytic":
        return None
    entries = tuple(f.expr for f in field.fields)
    partials = tuple(field.fields[idx].partial_expr(axis) for idx, axis in _PARTIALS)
    return ex.plan_kernel((*entries, _jacobi_combination(*entries, *partials)), partials)


def _finite_residual(r: float, x) -> float:
    if not math.isfinite(r):
        raise DomainEvalError(f"non-finite residual at {x}")
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


def sampled_check(kind: str, on_arrays, measure, points, scheme: str, seed: int, tol: float) -> SampledCheckReport:
    """The report of one array pass over the sample points, or of the per-point loop where it faults.

    on_arrays() returns every point's value at once and the row of points
    reported with each; where it faults (expr.batched), measure(point)
    returns (value, reported point) for each sample point in order.  A
    value that is not finite raises DomainEvalError naming its sample
    point, before any later point is measured.  The first point with the
    largest value is the worst point; the verdict passes when that value
    is at most tol.
    """

    def in_order():
        values, where = [], []
        for pt in points:
            value, at = measure(pt)
            if not math.isfinite(value):
                raise DomainEvalError(f"non-finite {kind} value {value!r} at {tuple(float(v) for v in pt)}")
            values.append(value)
            where.append(at)
        return np.array(values), np.array(where)

    values, where = ex.batched(on_arrays, in_order)
    worst = int(np.argmax(values))
    value = float(values[worst])
    at = tuple(float(v) for v in where[worst])
    return SampledCheckReport(kind, len(values), value, at, "pass" if value <= tol else "fail", scheme, seed, tol)


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
    regardless of evaluation order or worker count.  All points are checked
    in one batch, bit-identical to the per-point loop: under the analytic
    scheme one kernel gives the entries and the combination.  A batch that
    faults anywhere goes through the per-point loop, which raises the first
    fault in index order, naming its sample point.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    scheme = resolve_scheme(scheme)
    points = domain.sample(n_samples, seed)

    def on_arrays():
        kernel, xs = _jacobi_kernel(field, scheme), tuple(points.T)
        j12, j23, j31, combination = kernel.batch(*xs) if kernel is not None else _jacobi_terms(field, *xs, scheme)
        return np.abs(combination) / (1.0 + np.maximum(np.maximum(np.abs(j12), np.abs(j23)), np.abs(j31))), points

    def measure(pt):
        x = float(pt[0]), float(pt[1]), float(pt[2])
        try:
            *entries, combination = _jacobi_terms(field, *x, scheme)
        except DomainEvalError as exc:
            raise DomainEvalError(f"{exc} at {x}") from None
        scale = 1.0 + max(abs(v) for v in entries)
        return abs(_finite_residual(combination, x)) / scale, x

    return sampled_check("jacobi", on_arrays, measure, points, scheme, seed, tol)


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
