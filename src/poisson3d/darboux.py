"""Global Darboux chart for family members.

With (i, j, k) cyclic and chi_ij nonvanishing on the domain, the map

    y_i = x_i,   y_j = x_j,   y_k = -C_k(x)

is a global diffeomorphism.  Its inverse recovers the k-th coordinate
through the inverse primitive:

    x_k = zeta_k( psi_j(y_j) + kappa_jk + chi_ij(y_i, y_j) * y_k )

Pushing the structure matrix through the chart leaves a single variable
entry J_ij(x(y)) times a constant skew pattern; dividing by that factor
(a time reparametrization) lands on the canonical matrix with one
conjugate pair and the decoupled Casimir coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .casimir import (
    CHART_SAMPLES,
    best_casimir_index,
    casimir_expr,
    casimir_value,
    chi_table,
    cyclic,
    denominator_threshold,
)
from . import expr as ex
from .errors import DomainMembershipError, HypothesisViolationError, PoissonError
from .family import PoissonFamilySpec, StructureMatrixValue, chi, structure_matrix_at
from .scalar_fields import Field3, axis_sign, coordinates, element, first_flagged, point_at, psi_inverse
from .verification import SampledCheckReport, batch_report, sampled_check

FACTOR_FLOOR = 1e-12


def canonical_matrix(k: int) -> np.ndarray:
    """The constant Darboux pattern: +1 at (i, j), -1 at (j, i), k decoupled."""
    i, j, k = cyclic(k)
    M = np.zeros((3, 3))
    M[i - 1, j - 1] = 1.0
    M[j - 1, i - 1] = -1.0
    return M


@dataclass(frozen=True)
class DarbouxChart:
    spec: PoissonFamilySpec
    k: int
    sign_branch: tuple[int, int, int]
    image_box: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    casimir: Field3 = field(repr=False, compare=False)

    @property
    def pair(self) -> tuple[int, int]:
        i, j, _ = cyclic(self.k)
        return i, j


def build_chart(spec: PoissonFamilySpec, k: int | None = None, seed: int = 0) -> DarbouxChart:
    """Validate the chart hypothesis on a sample and assemble the chart.

    One pass over CHART_SAMPLES domain points at seed gives all three
    results.  k defaults to the best-conditioned Casimir index.  The
    hypothesis chi_ij != 0 throughout the domain is certified by sampling:
    every sampled value must clear the denominator threshold and, on a
    plain box (no predicate carving the domain apart), must keep one sign,
    since a sign change on a connected set forces a zero in between.  The
    first sample point failing either test is named.  The image box spans
    the forward images of the same points.  All three run as array
    expressions over chi_table, with Python float semantics (no
    floating-point warnings).
    """
    points = spec.domain.sample(CHART_SAMPLES, seed)
    psis, chis = chi_table(spec, points)
    i, j, k = cyclic(best_casimir_index(chis) if k is None else k)

    value = chis[k - 1]  # chi_ij, the denominator of C_k
    with np.errstate(all="ignore"):
        small = np.abs(value) <= denominator_threshold(psis[i - 1], psis[j - 1])
        flipped = np.copysign(1.0, value) != np.copysign(1.0, value[0])
        bad = first_flagged(small | flipped if spec.domain.predicate is None else small)
        if bad is not None:
            x = point_at(points.T, bad)
            if small[bad]:
                raise HypothesisViolationError(f"chi_{i}{j} = {float(value[bad])!r} at {x}; chart hypothesis fails")
            raise HypothesisViolationError(
                f"chi_{i}{j} changes sign on the box (seen near {x}); it must vanish somewhere inside"
            )
        ys = points.copy()
        ys[:, k - 1] = -(chis[i - 1] / value)  # -C_k, as forward_map computes it
    return DarbouxChart(
        spec,
        k,
        tuple(axis_sign(iv) for iv in spec.domain.intervals),
        tuple((float(ys[:, a].min()), float(ys[:, a].max())) for a in range(3)),
        Field3(casimir_expr(spec, k)),
    )


def forward_map(chart: DarbouxChart, x) -> np.ndarray:
    """y(x): pass-through pair plus the negated Casimir.

    x may be three coordinate arrays; y is then a (3, n) array.
    """
    bad = chart.spec.domain.first_outside(x)
    if bad is not None:
        raise DomainMembershipError(f"point {point_at(x, bad)} is outside the chart domain")
    y = np.array(coordinates(x))
    y[chart.k - 1] = -casimir_value(chart.spec, chart.k, x)
    return y


def inverse_map(chart: DarbouxChart, y) -> np.ndarray:
    """x(y): solve psi_k through zeta (or the bracketing root-finder).

    y may be three coordinate arrays; x is then a (3, n) array.
    """
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    y = coordinates(y)
    target = spec.psi(j, y[j - 1]) + spec.kappa.entry(j, k) + chi(spec, i, j, y) * y[k - 1]
    x = np.array(y)
    x[k - 1] = psi_inverse(spec.field(k), target)
    return x


def jacobian_forward(chart: DarbouxChart, x, scheme: str = "analytic") -> np.ndarray:
    """d y / d x at a domain point; row k is the negated Casimir gradient.

    analytic differentiates the Casimir ratio symbolically; fd applies
    central differences to it.  For three coordinate arrays the result is
    an (n, 3, 3) stack.
    """
    if scheme not in ("analytic", "fd"):
        raise ValueError(f"scheme must be analytic or fd, got {scheme!r}")
    x1, x2, x3 = coordinates(x)
    M = np.broadcast_to(np.eye(3), np.shape(x1) + (3, 3)).copy()
    for axis, g in enumerate(chart.casimir.gradient(x1, x2, x3, scheme)):
        M[..., chart.k - 1, axis] = -g
    return M


def pushforward_matrix(chart: DarbouxChart, y, scheme: str = "analytic") -> StructureMatrixValue:
    """J'(y) = (dy/dx) J(x(y)) (dy/dx)^T as a StructureMatrixValue.

    y may be three coordinate arrays; the entries are then arrays.  A stack
    of points goes through the same BLAS product per 3x3 slice as a single
    point, so every slice equals the single-point result.
    """
    x = inverse_map(chart, y)
    bad = chart.spec.domain.first_outside(x)
    if bad is not None:
        raise DomainMembershipError(
            f"inverse image {point_at(x, bad)} of {point_at(y, bad)} "
            "left the spec domain; y is not in the chart image"
        )
    J = structure_matrix_at(chart.spec, x, check_domain=False).as_matrix()
    M = jacobian_forward(chart, x, scheme)
    P = M @ J @ np.swapaxes(M, -1, -2)
    entries = (P[..., 0, 1], P[..., 1, 2], P[..., 2, 0])
    return StructureMatrixValue(*(entries if P.ndim == 3 else (float(v) for v in entries)))


def reparam_factor(chart: DarbouxChart, y):
    """J_ij(x(y)) via the closed form eta(x(y)) chi_ij(y_i, y_j) phi_k(x_k(y)).

    Nonvanishing on the chart image; values at the 1e-12 floor raise a
    hypothesis violation.  y may be three coordinate arrays.
    """
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    x = coordinates(inverse_map(chart, y))
    factor = spec.eta_value(*x) * chi(spec, i, j, y) * spec.phi(k, x[k - 1])
    bad = first_flagged(abs(factor) <= FACTOR_FLOOR)
    if bad is not None:
        raise HypothesisViolationError(
            f"reparametrization factor {element(factor, bad)!r} vanishes at y = {point_at(y, bad)}"
        )
    return factor


def _deviation(chart: DarbouxChart, x, scheme: str):
    """(max |J'(y) / J_ij(x(y)) - canonical|, y) at a domain point, or per point for coordinate arrays."""
    y = forward_map(chart, x)
    P = pushforward_matrix(chart, y, scheme).as_matrix()
    factor = reparam_factor(chart, y)
    deviation = np.abs(P / np.expand_dims(factor, (-2, -1)) - canonical_matrix(chart.k))
    return np.max(deviation, axis=(-2, -1)), y


def _batch_deviations(chart: DarbouxChart, points: np.ndarray, scheme: str):
    """_deviation of every sample point in one array pass, and the y of each as rows.

    Raises expr.BatchFault, PoissonError or ValueError wherever the
    per-point loop has to replay the points.
    """
    with ex.batch_arithmetic():
        values, ys = _deviation(chart, np.ascontiguousarray(points.T), scheme)
    return values, ys.T


def canonical_check(
    chart: DarbouxChart,
    n_samples: int = 1000,
    seed: int = 42,
    tol: float = 1e-8,
    scheme: str = "analytic",
) -> SampledCheckReport:
    """Pushforward over factor must equal the constant canonical matrix.

    Sampled over the chart domain; reports the worst entrywise deviation
    of J'(y) / J_ij(x(y)) from the canonical pattern.  All points go
    through one array pass, bit-identical to the per-point loop; a fault or
    a failed guard anywhere in it replays the per-point loop, which raises
    the first failure in sample order.
    """
    points = chart.spec.domain.sample(n_samples, seed)
    try:
        values, ys = _batch_deviations(chart, points, scheme)
    except (ex.BatchFault, PoissonError, ValueError):
        pass
    else:
        return batch_report("canonical", values, ys, scheme, seed, tol)

    def measure(x):
        value, y = _deviation(chart, x, scheme)
        return float(value), tuple(float(v) for v in y)

    return sampled_check("canonical", measure, points, scheme, seed, tol)
