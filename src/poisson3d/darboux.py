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

import math
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
from .errors import DomainMembershipError, HypothesisViolationError
from .family import PoissonFamilySpec, chi, structure_matrix_at
from .scalar_fields import Field3, axis_sign, psi_inverse
from .verification import SampledCheckReport, sampled_check

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
    image box spans the forward images of the same points.
    """
    points = spec.domain.sample(CHART_SAMPLES, seed)
    table = chi_table(spec, points)
    i, j, k = cyclic(best_casimir_index(table) if k is None else k)

    ys = []
    sign_seen = 0.0
    for x, (psi, chis) in zip(points, table):
        value = chis[k - 1]  # chi_ij, the denominator of C_k
        if abs(value) <= denominator_threshold(psi[i - 1], psi[j - 1]):
            raise HypothesisViolationError(
                f"chi_{i}{j} = {value!r} at {tuple(float(v) for v in x)}; chart hypothesis fails"
            )
        s = math.copysign(1.0, value)
        if spec.domain.predicate is None and sign_seen and s != sign_seen:
            raise HypothesisViolationError(
                f"chi_{i}{j} changes sign on the box (seen near {tuple(float(v) for v in x)}); "
                "it must vanish somewhere inside"
            )
        sign_seen = s
        y = [float(v) for v in x]
        y[k - 1] = -(chis[i - 1] / value)  # -C_k, as forward_map computes it
        ys.append(y)
    ys = np.array(ys)
    return DarbouxChart(
        spec,
        k,
        tuple(axis_sign(iv) for iv in spec.domain.intervals),
        tuple((float(ys[:, a].min()), float(ys[:, a].max())) for a in range(3)),
        Field3(casimir_expr(spec, k)),
    )


def forward_map(chart: DarbouxChart, x) -> np.ndarray:
    """y(x): pass-through pair plus the negated Casimir."""
    if not chart.spec.domain.contains(x):
        raise DomainMembershipError(f"point {tuple(float(v) for v in x)} is outside the chart domain")
    y = np.array([float(v) for v in x])
    y[chart.k - 1] = -casimir_value(chart.spec, chart.k, x)
    return y


def inverse_map(chart: DarbouxChart, y) -> np.ndarray:
    """x(y): solve psi_k through zeta (or the bracketing root-finder)."""
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    y = [float(v) for v in y]
    target = spec.psi(j, y[j - 1]) + spec.kappa.entry(j, k) + chi(spec, i, j, y) * y[k - 1]
    x = np.array(y)
    x[k - 1] = psi_inverse(spec.field(k), target)
    return x


def jacobian_forward(chart: DarbouxChart, x, scheme: str = "analytic") -> np.ndarray:
    """d y / d x at a domain point; row k is the negated Casimir gradient.

    analytic differentiates the Casimir ratio symbolically; fd applies
    central differences to it.
    """
    if scheme not in ("analytic", "fd"):
        raise ValueError(f"scheme must be analytic or fd, got {scheme!r}")
    M = np.eye(3)
    M[chart.k - 1, :] = [-g for g in chart.casimir.gradient(*(float(v) for v in x), scheme)]
    return M


def pushforward_matrix(chart: DarbouxChart, y, scheme: str = "analytic"):
    """J'(y) = (dy/dx) J(x(y)) (dy/dx)^T as a StructureMatrixValue."""
    from .family import StructureMatrixValue

    x = inverse_map(chart, y)
    if not chart.spec.domain.contains(x):
        raise DomainMembershipError(
            f"inverse image {tuple(float(v) for v in x)} of {tuple(float(v) for v in y)} "
            "left the spec domain; y is not in the chart image"
        )
    J = structure_matrix_at(chart.spec, x, check_domain=False).as_matrix()
    M = jacobian_forward(chart, x, scheme)
    P = M @ J @ M.T
    return StructureMatrixValue(float(P[0, 1]), float(P[1, 2]), float(P[2, 0]))


def reparam_factor(chart: DarbouxChart, y) -> float:
    """J_ij(x(y)) via the closed form eta(x(y)) chi_ij(y_i, y_j) phi_k(x_k(y)).

    Nonvanishing on the chart image; values at the 1e-12 floor raise a
    hypothesis violation.
    """
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    x = inverse_map(chart, y)
    x1, x2, x3 = (float(v) for v in x)
    factor = spec.eta_value(x1, x2, x3) * chi(spec, i, j, y) * spec.phi(k, float(x[k - 1]))
    if abs(factor) <= FACTOR_FLOOR:
        raise HypothesisViolationError(
            f"reparametrization factor {factor!r} vanishes at y = {tuple(float(v) for v in y)}"
        )
    return factor


def canonical_check(
    chart: DarbouxChart,
    n_samples: int = 1000,
    seed: int = 42,
    tol: float = 1e-8,
    scheme: str = "analytic",
) -> SampledCheckReport:
    """Pushforward over factor must equal the constant canonical matrix.

    Sampled over the chart domain; reports the worst entrywise deviation
    of J'(y) / J_ij(x(y)) from the canonical pattern.
    """
    target = canonical_matrix(chart.k)

    def measure(x):
        y = forward_map(chart, x)
        P = pushforward_matrix(chart, y, scheme).as_matrix()
        factor = reparam_factor(chart, y)
        return float(np.max(np.abs(P / factor - target))), tuple(float(v) for v in y)

    return sampled_check("canonical", measure, chart.spec.domain.sample(n_samples, seed), scheme, seed, tol)
