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
from .errors import DomainEvalError, DomainMembershipError, HypothesisViolationError
from .family import PoissonFamilySpec, StructureMatrixValue, chi, chi_from_psi, structure_matrix_at
from .scalar_fields import Field3, axis_sign, coordinates, element, first_flagged, point_at, psi_inverse
from .scalar_fields import clip, first_vanishing, psi_values, sample_prefix
from .verification import SampledCheckReport, sampled_check

FACTOR_FLOOR = 1e-12
CANONICAL_TOL = 1e-8  # canonical_check passes when every sampled deviation is at most this
PROBE = 32  # the exact stage probes chi_ij's zero set on a PROBE x PROBE grid of (x_i, x_k)


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
    # build_chart's draw: its seed, CHART_SAMPLES points, their draw indices and images y, (n, 3) views of columns (D20)
    seed: int | None = field(default=None, repr=False, compare=False)
    points: np.ndarray | None = field(default=None, repr=False, compare=False)
    draws: np.ndarray | None = field(default=None, repr=False, compare=False)
    images: np.ndarray | None = field(default=None, repr=False, compare=False)


def build_chart(spec: PoissonFamilySpec, k: int | None = None, seed: int = 0) -> DarbouxChart:
    """Validate the chart hypothesis chi_ij != 0 on the domain and assemble the chart.

    One pass over CHART_SAMPLES domain points at seed gives all three
    results.  k defaults to the best-conditioned Casimir index.  The
    sampled stage is first_vanishing on those points over the denominator
    threshold, with the sign rule on a plain box (no predicate carving the
    domain apart); the exact stage then probes chi_ij's zero set.  The
    first failing point is named.  The image box spans the sample's images.
    The chart keeps the sample and its images for canonical_check.
    """
    points, draws = spec.domain.draw(CHART_SAMPLES, seed)
    psis, chis = chi_table(spec, points)
    i, j, k = cyclic(best_casimir_index(chis) if k is None else k)

    where, at = points, chis[k - 1]  # chi_ij, the denominator of C_k
    with np.errstate(all="ignore"):
        floor = denominator_threshold(psis[i - 1], psis[j - 1])
        ys = np.array(points.T)  # the images as coordinate rows, as forward_map returns them
        ys[k - 1] = -(chis[i - 1] / at)  # -C_k, as forward_map computes it
    failure = first_vanishing(lambda v: v, (at,), floor, spec.domain.predicate is None)
    if failure is None:
        where, at, floor = _zero_set_probe(spec, i, j, k)
        failure = first_vanishing(lambda v: v, (at,), floor, False)
    if failure is not None:
        x = point_at(where.T, failure[0])
        raise HypothesisViolationError(
            f"chi_{i}{j} = {float(at[failure[0]])!r} at {x}; chart hypothesis fails" if failure[1] == "zero"
            else f"chi_{i}{j} changes sign on the box (seen near {x}); it must vanish somewhere inside"
        )
    return DarbouxChart(
        spec,
        k,
        tuple(axis_sign(iv) for iv in spec.domain.intervals),
        tuple((float(y.min()), float(y.max())) for y in ys),
        Field3(casimir_expr(spec, k)),
        seed,
        points,
        draws,
        ys.T,
    )


def _zero_set_probe(spec: PoissonFamilySpec, i: int, j: int, k: int):
    """Points on chi_ij's zero set as rows, chi_ij there, and its threshold there (-inf outside the domain).

    With each psi monotone, chi_ij = psi_i(x_i) - psi_j(x_j) + kappa_ij ranges over exactly
    [min psi_i - max psi_j, max psi_i - min psi_j] + kappa_ij on the box: no points when that
    clears zero by the threshold.  Else x_j = psi_j^-1(psi_i(x_i) + kappa_ij) on a PROBE x PROBE
    grid of (x_i, x_k), where the target is in psi_j's range; a sample on a predicate domain.
    chi_ij and its threshold are computed once per x_i, and only admissibility on the whole grid.
    """
    f_i, f_j = spec.field(i), spec.field(j)
    (a_i, b_i), (a_j, b_j) = f_i.psi_range(), f_j.psi_range()
    k_ij = spec.kappa.entry(i, j)
    if abs(min(max(0.0, a_i - b_j + k_ij), b_i - a_j + k_ij)) > denominator_threshold(max(-a_i, b_i), max(-a_j, b_j)):
        return np.empty((0, 3)), np.empty(0), np.empty(0)
    with np.errstate(all="ignore"):  # a target that overflows clips to the range end, as it does on floats
        x_i = np.linspace(*sorted(psi_inverse(f_i, clip(np.array([a_j, b_j]) - k_ij, a_i, b_i)).tolist()), PROBE)
        x_j = psi_inverse(f_j, clip(psi_values(f_i, x_i) + k_ij, a_j, b_j))
    grid = np.empty((PROBE * PROBE, 3))
    grid[:, i - 1] = np.repeat(x_i, PROBE)
    grid[:, j - 1] = np.repeat(x_j, PROBE)
    grid[:, k - 1] = np.tile(np.linspace(*spec.domain.intervals[k - 1], PROBE), PROBE)
    psis, chis = chi_table(spec, grid[::PROBE])  # chi_ij and its threshold do not change along a row of x_k
    with np.errstate(all="ignore"):
        threshold = np.repeat(denominator_threshold(psis[i - 1], psis[j - 1]), PROBE)
    return grid, np.repeat(chis[k - 1], PROBE), np.where(spec.domain.admissible(grid), threshold, -np.inf)


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


def inverse_target(chart: DarbouxChart, psi_i, psi_j, y_k):
    """psi_j + kappa_jk + chi_ij y_k, the value of psi_k at x_k(y).

    psi_i and psi_j are psi_i(y_i) and psi_j(y_j): floats, arrays or
    expression trees (the result is then the tree of these operations).
    """
    i, j, k = cyclic(chart.k)
    kappa = chart.spec.kappa
    return psi_j + kappa.entry(j, k) + chi_from_psi(psi_i, psi_j, kappa.entry(i, j)) * y_k


def inverse_map(chart: DarbouxChart, y) -> np.ndarray:
    """x(y): solve psi_k through zeta (or the bracketing root-finder).

    y may be three coordinate arrays; x is then a (3, n) array.
    """
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    y = coordinates(y)
    psi_j = spec.psi(j, y[j - 1])  # before psi_i: a fault in psi_j is the one reported when both fault
    target = inverse_target(chart, spec.psi(i, y[i - 1]), psi_j, y[k - 1])
    x = np.array(y)
    x[k - 1] = psi_inverse(spec.field(k), target)
    return x


def jacobian_forward(chart: DarbouxChart, x) -> np.ndarray:
    """d y / d x at a domain point; row k is the negated Casimir gradient, differentiated symbolically.

    For three coordinate arrays the result is an (n, 3, 3) stack.
    """
    return _jacobian(chart.k, x, chart.casimir.gradient(*coordinates(x)))


def _jacobian(k: int, x, gradient) -> np.ndarray:
    """The identity with row k replaced by the negated gradient of C_k at x, or a stack of them."""
    M = np.broadcast_to(np.eye(3), np.shape(coordinates(x)[0]) + (3, 3)).copy()
    for axis, g in enumerate(gradient):
        M[..., k - 1, axis] = -g
    return M


def _gradient_kernel(chart: DarbouxChart):
    """C_k's analytic gradient as one expr.plan_kernel; None where it gives none."""
    return ex.plan_kernel(tuple(chart.casimir.partial_expr(axis) for axis in (1, 2, 3)))


def pushforward_matrix(chart: DarbouxChart, y) -> StructureMatrixValue:
    """J'(y) = (dy/dx) J(x(y)) (dy/dx)^T as a StructureMatrixValue.

    y may be three coordinate arrays; the entries are then arrays.  A stack
    of points goes through the same BLAS product per 3x3 slice as a single
    point, so every slice equals the single-point result.
    """
    return _pushforward(chart, y, None)[1]


def _pushforward(chart: DarbouxChart, y, kernel):
    """x(y) and pushforward_matrix(chart, y); with a kernel, C_k's gradient on arrays is kernel.batch's."""
    x = inverse_map(chart, y)
    bad = chart.spec.domain.first_outside(x)
    if bad is not None:
        raise DomainMembershipError(
            f"inverse image {point_at(x, bad)} of {point_at(y, bad)} "
            "left the spec domain; y is not in the chart image"
        )
    J = structure_matrix_at(chart.spec, x, check_domain=False).as_matrix()
    M = jacobian_forward(chart, x) if kernel is None else _jacobian(chart.k, x, kernel.batch(*x))
    P = M @ J @ np.swapaxes(M, -1, -2)
    entries = (P[..., 0, 1], P[..., 1, 2], P[..., 2, 0])
    return x, StructureMatrixValue(*(entries if P.ndim == 3 else (float(v) for v in entries)))


def reparam_factor(chart: DarbouxChart, y):
    """J_ij(x(y)) via the closed form eta(x(y)) chi_ij(y_i, y_j) phi_k(x_k(y)).

    Nonvanishing on the chart image; values at the 1e-12 floor, and values
    that are not finite, raise a hypothesis violation.  y may be three
    coordinate arrays.
    """
    return reparam_factor_from(chart, y, inverse_map(chart, y))


def reparam_factor_from(chart: DarbouxChart, y, x):
    """reparam_factor(chart, y) from x = inverse_map(chart, y), already at hand."""
    i, j, k = cyclic(chart.k)
    spec = chart.spec
    x = coordinates(x)
    factor = spec.eta_value(*x) * chi(spec, i, j, y) * spec.phi(k, x[k - 1])
    bad = first_flagged((abs(factor) <= FACTOR_FLOOR) | ~np.isfinite(factor))
    if bad is not None:
        value = element(factor, bad)
        what = "vanishes" if abs(value) <= FACTOR_FLOOR else "is not finite"
        raise HypothesisViolationError(f"reparametrization factor {value!r} {what} at y = {point_at(y, bad)}")
    return factor


def _deviation(chart: DarbouxChart, y, kernel):
    """max |J'(y) / J_ij(x(y)) - canonical| at a chart point y, or per point for coordinate arrays.

    x(y) is computed once, for J'(y) and the factor; kernel is _pushforward's.
    """
    x_y, P = _pushforward(chart, y, kernel)
    factor = reparam_factor_from(chart, y, x_y)
    deviation = np.abs(P.as_matrix() / np.expand_dims(factor, (-2, -1)) - canonical_matrix(chart.k))
    return np.max(deviation, axis=(-2, -1))


def _own_draw(chart: DarbouxChart, n: int, seed: int):
    """build_chart's first n points and their images, or None where canonical_check draws its own (D19).

    They serve where the points are domain.sample(n, seed)'s and the images are finite.
    """
    if chart.points is None or seed != chart.seed or not sample_prefix(chart.draws, n):
        return None
    images = chart.images[:n]
    return (chart.points[:n], images) if np.isfinite(images).all() else None


def canonical_check(chart: DarbouxChart, n_samples: int = 1000, seed: int = 42) -> SampledCheckReport:
    """Pushforward over factor must equal the constant canonical matrix.

    Sampled over the chart domain; reports the worst entrywise deviation
    of J'(y) / J_ij(x(y)) from the canonical pattern, which passes at most
    CANONICAL_TOL (docs/decisions.md, D11).  All points go
    through one array pass, bit-identical to the per-point loop, with the
    analytic gradient of C_k from one kernel; a fault or a failed guard
    anywhere in it replays the per-point loop, which raises the first
    failure in sample order.  Where the sample is build_chart's own, the
    array pass starts from the chart's images (D19).
    """
    own = _own_draw(chart, n_samples, seed)
    points, images = own if own is not None else (chart.spec.domain.sample(n_samples, seed), None)

    def on_arrays():
        kernel = _gradient_kernel(chart)
        y = forward_map(chart, points.T) if images is None else images.T
        return _deviation(chart, y, kernel), y.T

    def measure(x):
        with np.errstate(all="ignore"):  # a value that is not finite raises, naming its point, in sampled_check
            y = forward_map(chart, x)  # its errors name the point already
            try:
                value = _deviation(chart, y, None)
            except DomainEvalError as exc:
                raise DomainEvalError(f"{exc} at {tuple(float(v) for v in x)}") from None
        return float(value), tuple(float(v) for v in y)

    return sampled_check("canonical", on_arrays, measure, points, "analytic", seed, CANONICAL_TOL)
