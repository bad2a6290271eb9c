"""Deterministic generators of family instances and control fields.

Property tests and the acceptance suite draw random family members
(random zero-sum constants, densities from a small zoo, conformal factors
including the singular product form) and random non-family polynomial
fields as negative controls.  Everything is a pure function of
(seed, index).  hermite_resample reads a direct trajectory at other
times, for step-halving comparisons.
"""

from __future__ import annotations

import random

import numpy as np

from . import expr as ex
from .dynamics import Trajectory
from .family import PoissonFamilySpec, make_family_spec, make_kappa
from .scalar_fields import DomainBox, build_scalar_fields
from .verification import MatrixField3

# intervals with pairwise-separated supports: with the product-form eta the
# denominators stay bounded away from zero on the whole box
SEPARATED_INTERVALS = ((0.1, 0.45), (0.55, 0.95), (1.05, 1.5))

_PHI_KINDS = ("const", "affine", "linear2au", "exp")
_ETA_KINDS = ("one", "polyprod", "product_form")


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(1_000_003 * (seed + 1) + index)


def _axis_triple(rng: random.Random):
    """A random (phi, psi, zeta) triple of the zoo; zeta is None for an affine phi."""
    kind = rng.choice(_PHI_KINDS)
    s = rng.choice((-1.0, 1.0))
    u = ex.var("u")
    u2 = ex.pow_(u, ex.lit(2.0))
    if kind == "const":
        c = s * rng.uniform(0.5, 3.0)
        phi = ex.lit(c)
        psi = ex.lit(c) * u
        zeta = u / c
    elif kind == "affine":
        a = s * rng.uniform(0.5, 2.0)
        b = a * rng.uniform(2.0, 5.0)  # root at -b/a < 0, outside the interval
        phi = ex.lit(a) * u + b
        psi = ex.lit(a / 2.0) * u2 + ex.lit(b) * u
        zeta = None
    elif kind == "linear2au":
        a = s * rng.uniform(0.5, 2.0)
        phi = ex.lit(2.0 * a) * u
        psi = ex.lit(a) * u2
        zeta = ex.call("sqrt", u / a)
    else:
        a = s * rng.uniform(0.3, 1.5)
        phi = ex.call("exp", ex.lit(a) * u)
        psi = ex.call("exp", ex.lit(a) * u) / a
        zeta = ex.call("ln", ex.lit(a) * u) / a
    return phi, psi, zeta


def random_family_spec(index: int, seed: int = 0) -> PoissonFamilySpec:
    """A random validated family member with a well-conditioned domain."""
    rng = _rng(seed, index)
    kappa = make_kappa(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0))
    eta_kind = rng.choice(_ETA_KINDS)
    if eta_kind == "product_form":
        intervals = SEPARATED_INTERVALS
        predicate = ex.parse("(x1 - x2)*(x2 - x3)*(x3 - x1)")
        eta = ex.parse("1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))")
    else:
        intervals = tuple(
            (0.2 + 0.1 * rng.random(), 1.2 + 0.1 * rng.random()) for _ in range(3)
        )
        predicate = None
        if eta_kind == "one":
            eta = ex.lit(1.0)
        else:
            parts = [
                ex.lit(1.0) + ex.lit(rng.uniform(0.1, 2.0)) * ex.pow_(ex.var(v), ex.lit(2.0))
                for v in ("x1", "x2", "x3")
            ]
            eta = parts[0] * parts[1] * parts[2]
    fields = build_scalar_fields([_axis_triple(rng) for _ in intervals], intervals)
    domain = DomainBox(intervals, predicate)
    return make_family_spec(eta, fields, kappa, domain, name=f"random-{seed}-{index}")


def random_polynomial_field(index: int, seed: int = 0) -> MatrixField3:
    """Random degree-<=2 polynomial skew field, coefficients in [-2, 2]; generically not Poisson."""
    rng = _rng(seed + 7_777_777, index)
    monomials = (
        ex.lit(1.0),
        ex.var("x1"),
        ex.var("x2"),
        ex.var("x3"),
        ex.pow_(ex.var("x1"), ex.lit(2.0)),
        ex.pow_(ex.var("x2"), ex.lit(2.0)),
        ex.pow_(ex.var("x3"), ex.lit(2.0)),
        ex.var("x1") * ex.var("x2"),
        ex.var("x2") * ex.var("x3"),
        ex.var("x3") * ex.var("x1"),
    )

    def entry():
        tree = ex.lit(0.0)
        for m in monomials:
            tree = tree + ex.lit(rng.uniform(-2.0, 2.0)) * m
        return tree

    return MatrixField3(entry(), entry(), entry())


def hermite_resample(traj: Trajectory, t_values, deriv_fn) -> np.ndarray:
    """Cubic Hermite interpolation of a direct trajectory at given times.

    deriv_fn(state) -> velocity; with exact endpoint derivatives the
    interpolation error is O(dt^4), matching the integrator's order.
    """
    t = traj.t
    X = traj.states
    out = np.empty((len(t_values), X.shape[1]))
    for row, tv in enumerate(np.asarray(t_values, float)):
        if not (t[0] <= tv <= t[-1]):
            raise ValueError(f"t = {tv!r} outside trajectory range [{t[0]}, {t[-1]}]")
        seg = min(max(int(np.searchsorted(t, tv, side="right")) - 1, 0), len(t) - 2)
        h = t[seg + 1] - t[seg]
        s = (tv - t[seg]) / h
        p0, p1 = X[seg], X[seg + 1]
        v0 = np.asarray(deriv_fn(p0), float)
        v1 = np.asarray(deriv_fn(p1), float)
        h00 = 2 * s**3 - 3 * s**2 + 1
        h10 = s**3 - 2 * s**2 + s
        h01 = -2 * s**3 + 3 * s**2
        h11 = s**3 - s**2
        out[row] = h00 * p0 + h10 * h * v0 + h01 * p1 + h11 * h * v1
    return out
