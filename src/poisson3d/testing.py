"""Deterministic generators of family instances and control fields.

Property tests and the acceptance suite draw random family members
(random zero-sum constants, densities from a small zoo, conformal factors
including the singular product form) and random non-family polynomial
fields as negative controls.  Everything is a pure function of
(seed, index).
"""

from __future__ import annotations

import random

from . import expr as ex
from .family import PoissonFamilySpec, make_family_spec, make_kappa
from .scalar_fields import DomainBox, build_scalar_field
from .verification import MatrixField3

# intervals with pairwise-separated supports: with the product-form eta the
# denominators stay bounded away from zero on the whole box
SEPARATED_INTERVALS = ((0.1, 0.45), (0.55, 0.95), (1.05, 1.5))

_PHI_KINDS = ("const", "affine", "linear2au", "exp")
_ETA_KINDS = ("one", "polyprod", "product_form")


def _rng(seed: int, index: int) -> random.Random:
    return random.Random(1_000_003 * (seed + 1) + index)


def _axis_field(rng: random.Random, interval: tuple[float, float]):
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
    return build_scalar_field(phi, psi, zeta, interval)


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
    fields = tuple(_axis_field(rng, iv) for iv in intervals)
    domain = DomainBox(intervals, predicate)
    return make_family_spec(eta, fields, kappa, domain, name=f"random-{seed}-{index}")


def random_polynomial_field(index: int, seed: int = 0, coeff_range: float = 2.0) -> MatrixField3:
    """Random degree-<=2 polynomial skew field; generically not Poisson."""
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
            tree = tree + ex.lit(rng.uniform(-coeff_range, coeff_range)) * m
        return tree

    return MatrixField3(entry(), entry(), entry())
