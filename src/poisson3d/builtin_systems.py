"""Ready-made structures: Halphen, circle maps, and the triaxial Euler top.

The Halphen structure has psi_i = x_i, phi_i = 1, kappa = 0 and
eta = (2 (x1-x2)(x2-x3)(x3-x1))^(-1), valid wherever the coordinates are
pairwise distinct.  The circle-maps structure is the same matrix with
eta = -((x1-x2)(x2-x3)(x3-x1))^(-1), a constant -2 rescaling, so its
Casimirs and charts coincide with Halphen's.

The Euler top's cubic structure

    J12 = (a2 x1^2 - a1 x2^2) x3   (cyclic),   a1 = (I2-I3)/(I2 I3), ...

is a family member after rewriting with psi_1 = a2 a3 x1^2 (cyclic) and
eta = (2 a1 a2 a3)^(-1); the densities 2 c_i x_i force a fixed-sign octant
and the square-root inverses carry that octant's sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .errors import DegenerateParametersError, FamilyValidationError
from .family import PoissonFamilySpec, StructureMatrixValue, make_family_spec, make_kappa
from .scalar_fields import DomainBox, axis_sign, build_scalar_field

BUILTIN_NAMES = ("halphen", "circle-maps", "euler-top")

DIFFERENCE_PRODUCT = "(x1 - x2)*(x2 - x3)*(x3 - x1)"
_HALPHEN_ETA = f"1 / (2*{DIFFERENCE_PRODUCT})"
_CIRCLE_ETA = f"-1 / ({DIFFERENCE_PRODUCT})"

DEFAULT_HALPHEN_BOX = ((0.0, 1.0), (0.0, 1.0), (0.0, 1.0))
DEFAULT_TOP_BOX = ((0.4, 2.0), (0.4, 2.0), (0.4, 2.0))


def default_halphen_domain(box=DEFAULT_HALPHEN_BOX) -> DomainBox:
    return DomainBox(tuple(box), ex.parse(DIFFERENCE_PRODUCT))


_PLANE_PROBES = 64


def _check_difference_predicate(domain: DomainBox) -> None:
    """The domain must exclude coordinate coincidences.

    Probes _PLANE_PROBES points (seed 0) on each coincidence plane x_i = x_j
    that the box can reach; the predicate has to reject every one of them.
    """
    from .scalar_fields import unit_uniforms

    if domain.predicate is None:
        raise FamilyValidationError(
            "domain must carry a predicate keeping (x1-x2)(x2-x3)(x3-x1) nonzero"
        )
    for pair_index, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        lo = max(domain.intervals[i][0], domain.intervals[j][0])
        hi = min(domain.intervals[i][1], domain.intervals[j][1])
        if lo >= hi:
            continue  # the box itself keeps this pair apart
        k = 3 - i - j
        klo, khi = domain.intervals[k]
        for u, v in unit_uniforms(0, 1000 * pair_index + np.arange(_PLANE_PROBES), 2).tolist():
            x = [0.0, 0.0, 0.0]
            x[i] = x[j] = lo + (hi - lo) * u
            x[k] = klo + (khi - klo) * v
            if domain.contains(x):
                raise FamilyValidationError(
                    f"predicate admits the coincidence point {tuple(x)}"
                )


def _identity_fields(domain: DomainBox):
    return tuple(
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv)
        for iv in domain.intervals
    )


def halphen_structure(domain: DomainBox | None = None) -> PoissonFamilySpec:
    if domain is None:
        domain = default_halphen_domain()
    _check_difference_predicate(domain)
    return make_family_spec(
        ex.parse(_HALPHEN_ETA), _identity_fields(domain), make_kappa(0.0, 0.0), domain, "halphen"
    )


def circle_maps_structure(domain: DomainBox | None = None) -> PoissonFamilySpec:
    if domain is None:
        domain = default_halphen_domain()
    _check_difference_predicate(domain)
    return make_family_spec(
        ex.parse(_CIRCLE_ETA), _identity_fields(domain), make_kappa(0.0, 0.0), domain, "circle-maps"
    )


@dataclass(frozen=True)
class EulerTopParams:
    """Principal moments of inertia with the derived structure constants."""

    I1: float
    I2: float
    I3: float

    def __post_init__(self):
        for v in (self.I1, self.I2, self.I3):
            if not (math.isfinite(v) and v > 0.0):
                raise DegenerateParametersError(f"moments of inertia must be positive, got {v!r}")
        if min(map(abs, self.alphas)) <= 1e-12:
            raise DegenerateParametersError(
                f"moments {self.I1, self.I2, self.I3} are not pairwise distinct (symmetric top)"
            )

    @property
    def alphas(self) -> tuple[float, float, float]:
        return (
            (self.I2 - self.I3) / (self.I2 * self.I3),
            (self.I3 - self.I1) / (self.I1 * self.I3),
            (self.I1 - self.I2) / (self.I1 * self.I2),
        )

    @property
    def psi_coefficients(self) -> tuple[float, float, float]:
        a1, a2, a3 = self.alphas
        return (a2 * a3, a1 * a3, a1 * a2)


def euler_top_structure(params: EulerTopParams, domain: DomainBox | None = None) -> PoissonFamilySpec:
    if domain is None:
        domain = DomainBox(DEFAULT_TOP_BOX, None)
    signs = tuple(axis_sign(iv) for iv in domain.intervals)
    if 0 in signs:
        lo, hi = domain.intervals[signs.index(0)]
        raise FamilyValidationError(
            f"axis interval [{lo}, {hi}] spans an axis plane; the top needs a fixed-sign octant"
        )
    fields = []
    u = ex.var("u")
    for c, sigma, iv in zip(params.psi_coefficients, signs, domain.intervals):
        root = ex.call("sqrt", u / c)
        zeta = root if sigma > 0 else -root
        fields.append(build_scalar_field(ex.lit(2.0 * c) * u, ex.lit(c) * ex.pow_(u, ex.lit(2.0)), zeta, iv))
    a1, a2, a3 = params.alphas
    eta = ex.lit(1.0 / (2.0 * a1 * a2 * a3))
    return make_family_spec(eta, tuple(fields), make_kappa(0.0, 0.0), domain, "euler-top")


def euler_top_raw_matrix(params: EulerTopParams, x) -> StructureMatrixValue:
    """The cubic homogeneous matrix, the independent oracle for the family form."""
    a1, a2, a3 = params.alphas
    x1, x2, x3 = (float(v) for v in x)
    return StructureMatrixValue(
        (a2 * x1 * x1 - a1 * x2 * x2) * x3,
        (a3 * x2 * x2 - a2 * x3 * x3) * x1,
        (a1 * x3 * x3 - a3 * x1 * x1) * x2,
    )


def euler_top_hamiltonian(params: EulerTopParams) -> ex.Expr:
    """Kinetic energy sum x_i^2 / (2 I_i) (a benchmark choice, not canonical)."""
    terms = [
        ex.pow_(ex.var(f"x{i}"), ex.lit(2.0)) / (2.0 * I)
        for i, I in zip((1, 2, 3), (params.I1, params.I2, params.I3))
    ]
    return terms[0] + terms[1] + terms[2]


def build_system(name: str, inertia: tuple[float, float, float] | None = None) -> tuple[PoissonFamilySpec, ex.Expr]:
    """(spec, benchmark Hamiltonian) for a built-in system name."""
    if name == "halphen":
        return halphen_structure(), ex.parse("x1 + x2 + x3")
    if name == "circle-maps":
        return circle_maps_structure(), ex.parse("x1 + x2 + x3")
    if name == "euler-top":
        params = EulerTopParams(*(inertia if inertia is not None else (1.0, 2.0, 3.0)))
        return euler_top_structure(params), euler_top_hamiltonian(params)
    raise ValueError(f"unknown system {name!r}; available: {', '.join(BUILTIN_NAMES)}")
