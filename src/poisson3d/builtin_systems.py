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
from .scalar_fields import DomainBox, axis_sign, build_scalar_fields, first_flagged, unit_uniforms

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
    All probes go through one admissible pass, and the first admitted one,
    plane by plane, is the one named.
    """
    if domain.predicate is None:
        raise FamilyValidationError(
            "domain must carry a predicate keeping (x1-x2)(x2-x3)(x3-x1) nonzero"
        )
    planes = []  # (n, i, j, lo, hi): the plane x_i = x_j, the n-th pair, over the overlap [lo, hi]
    for n, (i, j) in enumerate(((0, 1), (1, 2), (2, 0))):
        lo = max(domain.intervals[i][0], domain.intervals[j][0])
        hi = min(domain.intervals[i][1], domain.intervals[j][1])
        if lo < hi:  # else the box itself keeps this pair apart
            planes.append((n, i, j, lo, hi))
    if not planes:
        return
    probes = np.arange(_PLANE_PROBES)
    u, v = unit_uniforms(0, np.concatenate([1000 * n + probes for n, *_ in planes]), 2).T
    xs = np.empty((3, u.size))  # coordinate rows, _PLANE_PROBES columns per plane
    for m, (_, i, j, lo, hi) in enumerate(planes):
        at = slice(m * _PLANE_PROBES, (m + 1) * _PLANE_PROBES)
        klo, khi = domain.intervals[3 - i - j]
        xs[i, at] = xs[j, at] = lo + (hi - lo) * u[at]
        xs[3 - i - j, at] = klo + (khi - klo) * v[at]
    first = first_flagged(domain.admissible(xs.T))
    if first is not None:
        raise FamilyValidationError(f"predicate admits the coincidence point {tuple(xs[:, first].tolist())}")


def _identity_fields(domain: DomainBox):
    return build_scalar_fields([(ex.parse("1"), ex.parse("u"), ex.parse("u"))] * 3, domain.intervals)


def _difference_structure(eta: str, name: str, domain: DomainBox | None) -> PoissonFamilySpec:
    """The identity-axis member with the given eta, on a domain that excludes coordinate coincidences."""
    if domain is None:
        domain = default_halphen_domain()
    _check_difference_predicate(domain)
    return make_family_spec(ex.parse(eta), _identity_fields(domain), make_kappa(0.0, 0.0), domain, name)


def halphen_structure(domain: DomainBox | None = None) -> PoissonFamilySpec:
    return _difference_structure(_HALPHEN_ETA, "halphen", domain)


def circle_maps_structure(domain: DomainBox | None = None) -> PoissonFamilySpec:
    return _difference_structure(_CIRCLE_ETA, "circle-maps", domain)


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
    axes = []
    u = ex.var("u")
    for c, sigma in zip(params.psi_coefficients, signs):
        root = ex.call("sqrt", u / c)
        axes.append((ex.lit(2.0 * c) * u, ex.lit(c) * ex.pow_(u, ex.lit(2.0)), root if sigma > 0 else -root))
    a1, a2, a3 = params.alphas
    eta = ex.lit(1.0 / (2.0 * a1 * a2 * a3))
    return make_family_spec(eta, build_scalar_fields(axes, domain.intervals), make_kappa(0.0, 0.0), domain, "euler-top")


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
