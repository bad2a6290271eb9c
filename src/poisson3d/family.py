"""The three-parameter-function family of 3-D structure matrices.

A family member is built from a nonvanishing factor eta(x), three axis
triples (phi_i, psi_i, zeta_i), and skew constants kappa_ij with
kappa_12 + kappa_23 + kappa_31 = 0.  Its independent entries are

    J12 = eta * (psi_1(x1) - psi_2(x2) + kappa_12) * phi_3(x3)
    J23 = eta * (psi_2(x2) - psi_3(x3) + kappa_23) * phi_1(x1)
    J31 = eta * (psi_3(x3) - psi_1(x1) + kappa_31) * phi_2(x2)

with chi_ij = psi_i - psi_j + kappa_ij the bracketed combinations.  The
chi sum telescopes to zero, which forbids exactly two entries vanishing
at a point and limits the rank to 0 or 2.

eta is stored as a multiplicative chain so that rescaling composes a new
factor onto existing entries exactly: every entry of the rescaled matrix
is float-identical to factor(x) times the original entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import (
    ConsistencyAlarmError,
    DomainEvalError,
    DomainMembershipError,
    FamilyValidationError,
    InvalidAxisError,
)
from .scalar_fields import ZERO_FLOOR, DomainBox, ScalarField1D, coordinates, first_vanishing, point_at

_AXES = (1, 2, 3)
_XS = ("x1", "x2", "x3")
NONVANISHING_SAMPLES = 256  # the domain points that certify eta and rescale factors


@dataclass(frozen=True)
class KappaMatrix:
    """Skew constants with the zero-sum closure built in.

    Only kappa_12 and kappa_23 are stored; kappa_31 is always derived as
    their negated sum, so the zero-sum condition cannot be violated.
    """

    k12: float
    k23: float

    @property
    def k31(self) -> float:
        return -(self.k12 + self.k23)

    @property
    def triple(self) -> tuple[float, float, float]:
        """(k12, k23, k31), the form chi_triple and structure_entries take."""
        return (self.k12, self.k23, self.k31)

    def entry(self, i: int, j: int) -> float:
        if i not in _AXES or j not in _AXES:
            raise InvalidAxisError(f"axes must be in {{1,2,3}}, got ({i}, {j})")
        if i == j:
            return 0.0
        if (j - i) % 3 == 1:  # (1, 2), (2, 3) or (3, 1)
            return self.triple[i - 1]
        return -self.triple[j - 1]


def make_kappa(k12: float, k23: float) -> KappaMatrix:
    if not math.isfinite(float(k12) + float(k23)):  # and so are both constants
        raise ValueError(f"kappa constants and kappa_31 = -(k12 + k23) must be finite, got ({k12!r}, {k23!r})")
    return KappaMatrix(float(k12), float(k23))


@dataclass(frozen=True)
class PoissonFamilySpec:
    """One member of the family, with its domain of validity.

    Use make_family_spec for a validated instance.  eta_chain holds the
    conformal factor as an ordered product; rescale() appends to it.

    psi, phi, eta_value, and the module's chi and structure_matrix_at take
    floats, or arrays of coordinates, through the expr.compile_expr callables.
    callables holds them as (psi per axis, phi per axis, the eta chain), so
    structure_matrix_at looks them up once per call.
    """

    eta_chain: tuple[ex.Expr, ...]
    fields: tuple[ScalarField1D, ScalarField1D, ScalarField1D]
    kappa: KappaMatrix
    domain: DomainBox
    name: str = ""
    eta_fns: tuple = field(init=False, repr=False, compare=False)
    callables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "eta_fns", tuple(ex.compile_expr(e, _XS) for e in self.eta_chain))
        psi_fns, phi_fns = (tuple(getattr(f, name) for f in self.fields) for name in ("psi_fn", "phi_fn"))
        object.__setattr__(self, "callables", (psi_fns, phi_fns, self.eta_fns))

    @property
    def eta_expr(self) -> ex.Expr:
        e = self.eta_chain[0]
        for nxt in self.eta_chain[1:]:
            e = e * nxt
        return e

    def eta_value(self, x1, x2, x3):
        v = 1.0
        for fn in self.eta_fns:
            v = v * fn(x1, x2, x3)
        return v

    def field(self, axis: int) -> ScalarField1D:
        if axis not in _AXES:
            raise InvalidAxisError(f"axis must be in {{1,2,3}}, got {axis}")
        return self.fields[axis - 1]

    def psi(self, axis: int, value):
        return self.field(axis).psi_fn(value)

    def phi(self, axis: int, value):
        return self.field(axis).phi_fn(value)


def _require_nonvanishing(fn, domain: DomainBox, what: str) -> None:
    """first_vanishing of fn at NONVANISHING_SAMPLES domain points (seed 0), with the sign rule on a plain box.

    Where fn fails to evaluate, or its value is not finite (an eta chain's
    product may overflow though each factor is finite), the error names
    what is certified and the first such point.
    """
    points = domain.sample(NONVANISHING_SAMPLES, seed=0).T

    def fn_at(*x):
        try:
            v = fn(*x)
        except DomainEvalError as exc:
            fails = f"{what} must be nonvanishing on the domain: evaluation failed"
            raise FamilyValidationError(f"{fails}: {exc} (x = {x})") from None
        if not np.isfinite(v).all():  # on arrays, a package error sends first_vanishing to its in-order replay
            raise FamilyValidationError(f"{what} is not finite at sampled point {x}")
        return v

    failure = first_vanishing(fn_at, points, ZERO_FLOOR, domain.predicate is None)
    if failure is not None:
        x = point_at(points, failure[0])
        raise FamilyValidationError(
            f"{what} vanishes at sampled point {x}" if failure[1] == "zero"
            else f"{what} changes sign on the box (seen near {x}); it must vanish somewhere inside"
        )


def make_family_spec(
    eta: ex.Expr | tuple[ex.Expr, ...],
    fields: tuple[ScalarField1D, ScalarField1D, ScalarField1D],
    kappa: KappaMatrix,
    domain: DomainBox,
    name: str = "",
) -> PoissonFamilySpec:
    """Assemble and validate a family member.

    Checks that each axis interval matches the domain box, and certifies
    eta (a chain's product) on NONVANISHING_SAMPLES domain points drawn at seed 0.
    """
    chain = tuple(eta) if isinstance(eta, tuple) else (eta,)
    for e in chain:
        extra = ex.free_vars(e) - {"x1", "x2", "x3"}
        if extra:
            raise FamilyValidationError(f"eta may only use x1,x2,x3; found {sorted(extra)}")
    for axis, fld in zip(_AXES, fields):
        if tuple(fld.interval) != tuple(domain.intervals[axis - 1]):
            raise FamilyValidationError(
                f"axis {axis} interval {fld.interval} does not match domain {domain.intervals[axis - 1]}"
            )
    spec = PoissonFamilySpec(chain, tuple(fields), kappa, domain, name)
    _require_nonvanishing(spec.eta_value, domain, "eta")
    return spec


# ---------------------------------------------------------------------------
# Pointwise evaluation


def chi_from_psi(psi_i, psi_j, kappa_ij):
    """chi_ij = psi_i - psi_j + kappa_ij from the values psi_i(x_i) and psi_j(x_j).

    The one place chi is written: floats, arrays, or expression trees (the
    result is then the tree of these very operations, docs/decisions.md, D6).
    """
    return (psi_i - psi_j) + kappa_ij


def chi(spec: PoissonFamilySpec, i: int, j: int, x):
    """psi_i(x_i) - psi_j(x_j) + kappa_ij; antisymmetric in (i, j).

    x is a point, or three coordinate arrays (chi is then an array).
    """
    if i not in _AXES or j not in _AXES or i == j:
        raise InvalidAxisError(f"need two distinct axes in {{1,2,3}}, got ({i}, {j})")
    xi, xj = x[i - 1], x[j - 1]
    if not isinstance(xi, np.ndarray):
        xi, xj = float(xi), float(xj)
    return chi_from_psi(spec.psi(i, xi), spec.psi(j, xj), spec.kappa.entry(i, j))


def chi_triple(kappa: tuple[float, float, float], p1, p2, p3):
    """(chi_12, chi_23, chi_31) from a (k12, k23, k31) triple and the values psi_1, psi_2, psi_3.

    The triple is KappaMatrix.triple, or a raw one that need not sum to zero.
    """
    k12, k23, k31 = kappa
    return chi_from_psi(p1, p2, k12), chi_from_psi(p2, p3, k23), chi_from_psi(p3, p1, k31)


@dataclass(frozen=True)
class StructureMatrixValue:
    """The three independent entries of the skew matrix at one point, or arrays of them."""

    j12: float
    j23: float
    j31: float

    def as_matrix(self) -> np.ndarray:
        """The skew 3x3 matrix, or an (n, 3, 3) stack of them for entry arrays."""
        M = np.zeros(np.shape(self.j12) + (3, 3))
        M[..., 0, 1], M[..., 1, 2], M[..., 2, 0] = self.j12, self.j23, self.j31
        M[..., 1, 0], M[..., 2, 1], M[..., 0, 2] = -self.j12, -self.j23, -self.j31
        return M

    def entries(self) -> tuple[float, float, float]:
        return (self.j12, self.j23, self.j31)

    def rank(self) -> int:
        """Rank classification: 0 when all entries vanish, 2 otherwise.

        An entry vanishes at or below tol = 1e-12 (1 + max |entry|).  Exactly
        two such entries with the third far above tol is impossible under the
        chi zero-sum relation, so that pattern raises a consistency alarm
        instead of returning a rank.
        """
        entries = self.entries()
        tol = 1e-12 * (1.0 + max(map(abs, entries)))
        n_small = sum(abs(v) <= tol for v in entries)
        if n_small == 2 and max(map(abs, entries)) > 100.0 * tol:
            raise ConsistencyAlarmError(
                f"entries {entries!r}: exactly two vanish while the third is large; "
                "impossible for a zero-sum family member"
            )
        return 0 if n_small == 3 else 2


def structure_matrix_at(spec: PoissonFamilySpec, x, check_domain: bool = True) -> StructureMatrixValue:
    """Evaluate the three independent entries at a point of the domain.

    x may be three coordinate arrays; the entries are then arrays.
    """
    if check_domain:
        bad = spec.domain.first_outside(x)
        if bad is not None:
            raise DomainMembershipError(f"point {point_at(x, bad)} is outside the domain")
    x1, x2, x3 = coordinates(x)
    psi, phi, eta = spec.callables
    psis = psi[0](x1), psi[1](x2), psi[2](x3)
    phi3, phi1, phi2 = phi[2](x3), phi[0](x1), phi[1](x2)  # in the order the entries take them
    return StructureMatrixValue(
        *structure_entries(spec.kappa.triple, psis, (phi1, phi2, phi3), [fn(x1, x2, x3) for fn in eta])
    )


def structure_entries(kappa: tuple[float, float, float], psis, phis, etas):
    """(J12, J23, J31) from a (k12, k23, k31) triple and the values of psi_1..3, phi_1..3 and the eta factors.

    The values are floats, arrays or expression trees; for trees the result
    is the tree of these very operations (docs/decisions.md, D6).  Each eta
    factor multiplies every entry in chain order, so a rescaled chain
    associates as ((chi * phi) * e0) * e1.
    """
    c12, c23, c31 = chi_triple(kappa, *psis)
    j12 = c12 * phis[2]
    j23 = c23 * phis[0]
    j31 = c31 * phis[1]
    for e in etas:
        j12, j23, j31 = j12 * e, j23 * e, j31 * e
    return j12, j23, j31


def rank_at(spec: PoissonFamilySpec, x) -> int:
    return structure_matrix_at(spec, x).rank()


def rescale(spec: PoissonFamilySpec, factor: ex.Expr) -> PoissonFamilySpec:
    """New spec, same name, with eta multiplied by a nonvanishing factor.

    The factor, and then the product of the chain it joins, are certified
    on the sample make_family_spec uses for eta.
    Entry values of the result are exactly factor(x) times the original
    entries (the factor is composed onto the evaluation chain, not folded
    into a new expression).
    """
    extra = ex.free_vars(factor) - {"x1", "x2", "x3"}
    if extra:
        raise FamilyValidationError(f"factor may only use x1,x2,x3; found {sorted(extra)}")
    _require_nonvanishing(ex.compile_expr(factor, _XS), spec.domain, "rescale factor")
    rescaled = PoissonFamilySpec(spec.eta_chain + (factor,), spec.fields, spec.kappa, spec.domain, spec.name)
    _require_nonvanishing(rescaled.eta_value, spec.domain, "rescaled eta")
    return rescaled


# ---------------------------------------------------------------------------
# Symbolic views (feed the analytic verification scheme)


def axis_exprs(spec: PoissonFamilySpec) -> tuple[tuple[ex.Expr, ...], tuple[ex.Expr, ...]]:
    """(psi_1, psi_2, psi_3) and (phi_1, phi_2, phi_3) as trees in x1, x2, x3."""
    return tuple(
        tuple(ex.substitute(getattr(f, name), "u", ex.Var(x)) for f, x in zip(spec.fields, _XS))
        for name in ("psi", "phi")
    )
