"""Per-axis function triples (density, primitive, inverse) and domain boxes.

Each axis of a structure carries a density phi, a user-supplied primitive
psi with psi' = phi, and optionally the primitive's inverse zeta.  phi must
be continuous and nonvanishing on the axis interval, which makes psi
strictly monotone and globally invertible there; those guarantees are what
the Casimir and chart constructions later rely on.  All certificates here
are sampled (grid) checks, not proofs.  The package's one central-difference
helper lives here too, with Field3, the one differentiable field of x.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import expr as ex
from .errors import DomainEvalError, DomainSamplingError, FieldValidationError, OutOfRangeError
from .plan import plan_kernel

_EPS = float(np.finfo(float).eps)
_EPS3 = _EPS ** (1.0 / 3.0)
_GRID = 256
# sampled nonvanishing certificates treat magnitudes at or below this as zero
ZERO_FLOOR = 1e-12
_MAX_SOLVE_ITER = 80
_MAX_DRAW_FACTOR = 100  # DomainBox.draw draws at most this many candidates per point
_MIN_CHUNK, _SAMPLE_CHUNK = 64, 1 << 16  # bounds on the indices DomainBox.draw draws at once


def fd_step(x):
    """Truncation/rounding balance for first-order central differences.

    x is a float, or an array of them for a step per element.
    """
    return _EPS3 * (np.maximum(1.0, np.abs(x)) if isinstance(x, np.ndarray) else max(1.0, abs(x)))


def central_difference(f, point, axis: int, h=None):
    """d f / d point[axis] by central differences; f takes the coordinates as arguments.

    axis is 0-based; the step defaults to fd_step of that coordinate.  The
    coordinates may be floats or arrays of one shape (then f must take arrays).
    """
    if h is None:
        h = fd_step(point[axis])
    hi, lo = list(point), list(point)
    hi[axis] = point[axis] + h
    lo[axis] = point[axis] - h
    return (f(*hi) - f(*lo)) / (2.0 * h)


# ---------------------------------------------------------------------------
# A point is three coordinates; n points can be given as three coordinate
# arrays (an array of shape (3, n), say).  Checks that take either name the
# first flagged point, so both forms report the same fault for one point.


def coordinates(x):
    """x1, x2, x3 of a point as floats, or the three arrays when x holds coordinate arrays."""
    if isinstance(x[0], np.ndarray):
        return x[0], x[1], x[2]
    return float(x[0]), float(x[1]), float(x[2])


def first_flagged(flags):
    """None when no flag is set; else () for a lone flag, or the first set index of a flag array."""
    if isinstance(flags, np.ndarray):
        hits = np.flatnonzero(flags)
        return int(hits[0]) if hits.size else None
    return () if flags else None


def element(v, index):
    """v itself for a scalar (index ()), float(v[index]) for an array."""
    return float(v[index]) if isinstance(v, np.ndarray) else v


def point_at(x, index) -> tuple[float, float, float]:
    """The point of x at first_flagged's index, as floats."""
    return tuple(float(element(c, index)) for c in x)


_XS = ("x1", "x2", "x3")


class Field3:
    """A scalar function of (x1, x2, x3) and the one place its partials are decided.

    f is an expression or a callable f(x1, x2, x3).  An expression's
    partials are differentiated symbolically on first use and cached; the
    "fd" scheme, and every partial of a callable, take central differences
    of the value.

    value and partial() also take coordinate arrays for an expression; the
    expr.compile_expr callables then run their register plan (docs/decisions.md, D15).
    """

    def __init__(self, f):
        if not (isinstance(f, ex.Expr) or callable(f)):
            raise TypeError(f"f must be an expression or a callable, got {type(f)!r}")
        self.expr = f if isinstance(f, ex.Expr) else None
        self.value = f if self.expr is None else ex.compile_expr(f, _XS)
        self._partials = [None, None, None]

    def partial(self, axis: int, x1, x2, x3, scheme: str = "analytic"):
        """d f / d x_axis (axis 1, 2 or 3) at a point, or at arrays of points."""
        if scheme == "fd" or self.expr is None:
            return central_difference(self.value, (x1, x2, x3), axis - 1)
        fn = self._partials[axis - 1]
        if fn is None:
            fn = self._partials[axis - 1] = ex.compile_expr(self.partial_expr(axis), _XS)
        return fn(x1, x2, x3)

    def partial_expr(self, axis: int) -> ex.Expr:
        """The symbolic partial along x_axis of the expression."""
        return ex.differentiate(self.expr, f"x{axis}")

    def gradient(self, x1: float, x2: float, x3: float) -> tuple[float, float, float]:
        return tuple(self.partial(axis, x1, x2, x3) for axis in (1, 2, 3))


def axis_sign(interval: tuple[float, float]) -> int:
    """+1 or -1 when the interval lies strictly on one side of zero, else 0."""
    lo, hi = interval
    if lo > 0.0:
        return 1
    if hi < 0.0:
        return -1
    return 0


# ---------------------------------------------------------------------------
# Deterministic point derivation: each sample is a pure function of
# (seed, index), so reports never depend on scheduling or shared RNG state.

_M64 = (1 << 64) - 1
_GOLDEN, _MUL1, _MUL2 = np.uint64(0x9E3779B97F4A7C15), np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_S11, _S27, _S30, _S31 = np.uint64(11), np.uint64(27), np.uint64(30), np.uint64(31)
_UNIT = float(1 << 53)


def _mix64(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer of the uint64 array z, in z; tmp is scratch of z's shape.

    The arithmetic wraps mod 2^64.
    """
    z += _GOLDEN
    z ^= np.right_shift(z, _S30, out=tmp)
    z *= _MUL1
    z ^= np.right_shift(z, _S27, out=tmp)
    z *= _MUL2
    z ^= np.right_shift(z, _S31, out=tmp)
    return z


def unit_uniforms(seed: int, indices, count: int) -> np.ndarray:
    """Row r holds count uniforms in [0, 1) derived from (seed, indices[r]).

    Steele, Lea and Flood's splitmix64 (OOPSLA 2014), keyed by seed and index.
    The result is an (n, count) view of count contiguous columns (D20).
    """
    state = np.array(indices, dtype=np.uint64).reshape(-1)  # a copy: the finalizer runs in place
    tmp = np.empty_like(state)
    _mix64(state, tmp)
    state ^= np.uint64(seed & _M64)
    _mix64(state, tmp)
    out = np.empty((count, state.size))
    for column in out:
        _mix64(state, tmp)
        np.divide(np.right_shift(state, _S11, out=tmp), _UNIT, out=column)
    return out.T


@dataclass(frozen=True)
class ScalarField1D:
    """A density phi, its primitive psi, and optionally psi's inverse zeta.

    phi and psi are expressions in the variable u; zeta, when supplied, maps
    psi-values back to u.  Use build_scalar_field to get a validated value.
    phi_fn, psi_fn and zeta_fn are the compile_expr callables, for floats or
    arrays.
    """

    phi: ex.Expr
    psi: ex.Expr
    zeta: ex.Expr | None
    interval: tuple[float, float]
    phi_fn: object = field(init=False, repr=False, compare=False)
    psi_fn: object = field(init=False, repr=False, compare=False)
    zeta_fn: object = field(init=False, repr=False, compare=False)
    _psi_range: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "phi_fn", ex.compile_expr(self.phi, ("u",)))
        object.__setattr__(self, "psi_fn", ex.compile_expr(self.psi, ("u",)))
        object.__setattr__(
            self, "zeta_fn", ex.compile_expr(self.zeta, ("u",)) if self.zeta is not None else None
        )

    def psi_range(self) -> tuple[float, float]:
        """psi's values at the interval ends, in increasing order; computed on first use."""
        if self._psi_range is None:
            lo, hi = self.interval
            a, b = self.psi_fn(lo), self.psi_fn(hi)
            object.__setattr__(self, "_psi_range", (a, b) if a <= b else (b, a))
        return self._psi_range


def first_vanishing(fn, sample, floor, sign_rule: bool):
    """(index, "zero" or "sign") of the first sample point where fn may vanish, or None.

    fn takes sample's coordinate arrays, or one point's floats; floor is a
    scalar or one per point.  "zero": |fn| at or below the floor.  "sign",
    under the sign rule: a sign other than the first point's, which forces
    a zero on a connected set.  A fault or a failure in the array pass
    replays the points in order, so an evaluation error raises unless an
    earlier point fails.
    """
    def flags():
        return _vanishing_flags(fn(*sample), floor, sign_rule)

    def in_order():
        signs = set()
        for n in range(len(sample[0])):
            v = fn(*(float(c[n]) for c in sample))
            signs.add(math.copysign(1.0, v))
            if abs(v) <= element(floor, n) or (sign_rule and len(signs) > 1):
                return n, "zero" if abs(v) <= element(floor, n) else "sign"

    return in_order() if ex.batched(lambda: flags().any(), lambda: True) else None


# The grid certificates' flag formulas, each along the last axis: build_scalar_fields runs them on the
# rows of k axes, first_vanishing on its sample.


def _vanishing_flags(v, floor, sign_rule):
    """|v| at or below floor, or, under the sign rule, a sign other than the first element's."""
    return (np.abs(v) <= floor) | (sign_rule & (np.copysign(1.0, v) != np.copysign(1.0, v[..., :1])))


def _primitive_flags(up, down, steps, phival):
    """psi' = phi off by more than 1e-6 relative; psi' is central_difference's quotient of psi at x + h and x - h."""
    dpsi = (up - down) / (2.0 * steps)
    return np.abs(dpsi - phival) > 1e-6 * np.maximum(1.0, np.abs(phival))


def _monotone(on_grid):
    """psi strictly monotone along the grid: a bool, or one per row."""
    diffs = np.diff(on_grid)
    return np.all(diffs > 0.0, axis=-1) | np.all(diffs < 0.0, axis=-1)


def _round_trip_flags(back, grid):
    """zeta(psi(x)) farther than 1e-9 relative from x."""
    return np.abs(back - grid) > 1e-9 * np.maximum(1.0, np.abs(grid))


def _grid(lo, hi):
    """(grid, stencil centres, steps) of the certificates on [lo, hi], the psi' = phi stencil inside it.

    lo and hi are floats, or arrays of k bounds for the rows of (k, _GRID) arrays; each row is
    bit-identical to the arrays of its own bounds.
    """
    grid = np.linspace(lo, hi, _GRID, axis=-1)
    if isinstance(lo, np.ndarray):  # the bounds as columns
        lo, hi = lo[:, None], hi[:, None]
    width = hi - lo
    xs = lo + width * (np.arange(_GRID) + 0.5) / _GRID
    return grid, xs, np.minimum(fd_step(xs), 0.49 * np.minimum(xs - lo, hi - xs) + 1e-300)


def _keep_psi_range(fld: ScalarField1D, grid, on_grid) -> None:
    """Sets fld's psi_range from psi on its grid, which np.linspace ends at lo and hi exactly.

    It starts a lo of -0.0 at 0.0, though: then psi_range is left to its first use.
    """
    if float(grid[0]).hex() == fld.interval[0].hex():
        a, b = float(on_grid[0]), float(on_grid[-1])
        object.__setattr__(fld, "_psi_range", (a, b) if a <= b else (b, a))


def psi_values(fld: ScalarField1D, u: np.ndarray) -> np.ndarray:
    """psi on the array u, per point where that faults, so the first fault raises DomainEvalError."""
    return ex.batched(lambda: fld.psi_fn(u), lambda: np.array([fld.psi_fn(v) for v in u.tolist()]))


def build_scalar_field(
    phi: ex.Expr,
    psi: ex.Expr,
    zeta: ex.Expr | None,
    interval: tuple[float, float],
) -> ScalarField1D:
    """Validate and assemble a field triple on a closed interval: build_scalar_fields of one axis.

    Checks, on a 256-point grid: phi nonvanishing, psi' = phi (central
    differences, relative 1e-6), psi strictly monotone, and zeta(psi(x)) = x
    to 1e-9 when zeta is supplied.
    """
    return build_scalar_fields(((phi, psi, zeta),), (interval,))[0]


def build_scalar_fields(axes, intervals) -> tuple[ScalarField1D, ...]:
    """The validated field of each (phi, psi, zeta) triple of axes on its interval, validated together.

    One array pass per callable kind covers every axis: one register plan of the phi trees, one of the
    psi trees and one of the zeta trees, each tree's u renamed to its axis's variable, runs on the rows
    of (k, 256) grids, and the certificates flag the (k, N) values.  Where anything is off, a failed
    check or certificate, a fault, or a tree too deep for a plan, the call is its reference, the
    per-point checks of each axis in order, so every error and the first failing axis are the
    per-axis ones (docs/decisions.md, D18).
    """
    axes, intervals = tuple(axes), tuple(intervals)
    fields = ex.batched(lambda: _joint_fields(axes, intervals), lambda: None) if axes else ()
    if fields is None:
        return tuple(_checked_field(phi, psi, zeta, iv) for (phi, psi, zeta), iv in zip(axes, intervals))
    return fields


def _checked_field(phi, psi, zeta, interval) -> ScalarField1D:
    """build_scalar_fields' reference for one axis: the grid checks point by point, the first failure raised."""
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite bounds
        raise FieldValidationError(f"bad interval [{lo}, {hi}]: need lo < hi with finite bounds and width")
    for name, e in (("phi", phi), ("psi", psi)) + ((("zeta", zeta),) if zeta is not None else ()):
        extra = ex.free_vars(e) - {"u"}
        if extra:
            raise FieldValidationError(f"{name} may only use the variable u, found {sorted(extra)}")

    fld = ScalarField1D(phi, psi, zeta, (lo, hi))
    grid, xs, _ = _grid(lo, hi)
    fails = "phi must be nonvanishing on the interval: "

    def phi_at(u):
        try:
            return fld.phi_fn(u)
        except DomainEvalError as exc:
            raise FieldValidationError(f"{fails}evaluation failed: {exc} (u = {u})") from None

    failure = first_vanishing(phi_at, (grid,), ZERO_FLOOR, True)
    if failure is not None:
        u = float(grid[failure[0]])
        if failure[1] == "zero":
            raise FieldValidationError(f"{fails}|f| = {abs(fld.phi_fn(u)):.3e} at sample (u = {u})")
        raise FieldValidationError(f"{fails}sign change between adjacent samples (u = {u})")

    # psi' = phi on interior points; the stencil must stay inside the
    # interval, where the expressions are guaranteed to be defined
    for x in xs.tolist():
        h = min(fd_step(x), 0.49 * min(x - lo, hi - x) + 1e-300)
        if h <= 0.0:
            continue
        try:
            dpsi = central_difference(fld.psi_fn, (x,), 0, h)
            phival = fld.phi_fn(x)
        except DomainEvalError as exc:
            raise FieldValidationError(f"evaluation failed during psi'=phi check at u={x}: {exc}") from None
        if abs(dpsi - phival) > 1e-6 * max(1.0, abs(phival)):
            raise FieldValidationError(
                f"psi is not a primitive of phi: psi'({x}) = {dpsi!r} but phi({x}) = {phival!r}"
            )

    on_grid = np.array([fld.psi_fn(x) for x in grid.tolist()])
    if not _monotone(on_grid):
        raise FieldValidationError("psi is not strictly monotone on the sampled grid")

    if zeta is not None:
        for x in grid.tolist():
            try:
                back = fld.zeta_fn(fld.psi_fn(x))
            except DomainEvalError as exc:
                raise FieldValidationError(f"zeta round-trip failed to evaluate at u={x}: {exc}") from None
            if abs(back - x) > 1e-9 * max(1.0, abs(x)):
                raise FieldValidationError(f"zeta(psi({x})) = {back!r}, not the identity")
    _keep_psi_range(fld, grid, on_grid)
    return fld


def _joint_fields(axes, intervals):
    """build_scalar_fields' pass over all axes: the fields where every check passes, else None."""
    lo, hi = (np.array([float(iv[e]) for iv in intervals]) for e in (0, 1))
    # the reference's interval check; np.linspace gives each row the 1-D call's grid unless a step is 0
    if not (np.all(lo < hi) and np.isfinite(hi - lo).all() and np.all((hi - lo) / (_GRID - 1) > 0.0)):
        return None
    # compile_expr raises UnboundVariableError for a variable other than u: the free-variable check
    fields = [ScalarField1D(phi, psi, zeta, iv) for (phi, psi, zeta), iv in zip(axes, zip(lo.tolist(), hi.tolist()))]
    grid, xs, steps = _grid(lo, hi)
    if not (steps > 0.0).all():  # the reference drops a stencil point without room
        return None
    names = tuple(f"x{n + 1}" for n in range(len(fields)))
    zs = [n for n, fld in enumerate(fields) if fld.zeta is not None]

    def rows(kind, ns, args):  # one plan of axes ns's trees of a kind, run on their rows of args
        trees = tuple(ex.substitute(getattr(fields[n], kind), "u", ex.Var(names[n])) for n in ns)
        plan = plan_kernel(trees, (), tuple(names[n] for n in ns))
        return None if plan is None else np.array(plan.batch(*args))

    every = range(len(fields))
    phis = rows("phi", every, np.concatenate([grid, xs], axis=1))
    psis = rows("psi", every, np.concatenate([grid, xs + steps, xs - steps], axis=1))
    if phis is None or psis is None:
        return None
    on_grid = psis[:, :_GRID]
    if (_vanishing_flags(phis[:, :_GRID], ZERO_FLOOR, True).any()
            or _primitive_flags(*np.split(psis[:, _GRID:], 2, axis=1), steps, phis[:, _GRID:]).any()
            or not _monotone(on_grid).all()):
        return None
    if zs:
        zetas = rows("zeta", zs, on_grid[zs])
        if zetas is None or _round_trip_flags(zetas, grid[zs]).any():
            return None
    for fld, g, p in zip(fields, grid, on_grid):
        _keep_psi_range(fld, g, p)
    return tuple(fields)


def clip(v, lo: float, hi: float):
    """min(max(v, lo), hi); elementwise, with the same pick on ties, for an array."""
    if isinstance(v, np.ndarray):
        v = np.where(lo > v, lo, v)
        return np.where(hi < v, hi, v)
    return min(max(v, lo), hi)


def psi_inverse(fld: ScalarField1D, target):
    """Solve psi(x) = target on the field's interval.

    Uses zeta when available (polished by the root-finder if its residual
    is above tolerance), otherwise a bisection-safeguarded secant search;
    monotonicity of psi guarantees the bracket.  target may be an array:
    zeta, its residual test and the root-finder on the elements zeta
    misses (all of them without zeta, in lockstep) then run on arrays
    through expr.batched, whose replay solves the elements one by one, so
    every element equals the scalar solve and an error is the first
    element's.
    """
    if isinstance(target, np.ndarray):
        return ex.batched(lambda: _solve(fld, target), lambda: np.array([_solve(fld, v) for v in target.tolist()]))
    return _solve(fld, target)


def _solve(fld: ScalarField1D, target):
    """psi_inverse of a float, or of an array, whose psi and zeta calls run their register plans (a fault raises)."""
    lo, hi = fld.interval
    rlo, rhi = fld.psi_range()
    batch = isinstance(target, np.ndarray)
    tol = 1e-12 * (np.maximum(1.0, np.abs(target)) if batch else max(1.0, abs(target)))
    bad = first_flagged((target < rlo - tol) | (target > rhi + tol))
    if bad is not None:
        raise OutOfRangeError(f"target {element(target, bad)!r} outside psi range [{rlo!r}, {rhi!r}]")
    target = clip(target, rlo, rhi)

    if not batch:
        if fld.zeta_fn is not None:
            x = clip(fld.zeta_fn(target), lo, hi)
            if abs(fld.psi_fn(x) - target) <= tol:
                return x
            # fall through and let the root-finder polish a sloppy zeta
        return _bracketed_solve(fld.psi_fn, lo, hi, target, tol)

    if fld.zeta_fn is None:
        return _lockstep_solve(fld.psi_fn, lo, hi, target, tol)
    x = clip(fld.zeta_fn(target), lo, hi)
    polish = ~(np.abs(fld.psi_fn(x) - target) <= tol)
    if polish.any():
        x[polish] = _lockstep_solve(fld.psi_fn, lo, hi, target[polish], tol[polish])
    return x


def _bracketed_solve(psi, lo: float, hi: float, target: float, tol: float) -> float:
    a, b = lo, hi
    fa = psi(a) - target
    fb = psi(b) - target
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise OutOfRangeError(f"target {target!r} not bracketed by psi on [{lo}, {hi}]")
    x_prev, f_prev = a, fa
    x_cur, f_cur = b, fb
    for _ in range(_MAX_SOLVE_ITER):
        # secant proposal, bisection fallback when it leaves the bracket
        denom = f_cur - f_prev
        if denom != 0.0:
            x_new = x_cur - f_cur * (x_cur - x_prev) / denom
        else:
            x_new = 0.5 * (a + b)
        if not (min(a, b) < x_new < max(a, b)):
            x_new = 0.5 * (a + b)
        f_new = psi(x_new) - target
        if abs(f_new) <= tol:
            return x_new
        if math.copysign(1.0, f_new) == math.copysign(1.0, fa):
            a, fa = x_new, f_new
        else:
            b, fb = x_new, f_new
        x_prev, f_prev = x_cur, f_cur
        x_cur, f_cur = x_new, f_new
        if abs(b - a) <= _EPS * max(1.0, abs(a) + abs(b)):
            break
    x_best = min((a, b), key=lambda t: abs(psi(t) - target))
    if abs(psi(x_best) - target) <= max(tol, 4.0 * _EPS * max(1.0, abs(target))):
        return x_best
    raise OutOfRangeError(f"root-finder failed to reach tolerance for target {target!r}")


def _lockstep_solve(psi, lo: float, hi: float, target: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """_bracketed_solve of each element of target with its tol, all elements in step.

    Each element takes the scalar solve's IEEE operations in its order, with
    masks for its branches: the secant step only where its denominator is
    nonzero, so no division runs that the scalar solve skips.  An element
    leaves where the scalar solve returns or breaks; one psi call on arrays
    per step.  The first element whose scalar solve raises raises its
    OutOfRangeError here; a fault in psi faults the call.
    """
    ends = psi(np.array([lo, hi]))
    fa, fb = ends[0] - target, ends[1] - target
    out = np.where(fa == 0.0, lo, hi)
    live = (fa != 0.0) & (fb != 0.0)
    unbracketed = live & (np.copysign(1.0, fa) == np.copysign(1.0, fb))
    n = np.flatnonzero(live & ~unbracketed)
    a, b, fa, fb, t, s = np.full(n.size, lo), np.full(n.size, hi), fa[n], fb[n], target[n], tol[n]
    x_prev, f_prev, x_cur, f_cur = a, fa, b, fb
    ended = []  # (indices, a, b) of the elements that leave the loop without a return
    for _ in range(_MAX_SOLVE_ITER):
        if not n.size:
            break
        mid = 0.5 * (a + b)
        denom = f_cur - f_prev
        secant = denom != 0.0
        x_new = np.where(secant, x_cur - np.divide(f_cur * (x_cur - x_prev), denom, where=secant, out=mid.copy()), mid)
        x_new = np.where((np.minimum(a, b) < x_new) & (x_new < np.maximum(a, b)), x_new, mid)
        f_new = psi(x_new) - t
        done = np.abs(f_new) <= s
        left = np.copysign(1.0, f_new) == np.copysign(1.0, fa)
        a, fa = np.where(left, x_new, a), np.where(left, f_new, fa)
        b, fb = np.where(left, b, x_new), np.where(left, fb, f_new)
        x_prev, f_prev, x_cur, f_cur = x_cur, f_cur, x_new, f_new
        narrow = ~done & (np.abs(b - a) <= _EPS * np.maximum(1.0, np.abs(a) + np.abs(b)))
        keep = ~(done | narrow)
        if not keep.all():
            out[n[done]] = x_new[done]
            ended.append((n[narrow], a[narrow], b[narrow]))
            n, a, b, fa, fb, t, s = n[keep], a[keep], b[keep], fa[keep], fb[keep], t[keep], s[keep]
            x_prev, f_prev, x_cur, f_cur = x_prev[keep], f_prev[keep], x_cur[keep], f_cur[keep]
    ended.append((n, a, b))
    n, a, b = (np.concatenate(v) for v in zip(*ended))
    missed = np.zeros(target.shape, dtype=bool)
    if n.size:  # the better end, as min((a, b), key=...) picks it: a on a tie
        t = target[n]
        r_a, r_b = np.split(np.abs(psi(np.concatenate([a, b])) - np.concatenate([t, t])), 2)
        to_b = r_b < r_a
        out[n] = np.where(to_b, b, a)
        missed[n] = ~(np.where(to_b, r_b, r_a) <= np.maximum(tol[n], 4.0 * _EPS * np.maximum(1.0, np.abs(t))))
    first = first_flagged(unbracketed | missed)
    if first is not None:
        v = float(target[first])
        if unbracketed[first]:
            raise OutOfRangeError(f"target {v!r} not bracketed by psi on [{lo}, {hi}]")
        raise OutOfRangeError(f"root-finder failed to reach tolerance for target {v!r}")
    return out


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned box with an optional nonvanishing predicate.

    A point belongs to the domain when it lies in the box (inclusive) and
    |predicate| exceeds ZERO_FLOOR; the predicate expresses open conditions a
    box cannot, such as pairwise-distinct coordinates.
    """

    intervals: tuple[tuple[float, float], tuple[float, float], tuple[float, float]]
    predicate: ex.Expr | None = None
    predicate_fn: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.intervals) != 3 or not all(lo < hi and math.isfinite(hi - lo) for lo, hi in self.intervals):
            raise ValueError(f"need three intervals lo < hi with finite bounds and width, got {self.intervals!r}")
        fn = ex.compile_expr(self.predicate, _XS) if self.predicate is not None else None
        object.__setattr__(self, "predicate_fn", fn)

    def contains(self, x) -> bool:
        for v, (lo, hi) in zip(x, self.intervals):
            if not (lo <= v <= hi):
                return False
        if self.predicate_fn is not None:
            try:
                p = self.predicate_fn(float(x[0]), float(x[1]), float(x[2]))
            except DomainEvalError:
                return False
            if abs(p) <= ZERO_FLOOR:
                return False
        return True

    def _points(self, us: np.ndarray) -> np.ndarray:
        """Rows of unit uniforms mapped onto the box: an (n, 3) view of coordinate columns."""
        return np.array([lo + (hi - lo) * u for u, (lo, hi) in zip(us.T, self.intervals)]).T

    def point_for_index(self, seed: int, index: int) -> np.ndarray:
        return self._points(unit_uniforms(seed, [index], 3))[0]

    def first_outside(self, x):
        """first_flagged of "not contained": None when every point of x lies in the domain.

        x is a point, or three coordinate arrays; a (3, n) array of them is not copied.
        """
        if isinstance(x[0], np.ndarray):
            return first_flagged(~self.admissible(np.asarray(x).T))
        return None if self.contains(x) else ()

    def admissible(self, xs: np.ndarray) -> np.ndarray:
        """contains() of every row of xs, (n, 3) rows or a view of coordinate columns, the predicate on arrays:
        on whole columns when every row lies in the box, else on the rows inside, gathered; per row where that faults.
        """
        ok = np.ones(len(xs), dtype=bool)
        for a, (lo, hi) in enumerate(self.intervals):
            ok &= (lo <= xs[:, a]) & (xs[:, a] <= hi)
        if self.predicate_fn is None:
            return ok
        inside = slice(None) if ok.all() else np.flatnonzero(ok)

        def on_arrays():
            ok[inside] = np.abs(self.predicate_fn(*(xs[inside, a] for a in range(3)))) > ZERO_FLOOR
            return ok

        return ex.batched(on_arrays, lambda: np.array([self.contains(x) for x in xs], dtype=bool))

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n admissible points, derived deterministically from (seed, index): draw's (n, 3) view of columns."""
        return self.draw(n, seed)[0]

    def draw(self, n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
        """The first n admissible points in index order and the index each was drawn at.

        The points are an (n, 3) view of three contiguous coordinate columns (D20).  Indices are
        drawn in chunks, at most _MAX_DRAW_FACTOR * n of them.
        """
        if n < 1:
            raise ValueError("need n >= 1 samples")
        budget = _MAX_DRAW_FACTOR * n
        chunks, drawn, got, start = [], [], 0, 0
        while got < n and start < budget:
            indices = np.arange(start, start + min(budget - start, _SAMPLE_CHUNK, max(n - got, _MIN_CHUNK)))
            start += len(indices)
            cols = self._points(unit_uniforms(seed, indices, 3)).T
            keep = self.admissible(cols.T)
            if not keep.all():
                cols, indices = np.compress(keep, cols, axis=1), indices[keep]  # rows stay contiguous
            chunks.append(cols)
            drawn.append(indices)
            got += len(indices)
        if got < n:
            raise DomainSamplingError(f"only {got} of {n} admissible points in {budget} draws")
        if len(chunks) > 1:
            chunks, drawn = [np.concatenate(chunks, axis=1)], [np.concatenate(drawn)]
        return chunks[0][:, :n].T, drawn[0][:n]


def sample_prefix(draws, n: int) -> bool:
    """Whether the first n points of a draw, given its indices, are sample(n, seed)'s at the same seed.

    They are when the n-th was drawn within sample(n, seed)'s budget of indices.
    """
    return 1 <= n <= len(draws) and draws[n - 1] < _MAX_DRAW_FACTOR * n
