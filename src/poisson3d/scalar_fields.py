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

_EPS = float(np.finfo(float).eps)
_EPS3 = _EPS ** (1.0 / 3.0)
_GRID = 256
# sampled nonvanishing certificates treat magnitudes at or below this as zero
ZERO_FLOOR = 1e-12
_MAX_SOLVE_ITER = 80
_MAX_DRAW_FACTOR = 100  # DomainBox.sample draws at most this many candidates per point
_MIN_CHUNK, _SAMPLE_CHUNK = 64, 1 << 16  # bounds on the indices DomainBox.sample draws at once


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


def _compiled(obj, what: str):
    if isinstance(obj, ex.Expr):
        return ex.compile_expr(obj, _XS)
    if callable(obj):
        return obj
    raise TypeError(f"{what} must be an expression or a callable, got {type(obj)!r}")


class Field3:
    """A scalar function of (x1, x2, x3) and the one place its partials are decided.

    f is an expression or a callable f(x1, x2, x3); partials, when given, is
    a (d/dx1, d/dx2, d/dx3) triple of expressions, callables or None.  Under
    the "analytic" scheme a supplied partial wins for its axis, and the
    expression's partial is differentiated symbolically on first use and
    cached.  "fd" takes central differences of the value; "auto" is
    "analytic" when symbolic() holds and "fd" otherwise.

    value and partial() also take coordinate arrays when batchable() holds;
    the expr.compile_expr callables then run their batch binding.
    """

    def __init__(self, f, partials=None):
        self.value = _compiled(f, "f")
        self.expr = f if isinstance(f, ex.Expr) else None
        self._supplied = tuple(partials or (None, None, None))
        self._partials = [
            None if p is None else _compiled(p, f"partial d/dx{axis}")
            for axis, p in zip((1, 2, 3), self._supplied)
        ]

    def symbolic(self) -> bool:
        return self.expr is not None or None not in self._partials

    def batchable(self) -> bool:
        """True when the value and every supplied partial are expressions."""
        return self.expr is not None and all(p is None or isinstance(p, ex.Expr) for p in self._supplied)

    def partial(self, axis: int, x1, x2, x3, scheme: str = "auto"):
        """d f / d x_axis (axis 1, 2 or 3) at a point, or at arrays of points."""
        if scheme == "fd" or (scheme == "auto" and not self.symbolic()):
            return central_difference(self.value, (x1, x2, x3), axis - 1)
        if scheme not in ("analytic", "auto"):
            raise ValueError(f"scheme must be analytic, fd or auto, got {scheme!r}")
        fn = self._partials[axis - 1]
        if fn is None:
            fn = self._partials[axis - 1] = ex.compile_expr(self.partial_expr(axis), _XS)
        return fn(x1, x2, x3)

    def partial_expr(self, axis: int):
        """The analytic partial along x_axis as partial() takes it: the supplied one, else the symbolic one."""
        supplied = self._supplied[axis - 1]
        if supplied is not None:
            return supplied
        if self.expr is None:
            raise ValueError(f"no expression or supplied partial along x{axis}")
        return ex.differentiate(self.expr, f"x{axis}")

    def gradient(self, x1: float, x2: float, x3: float, scheme: str = "auto") -> tuple[float, float, float]:
        return tuple(self.partial(axis, x1, x2, x3, scheme) for axis in (1, 2, 3))


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


def _mix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer over a uint64 array; the arithmetic wraps mod 2^64."""
    z = z + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def unit_uniforms(seed: int, indices, count: int) -> np.ndarray:
    """Row r holds count uniforms in [0, 1) derived from (seed, indices[r]).

    Steele, Lea and Flood's splitmix64 (OOPSLA 2014), keyed by seed and index.
    """
    index = np.asarray(indices, dtype=np.uint64).reshape(-1)
    state = _mix64(np.uint64(seed & _M64) ^ _mix64(index))
    out = np.empty((index.size, count))
    for c in range(count):
        state = _mix64(state)
        out[:, c] = (state >> np.uint64(11)).astype(np.float64) / float(1 << 53)
    return out


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
        v = fn(*sample)
        return (np.abs(v) <= floor) | (sign_rule & (np.copysign(1.0, v) != np.copysign(1.0, v[:1])))

    def in_order():
        signs = set()
        for n in range(len(sample[0])):
            v = fn(*(float(c[n]) for c in sample))
            signs.add(math.copysign(1.0, v))
            if abs(v) <= element(floor, n) or (sign_rule and len(signs) > 1):
                return n, "zero" if abs(v) <= element(floor, n) else "sign"

    return batch_certificate(flags, in_order)


def batch_certificate(flags, per_point):
    """A sampled certificate: flags() on arrays, per_point() where that faults or flags a sample.

    flags runs under expr.batch_arithmetic and returns a boolean array.
    The per-point loop then names the first failing sample, as its result
    or as the error it raises on its own; None when no sample is flagged.
    """
    try:
        with ex.batch_arithmetic():
            if not flags().any():
                return None
    except ex.BatchFault:
        pass
    return per_point()


def build_scalar_field(
    phi: ex.Expr,
    psi: ex.Expr,
    zeta: ex.Expr | None,
    interval: tuple[float, float],
) -> ScalarField1D:
    """Validate and assemble a field triple on a closed interval.

    Checks, on a 256-point grid: phi nonvanishing, psi' = phi (central
    differences, relative 1e-6), psi strictly monotone, and zeta(psi(x)) = x
    to 1e-9 when zeta is supplied.  Each check runs on arrays through the
    field's callables, bit-identical to its per-point loop, which runs
    only where the arrays fault or flag a point.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not (lo < hi and math.isfinite(hi - lo)):  # a finite width needs finite bounds
        raise FieldValidationError(f"bad interval [{lo}, {hi}]: need lo < hi with finite bounds and width")
    for name, e in (("phi", phi), ("psi", psi)) + ((("zeta", zeta),) if zeta is not None else ()):
        extra = ex.free_vars(e) - {"u"}
        if extra:
            raise FieldValidationError(f"{name} may only use the variable u, found {sorted(extra)}")

    fld = ScalarField1D(phi, psi, zeta, (lo, hi))
    grid = np.linspace(lo, hi, _GRID)

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
    width = hi - lo
    xs = lo + width * (np.arange(_GRID) + 0.5) / _GRID
    steps = np.minimum(fd_step(xs), 0.49 * np.minimum(xs - lo, hi - xs) + 1e-300)

    def primitive_flags():
        x, h = xs[steps > 0.0], steps[steps > 0.0]
        dpsi = central_difference(fld.psi_fn, (x,), 0, h)
        phival = fld.phi_fn(x)
        return np.abs(dpsi - phival) > 1e-6 * np.maximum(1.0, np.abs(phival))

    def primitive_loop():
        for x in xs:
            x = float(x)
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

    batch_certificate(primitive_flags, primitive_loop)

    try:
        psis = fld.psi_fn(grid)
    except ex.BatchFault:
        psis = np.array([fld.psi_fn(float(x)) for x in grid])
    diffs = np.diff(psis)
    if not (np.all(diffs > 0.0) or np.all(diffs < 0.0)):
        raise FieldValidationError("psi is not strictly monotone on the sampled grid")

    def zeta_loop():
        for x in grid:
            x = float(x)
            try:
                back = fld.zeta_fn(fld.psi_fn(x))
            except DomainEvalError as exc:
                raise FieldValidationError(f"zeta round-trip failed to evaluate at u={x}: {exc}") from None
            if abs(back - x) > 1e-9 * max(1.0, abs(x)):
                raise FieldValidationError(f"zeta(psi({x})) = {back!r}, not the identity")

    if fld.zeta is not None:
        batch_certificate(lambda: np.abs(fld.zeta_fn(psis) - grid) > 1e-9 * np.maximum(1.0, np.abs(grid)), zeta_loop)

    return fld


def _clip(v, lo: float, hi: float):
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
    zeta and its residual test then run on arrays (which raise
    expr.BatchFault on any fault), only the elements they miss (all
    of them without zeta) take the root-finder, one at a time, and every
    element equals the scalar solve.  An out-of-range error names the first
    such element.
    """
    lo, hi = fld.interval
    rlo, rhi = fld.psi_range()
    batch = isinstance(target, np.ndarray)
    tol = 1e-12 * (np.maximum(1.0, np.abs(target)) if batch else max(1.0, abs(target)))
    bad = first_flagged((target < rlo - tol) | (target > rhi + tol))
    if bad is not None:
        raise OutOfRangeError(f"target {element(target, bad)!r} outside psi range [{rlo!r}, {rhi!r}]")
    target = _clip(target, rlo, rhi)

    if not batch:
        if fld.zeta_fn is not None:
            x = _clip(fld.zeta_fn(target), lo, hi)
            if abs(fld.psi_fn(x) - target) <= tol:
                return x
            # fall through and let the root-finder polish a sloppy zeta
        return _bracketed_solve(fld.psi_fn, lo, hi, target, tol)

    x, polish = np.empty_like(target), np.ones(target.shape, dtype=bool)
    if fld.zeta_fn is not None:
        x = _clip(fld.zeta_fn(target), lo, hi)
        polish = ~(np.abs(fld.psi_fn(x) - target) <= tol)
    for n in np.flatnonzero(polish):
        x[n] = _bracketed_solve(fld.psi_fn, lo, hi, float(target[n]), float(tol[n]))
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
        """Rows of unit uniforms mapped onto the box."""
        return np.column_stack([lo + (hi - lo) * us[:, a] for a, (lo, hi) in enumerate(self.intervals)])

    def point_for_index(self, seed: int, index: int) -> np.ndarray:
        return self._points(unit_uniforms(seed, [index], 3))[0]

    def first_outside(self, x):
        """first_flagged of "not contained": None when every point of x lies in the domain.

        x is a point, or three coordinate arrays.
        """
        if isinstance(x[0], np.ndarray):
            return first_flagged(~self.admissible(np.column_stack(x)))
        return None if self.contains(x) else ()

    def admissible(self, xs: np.ndarray) -> np.ndarray:
        """contains() of every row, the predicate on arrays; per row where that faults."""
        ok = np.ones(len(xs), dtype=bool)
        for a, (lo, hi) in enumerate(self.intervals):
            ok &= (lo <= xs[:, a]) & (xs[:, a] <= hi)
        if self.predicate_fn is not None:
            inside = np.flatnonzero(ok)
            try:
                p = self.predicate_fn(*(xs[inside, a] for a in range(3)))
            except ex.BatchFault:
                return np.array([self.contains(x) for x in xs], dtype=bool)
            ok[inside] = np.abs(p) > ZERO_FLOOR
        return ok

    def sample(self, n: int, seed: int) -> np.ndarray:
        """n admissible points, derived deterministically from (seed, index).

        The points are the first n admissible ones in index order, drawn in
        chunks of indices.
        """
        if n < 1:
            raise ValueError("need n >= 1 samples")
        budget = _MAX_DRAW_FACTOR * n
        chunks, got, start = [], 0, 0
        while got < n and start < budget:
            size = min(budget - start, _SAMPLE_CHUNK, max(n - got, _MIN_CHUNK))
            xs = self._points(unit_uniforms(seed, np.arange(start, start + size), 3))
            xs = xs[self.admissible(xs)]
            chunks.append(xs)
            got += len(xs)
            start += size
        if got < n:
            raise DomainSamplingError(f"only {got} of {n} admissible points in {budget} draws")
        return np.concatenate(chunks)[:n]
