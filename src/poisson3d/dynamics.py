"""Poisson dynamics: dx/dt = J(x) grad H(x), plus the reduced 1-DOF form.

Fixed-step explicit integrators only (classical 4th-order and explicit
midpoint), so invariant-drift behaves like a clean power of the step.
Every trajectory carries the Hamiltonian and a Casimir alongside the
states.  In Darboux coordinates the dynamics reduces to one conjugate
pair at constant Casimir coordinate, evolving in the reparametrized time
tau; the original clock is recovered by accumulating dt = dtau / factor
with the trapezoid rule.  A negative factor is legal and simply runs t
backwards relative to tau.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr as ex
from .casimir import casimir_expr, casimir_value, cyclic, default_casimir_index, denominator_threshold
from .darboux import DarbouxChart, inverse_map, inverse_target, reparam_factor_from
from .errors import (
    DomainEvalError,
    DomainExitError,
    DomainMembershipError,
    HypothesisViolationError,
    OutOfRangeError,
    ReparametrizationBreakdownError,
    UndefinedAtPointError,
)
from .family import PoissonFamilySpec, axis_exprs, structure_entries, structure_matrix_at
from .scalar_fields import Field3

METHODS = ("rk4", "midpoint")
MAX_STEPS = 10**6  # every step is kept in memory


def _step_count(span: float, step: float) -> int:
    """round(span / step), at least 1; ValueError when that is not finite or above MAX_STEPS."""
    ratio = span / step
    if not (math.isfinite(ratio) and ratio <= MAX_STEPS):
        raise ValueError(f"{span!r} / {step!r} = {ratio!r} steps; at most {MAX_STEPS} are allowed")
    return max(1, round(ratio))


def as_hamiltonian(h) -> Field3:
    return h if isinstance(h, Field3) else Field3(h)


@dataclass(frozen=True)
class Trajectory:
    """Time series with both clocks and the invariant ledger.

    coords is "x" for direct runs (t is the integration clock, tau absent)
    and "y" for reduced runs (tau is the clock, t recovered; states are
    Darboux coordinates).
    """

    t: np.ndarray
    tau: np.ndarray | None
    states: np.ndarray
    H: np.ndarray
    C: np.ndarray | None
    casimir_k: int | None
    dt: float
    method: str
    coords: str = "x"

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class DriftReport:
    max_abs_dH: float
    rel_dH: float
    max_abs_dC: float | None
    rel_dC: float | None


def invariant_drift(traj: Trajectory) -> DriftReport:
    """Worst excursion of H and the Casimir from their initial values."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    dH = float(np.max(np.abs(traj.H - traj.H[0])))
    rel_dH = dH / max(1.0, abs(float(traj.H[0])))
    if traj.C is None:
        return DriftReport(dH, rel_dH, None, None)
    dC = float(np.max(np.abs(traj.C - traj.C[0])))
    return DriftReport(dH, rel_dH, dC, dC / max(1.0, abs(float(traj.C[0]))))


def _flow(j12, j23, j31, g1, g2, g3) -> tuple:
    """J grad H from the entries and the gradient: floats, or the tree of these operations for trees."""
    return (
        j12 * g2 - j31 * g3,
        -j12 * g1 + j23 * g3,
        j31 * g1 - j23 * g2,
    )


def _j_grad_h(spec: PoissonFamilySpec, H: Field3, x1: float, x2: float, x3: float) -> tuple:
    J = structure_matrix_at(spec, (x1, x2, x3), check_domain=False)
    return _flow(*J.entries(), *H.gradient(x1, x2, x3))


# ---------------------------------------------------------------------------
# Job kernels (docs/decisions.md, D6): one compiled function per integrator
# job, over the trees of the per-expression path's own operations.  The
# per-expression path runs where there is no kernel, and replays every call
# on which a kernel raises, so values and errors are the same either way.


def _with_replay(kernel, replay):
    """run(args): kernel(*args) where that returns, else replay(*args); replay alone without a kernel."""

    def run(args):
        if kernel is not None:
            try:
                return kernel(*args)
            except Exception:
                pass
        return replay(*args)

    return run


def _rhs_kernel(spec: PoissonFamilySpec, H: Field3):
    """J grad H at (x1, x2, x3); checks each psi, phi, eta factor and grad H value, as their callables do."""
    if not H.batchable():
        return None
    psis, phis = axis_exprs(spec)
    grad = tuple(H.partial_expr(axis) for axis in (1, 2, 3))
    entries = structure_entries(spec.kappa.triple, psis, phis, spec.eta_chain)
    return ex.compile_kernel(_flow(*entries, *grad), (*psis, *phis, *spec.eta_chain, *grad))


def _ledger_kernel(spec: PoissonFamilySpec, H: Field3, casimir_k: int | None):
    """(H,), or (H, C_k), at (x1, x2, x3); checks H and each psi, and raises BatchFault below the C_k guard."""
    if H.expr is None:
        return None
    if casimir_k is None:
        return ex.compile_kernel((H.expr,), (H.expr,))
    i, j, _ = cyclic(casimir_k)
    psis, _ = axis_exprs(spec)
    c_k = casimir_expr(spec, casimir_k)  # c_k.right is its denominator chi_ij
    kernel = ex.compile_kernel((H.expr, c_k, c_k.right, psis[i - 1], psis[j - 1]), (H.expr, *psis))

    def ledger(*x):
        h, c, denom, psi_i, psi_j = kernel(*x)
        if abs(denom) <= denominator_threshold(psi_i, psi_j):
            raise ex.BatchFault("Casimir denominator below its guard")
        return h, c

    return ledger


def hamiltonian_vector_field(spec: PoissonFamilySpec, h, x, check_domain: bool = True) -> np.ndarray:
    """J(x) grad H(x)."""
    H = as_hamiltonian(h)
    if check_domain and not spec.domain.contains(x):
        raise DomainMembershipError(f"point {tuple(float(v) for v in x)} is outside the domain")
    return np.array(_j_grad_h(spec, H, *(float(v) for v in x)))


def _stepper(method: str, rhs, dt: float):
    if method == "rk4":

        def step(state):
            k1 = rhs(state)
            k2 = rhs([s + 0.5 * dt * k for s, k in zip(state, k1)])
            k3 = rhs([s + 0.5 * dt * k for s, k in zip(state, k2)])
            k4 = rhs([s + dt * k for s, k in zip(state, k3)])
            return [
                s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d)
                for s, a, b, c, d in zip(state, k1, k2, k3, k4)
            ]

    elif method == "midpoint":

        def step(state):
            k1 = rhs(state)
            k2 = rhs([s + 0.5 * dt * k for s, k in zip(state, k1)])
            return [s + dt * k for s, k in zip(state, k2)]

    else:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    return step


def integrate(
    spec: PoissonFamilySpec,
    h,
    x0,
    t_end: float,
    dt: float,
    method: str = "rk4",
    casimir_k: int | None | str = "auto",
) -> Trajectory:
    """Fixed-step integration with per-sample H and Casimir recording.

    dt is snapped to divide t_end into uniform steps.  The run aborts with
    DomainExitError (carrying the partial trajectory) as soon as a step
    lands outside the domain or a stage evaluation leaves it.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt!r}")
    if t_end <= 0.0:
        raise ValueError(f"t_end must be positive, got {t_end!r}")
    n_steps = _step_count(t_end, dt)
    if not spec.domain.contains(x0):
        raise DomainMembershipError(f"x0 = {tuple(float(v) for v in x0)} is outside the domain")
    H = as_hamiltonian(h)
    if casimir_k == "auto":
        casimir_k = default_casimir_index(spec)

    dt_eff = t_end / n_steps
    rhs = _with_replay(_rhs_kernel(spec, H), lambda *x: _j_grad_h(spec, H, *x))
    step = _stepper(method, rhs, dt_eff)

    def invariants(*x):
        h = H.value(*x)
        return (h,) if casimir_k is None else (h, casimir_value(spec, casimir_k, x))

    ledger = _with_replay(_ledger_kernel(spec, H, casimir_k), invariants)

    def record(state):
        ts.append(len(ts) * dt_eff)
        states.append(tuple(state))
        h, *c = ledger(state)
        hs.append(h)
        cs.extend(c)

    def partial() -> Trajectory:
        return Trajectory(
            np.array(ts),
            None,
            np.array(states),
            np.array(hs),
            np.array(cs) if casimir_k is not None else None,
            casimir_k,
            dt_eff,
            method,
        )

    ts: list[float] = []
    states: list[tuple] = []
    hs: list[float] = []
    cs: list[float] = []
    state = [float(v) for v in x0]
    record(state)
    for m in range(n_steps):
        t_now = m * dt_eff
        try:
            state = step(state)
        except (DomainEvalError, UndefinedAtPointError) as exc:
            raise DomainExitError(
                f"evaluation failed inside step at t = {t_now}: {exc}", t_now, tuple(state), partial()
            ) from None
        if not all(math.isfinite(v) for v in state):
            raise DomainExitError(
                f"non-finite state after step at t = {t_now}", t_now, tuple(state), partial()
            )
        if not spec.domain.contains(state):
            raise DomainExitError(
                f"trajectory left the domain at t = {(m + 1) * dt_eff}",
                (m + 1) * dt_eff,
                tuple(state),
                partial(),
            )
        record(state)
    return partial()


# ---------------------------------------------------------------------------
# Reduced dynamics in Darboux coordinates


def _reduced_hamiltonian(chart: DarbouxChart, H: Field3) -> Field3:
    """H(x(y)) as a field in y; symbolic when H and zeta_k are expressions."""
    i, j, k = cyclic(chart.k)
    zeta = chart.spec.field(k).zeta
    if H.expr is not None and zeta is not None:
        psis, _ = axis_exprs(chart.spec)
        xk_of_y = ex.substitute(zeta, "u", inverse_target(chart, psis[i - 1], psis[j - 1], ex.Var(f"x{k}")))
        return Field3(ex.substitute(H.expr, f"x{k}", xk_of_y))

    def value(y1, y2, y3):
        x = inverse_map(chart, (y1, y2, y3))
        return H.value(float(x[0]), float(x[1]), float(x[2]))

    return Field3(value)


def _reduced_kernel(H_y: Field3, i: int, j: int):
    """(dH_y/dy_j, -dH_y/dy_i) at (y1, y2, y3); checks both partials, as their callables do."""
    if not H_y.batchable():
        return None
    d_i, d_j = H_y.partial_expr(i), H_y.partial_expr(j)
    return ex.compile_kernel((d_j, -d_i), (d_i, d_j))


def integrate_reduced(
    chart: DarbouxChart,
    h,
    y0,
    tau_end: float,
    dtau: float,
    method: str = "rk4",
) -> Trajectory:
    """Integrate the canonical pair in tau; recover t; hold y_k fixed.

    tau_end may be negative (with a negative reparametrization factor that
    is how t is driven forward).  The factor is evaluated every step; a
    magnitude at the 1e-12 floor aborts with a breakdown error, and an
    inverse image outside the spec domain aborts with a domain exit.
    """
    if dtau <= 0.0:
        raise ValueError(f"dtau must be positive, got {dtau!r}")
    if tau_end == 0.0:
        raise ValueError("tau_end must be nonzero")
    n_steps = _step_count(abs(tau_end), dtau)
    H = as_hamiltonian(h)
    spec = chart.spec
    i, j, k = cyclic(chart.k)
    y0 = [float(v) for v in y0]
    x_start = inverse_map(chart, y0)
    if not spec.domain.contains(x_start):
        raise DomainMembershipError(
            f"y0 = {tuple(y0)} maps to {tuple(float(v) for v in x_start)} outside the domain"
        )

    dtau_eff = math.copysign(abs(tau_end) / n_steps, tau_end)
    H_y = _reduced_hamiltonian(chart, H)

    def assemble(pair) -> list[float]:
        y = [0.0, 0.0, 0.0]
        y[i - 1], y[j - 1] = pair
        y[k - 1] = y0[k - 1]
        return y

    def canonical(*y):
        gi = H_y.partial(i, *y)
        return (H_y.partial(j, *y), -gi)  # dy_i/dtau = +dH/dy_j, dy_j/dtau = -dH/dy_i

    grad = _with_replay(_reduced_kernel(H_y, i, j), canonical)
    step = _stepper(method, lambda pair: grad(assemble(pair)), dtau_eff)

    def factor_at(y, x) -> float:
        try:
            return reparam_factor_from(chart, y, x)
        except HypothesisViolationError as exc:
            raise ReparametrizationBreakdownError(str(exc), partial() if taus else None) from None

    def partial() -> Trajectory:
        return Trajectory(
            np.array(ts),
            np.array(taus),
            np.array(ys),
            np.array(hs),
            np.full(len(ts), -y0[k - 1]),
            chart.k,
            dtau_eff,
            method,
            coords="y",
        )

    taus: list[float] = []
    ts: list[float] = []
    ys: list[list[float]] = []
    hs: list[float] = []

    pair = (y0[i - 1], y0[j - 1])
    y = assemble(pair)
    g_prev = 1.0 / factor_at(y, x_start)
    taus.append(0.0)
    ts.append(0.0)
    ys.append(y)
    hs.append(H_y.value(*y))
    for m in range(n_steps):
        try:
            pair = step(pair)
        except (DomainEvalError, UndefinedAtPointError) as exc:
            raise ReparametrizationBreakdownError(
                f"reduced step failed at tau = {m * dtau_eff}: {exc}", partial()
            ) from None
        except OutOfRangeError as exc:  # a stage's x(y) lies beyond the box edge
            raise DomainExitError(
                f"reduced step left the domain at tau = {m * dtau_eff}: {exc}", m * dtau_eff, tuple(y), partial()
            ) from None
        y = assemble(pair)
        try:
            x = inverse_map(chart, y)
            g_new = 1.0 / factor_at(y, x)  # breakdown outranks domain exit
            inside = spec.domain.contains(x)
        except OutOfRangeError:  # x_k(y) lies beyond the box edge
            inside = False
        if not inside:
            raise DomainExitError(
                f"reduced trajectory left the domain at tau = {(m + 1) * dtau_eff}",
                (m + 1) * dtau_eff,
                tuple(y),
                partial(),
            )
        taus.append((m + 1) * dtau_eff)
        ts.append(ts[-1] + dtau_eff * 0.5 * (g_prev + g_new))
        ys.append(y)
        hs.append(H_y.value(*y))
        g_prev = g_new
    return partial()


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
