"""Poisson dynamics: dx/dt = J(x) grad H(x), plus the reduced 1-DOF form.

Fixed-step explicit integrators only (classical 4th-order and explicit
midpoint), so invariant-drift behaves like a clean power of the step.
Every trajectory carries the Hamiltonian and a Casimir alongside the
states.  In Darboux coordinates the dynamics reduces to one conjugate
pair at constant Casimir coordinate, evolving in the reparametrized time
tau; each row records dt/dtau = 1/factor, and the original clock is
recovered from that column by a 4th-order Adams-Moulton sum when the
trajectory is built (the trapezoid rule for a run of fewer than 4 rows).
A negative factor is legal and simply runs t backwards relative to tau.

Both integrators run on one step loop, _run, which only steps: a step's
stages run on unpacked floats, one job-kernel call each, and a step in
which the kernel raises runs again whole on the per-expression path.  What
is computed about a row and never read by the next step (the finiteness
and domain tests, the invariant ledger, the chart map and the factor) runs
as one array pass over each block of at most BLOCK rows, through the same
per-expression callables as a single row.  A fault or a flag anywhere in
a block, or a job with no array binding, replays its rows in order through
the per-row reference code, so a run ends with the error, state and
partial trajectory of the row-by-row loop, found at most one block of
steps late.  A step whose evaluation faults ends either run as a domain
exit at the last recorded row (docs/decisions.md, D9).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import expr as ex
from .casimir import casimir_value, cyclic, default_casimir_index
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

if TYPE_CHECKING:  # the reduced integrator imports darboux where it runs, so a direct run never loads it (D21)
    from .darboux import DarbouxChart

METHODS = ("rk4", "midpoint")
MAX_STEPS = 10**6  # every step is kept in memory
BLOCK = 256  # rows per bookkeeping pass: a run that ends is stepped at most this far past its end


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
    Darboux coordinates, and states_x are their images x(y), which direct
    runs leave None).
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
    states_x: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class DriftReport:
    max_abs_dH: float
    max_abs_dC: float | None


def invariant_drift(traj: Trajectory) -> DriftReport:
    """Worst excursion of H and the Casimir from their initial values."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    dH = float(np.max(np.abs(traj.H - traj.H[0])))
    return DriftReport(dH, None if traj.C is None else float(np.max(np.abs(traj.C - traj.C[0]))))


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
# right-hand side, over the trees of the per-expression path's own operations.
# The per-expression path runs where there is no kernel, and replays every step
# in which a kernel raises: values and errors stay alike.


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
    if H.expr is None:
        return None
    psis, phis = axis_exprs(spec)
    grad = tuple(H.partial_expr(axis) for axis in (1, 2, 3))
    entries = structure_entries(spec.kappa.triple, psis, phis, spec.eta_chain)
    return ex.compile_kernel(_flow(*entries, *grad), (*psis, *phis, *spec.eta_chain, *grad))


def hamiltonian_vector_field(spec: PoissonFamilySpec, h, x) -> np.ndarray:
    """J(x) grad H(x) at a point of the domain."""
    H = as_hamiltonian(h)
    if not spec.domain.contains(x):
        raise DomainMembershipError(f"point {tuple(float(v) for v in x)} is outside the domain")
    return np.array(_j_grad_h(spec, H, *(float(v) for v in x)))


def _stepper(method: str, dt: float, kernel, per_expression, y_k: float | None):
    """step(state): one step of dt on unpacked floats, each stage one call of f, the kernel where there is one.

    With y_k None it steps (x1, x2, x3) by f(x1, x2, x3), else the pair (y_i, y_j) by f(y_i, y_j, y_k),
    y_k held.  Each stage's s + 0.5 * dt * k and the update keep their operation order.  Where the kernel
    raises anywhere in a step, the whole step runs again from its state with f = per_expression (D9).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    h, w = 0.5 * dt, dt / 6.0  # the groups (0.5 * dt) * k and (dt / 6.0) * (k1 + ...) of the formulas

    def stepper(f):
        if method == "rk4" and y_k is None:
            def step(x1, x2, x3):
                a1, a2, a3 = f(x1, x2, x3)
                b1, b2, b3 = f(x1 + h * a1, x2 + h * a2, x3 + h * a3)
                c1, c2, c3 = f(x1 + h * b1, x2 + h * b2, x3 + h * b3)
                d1, d2, d3 = f(x1 + dt * c1, x2 + dt * c2, x3 + dt * c3)
                return (x1 + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1), x2 + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
                        x3 + w * (a3 + 2.0 * b3 + 2.0 * c3 + d3))
        elif method == "rk4":
            def step(p, q):
                a1, a2 = f(p, q, y_k)
                b1, b2 = f(p + h * a1, q + h * a2, y_k)
                c1, c2 = f(p + h * b1, q + h * b2, y_k)
                d1, d2 = f(p + dt * c1, q + dt * c2, y_k)
                return (p + w * (a1 + 2.0 * b1 + 2.0 * c1 + d1), q + w * (a2 + 2.0 * b2 + 2.0 * c2 + d2))
        elif y_k is None:
            def step(x1, x2, x3):
                a1, a2, a3 = f(x1, x2, x3)
                b1, b2, b3 = f(x1 + h * a1, x2 + h * a2, x3 + h * a3)
                return (x1 + dt * b1, x2 + dt * b2, x3 + dt * b3)
        else:
            def step(p, q):
                a1, a2 = f(p, q, y_k)
                b1, b2 = f(p + h * a1, q + h * a2, y_k)
                return (p + dt * b1, q + dt * b2)
        return step

    return _with_replay(None if kernel is None else stepper(kernel), stepper(per_expression))


def _run(
    step, start, n_steps: int, dt: float, first_row, block_pass, row_check, step_errors: dict, trajectory
) -> Trajectory:
    """Step n_steps times from start, one row per state; trajectory(table) of the table of rows.

    first_row is start's row.  After each block of at most BLOCK steps,
    block_pass(states) returns the block's rows as one array, through
    expr.batched; where it returns None or faults, row_check(clock, state)
    replays the states in order, each at its clock n * dt after n steps,
    and returns its row or raises the abort that ends the run.  A step's
    exception is held until the rows before it pass (docs/decisions.md,
    D9): where step_errors maps its type to a message head, the run ends in
    DomainExitError at the last row's clock and state, else it is raised as
    it is.  Every abort carries the partial trajectory of the rows recorded
    before it.
    """
    table = [np.array([first_row])]

    def partial() -> Trajectory:
        return trajectory(np.concatenate(table))

    state = start
    for m0 in range(0, n_steps, BLOCK):
        states, failure = [], None
        for m in range(m0, min(m0 + BLOCK, n_steps)):
            try:
                state = step(state)
            except Exception as exc:
                failure = exc
                break
            states.append(state)
        rows = ex.batched(lambda: block_pass(states), lambda: None) if states else None
        if rows is not None:
            table.append(rows)
        else:
            for n, row_state in enumerate(states, m0 + 1):
                try:
                    table.append(np.array([row_check(n * dt, row_state)]))
                except (DomainExitError, ReparametrizationBreakdownError) as exc:
                    exc.partial = partial()
                    raise
        if failure is not None:
            for kinds, head in step_errors.items():
                if isinstance(failure, kinds):
                    done = partial()
                    last = tuple(done.states[-1].tolist())
                    raise DomainExitError(f"{head} = {m * dt}: {failure}", m * dt, last, done)
            raise failure
    return partial()


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
    DomainExitError (carrying the partial trajectory) at the first state
    that is not finite, lies outside the domain or faults in the invariant
    ledger (H, or the Casimir's denominator guard), or at the first step
    whose stage evaluation leaves it; a ledger fault at x0 itself raises
    as it is.  States are checked and recorded a block at a time (D9): the
    error, its t and state and the partial trajectory are those of a
    step-by-step check, and at most BLOCK steps run past the abort.
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
    step = _stepper(method, dt_eff, _rhs_kernel(spec, H), lambda *x: _j_grad_h(spec, H, *x), None)

    def invariants(*x):
        """(H,), or (H, C_k), at a point or per point of three coordinate arrays."""
        h = H.value(*x)
        return (h,) if casimir_k is None else (h, casimir_value(spec, casimir_k, x))

    def row(state) -> tuple:
        return (*state, *invariants(*state))

    def check(t: float, state) -> tuple:
        """The reference checks of the state at t, then its row; its ledger's faults end the run."""
        if not all(math.isfinite(v) for v in state):
            raise DomainExitError(f"non-finite state after step at t = {t}", t, tuple(state))
        if not spec.domain.contains(state):
            raise DomainExitError(f"trajectory left the domain at t = {t}", t, tuple(state))
        try:
            return row(state)
        except (DomainEvalError, UndefinedAtPointError) as exc:
            raise DomainExitError(f"invariant ledger failed at t = {t}: {exc}", t, tuple(state)) from None

    def block_pass(states):
        """The rows (x1, x2, x3, H[, C_k]) of the states in one array pass; None on any flag, or for a callable H."""
        xs = np.array(states)
        if H.expr is None or not (np.isfinite(xs).all() and spec.domain.admissible(xs).all()):
            return None
        return np.column_stack((xs, *invariants(*xs.T)))

    def trajectory(rows) -> Trajectory:
        return Trajectory(
            np.arange(len(rows)) * dt_eff,
            None,
            rows[:, :3],
            rows[:, 3],
            rows[:, 4] if casimir_k is not None else None,
            casimir_k,
            dt_eff,
            method,
        )

    state = [float(v) for v in x0]
    step_errors = {(DomainEvalError, UndefinedAtPointError): "evaluation failed inside step at t"}
    return _run(step, state, n_steps, dt_eff, row(state), block_pass, check, step_errors, trajectory)


# ---------------------------------------------------------------------------
# Reduced dynamics in Darboux coordinates


def _reduced_hamiltonian(chart: DarbouxChart, H: Field3) -> Field3:
    """H(x(y)) as a field in y; symbolic when H and zeta_k are expressions."""
    from .darboux import inverse_map, inverse_target

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
    if H_y.expr is None:
        return None
    d_i, d_j = H_y.partial_expr(i), H_y.partial_expr(j)
    return ex.compile_kernel((d_j, -d_i), (d_i, d_j))


def _recovered_t(g: np.ndarray, dtau: float) -> np.ndarray:
    """t at every row from dt/dtau = g, t = 0 at row 0, to 4th order in dtau, summed in row order.

    Interval [n, n+1] adds the causal 4-point Adams-Moulton sum
    dtau/24 (9 g[n+1] + 19 g[n] - 5 g[n-1] + g[n-2]) for n >= 2, and the
    first two take the cubic through g[0..3], with weights (9, 19, -5, 1)
    and (-1, 13, 13, -1) over 24; so only rows 1 and 2 read later rows, up
    to row 3.  A run of fewer than 4 rows has no cubic and keeps the
    trapezoid rule, 2nd order.
    """
    if len(g) < 4:
        steps = (dtau * 0.5) * (g[:-1] + g[1:])
    else:
        head = (9.0 * g[0] + 19.0 * g[1] - 5.0 * g[2] + g[3], -g[0] + 13.0 * g[1] + 13.0 * g[2] - g[3])
        steps = (dtau / 24.0) * np.concatenate((head, 9.0 * g[3:] + 19.0 * g[2:-1] - 5.0 * g[1:-2] + g[:-3]))
    return np.cumsum(np.concatenate(([0.0], steps)))


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
    is how t is driven forward).  The factor is evaluated at every state; a
    magnitude at the 1e-12 floor, or one that is not finite, aborts with a
    breakdown error, and an inverse image outside the spec domain, or a
    fault in H(x(y)) or in a step's partials of it, aborts with a domain
    exit.  The states are mapped back to x, checked and recorded a block at
    a time (D9): the error and the partial trajectory are those of a
    step-by-step check, and at most BLOCK steps run past the abort.  t is
    recovered from dt/dtau = 1/factor to 4th order, as RK4 steps the pair;
    a trajectory, or a partial one, of fewer than 4 rows keeps the
    trapezoid rule (_recovered_t).
    """
    from .darboux import inverse_map, reparam_factor_from

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

    def pair_first(f):  # f(y1, y2, y3) as a function of (y_i, y_j, y_k); None stays None
        if k == 3 or f is None:
            return f
        return (lambda p, q, c: f(c, p, q)) if k == 1 else (lambda p, q, c: f(q, c, p))

    step = _stepper(method, dtau_eff, pair_first(_reduced_kernel(H_y, i, j)), pair_first(canonical), y0[k - 1])

    def factor_at(y, x) -> float:
        try:
            return reparam_factor_from(chart, y, x)
        except HypothesisViolationError as exc:
            raise ReparametrizationBreakdownError(str(exc)) from None

    def check(tau: float, pair) -> tuple:
        """The reference bookkeeping of the state at tau: raise where the run ends, else its row."""
        y = assemble(pair)
        try:
            x = inverse_map(chart, y)
            g = 1.0 / factor_at(y, x)  # breakdown outranks domain exit
            inside = spec.domain.contains(x)
        except OutOfRangeError:  # x_k(y) lies beyond the box edge
            inside = False
        if not inside:
            raise DomainExitError(f"reduced trajectory left the domain at tau = {tau}", tau, tuple(y))
        try:
            h = H_y.value(*y)
        except DomainEvalError as exc:
            raise DomainExitError(f"H(x(y)) failed at tau = {tau}: {exc}", tau, tuple(y)) from None
        return (g, *y, *x, h)

    def block_pass(pairs):
        """The rows (1/factor, y1, y2, y3, x1, x2, x3, H) of the states in one array pass; None on any flag.

        None also where H(x(y)) has no array binding (no zeta_k): the block then replays per row.
        """
        if H_y.expr is None:
            return None
        y = np.empty((len(pairs), 3))
        y[:, [i - 1, j - 1]] = pairs
        y[:, k - 1] = y0[k - 1]
        cols = tuple(y.T)
        x = inverse_map(chart, cols)
        g = 1.0 / reparam_factor_from(chart, cols, x)
        h = H_y.value(*cols)
        if not spec.domain.admissible(x.T).all():
            return None
        return np.column_stack((g, y, x.T, h))

    def trajectory(rows) -> Trajectory:
        """The run of the table; t recovered from its dt/dtau = 1/factor column."""
        tau = np.arange(len(rows)) * dtau_eff
        tau[0] = 0.0  # not -0.0 when tau runs backwards
        return Trajectory(
            _recovered_t(rows[:, 0], dtau_eff),
            tau,
            rows[:, 1:4],
            rows[:, 7],
            np.full(len(rows), -y0[k - 1]),
            chart.k,
            dtau_eff,
            method,
            coords="y",
            states_x=rows[:, 4:7],
        )

    pair = (y0[i - 1], y0[j - 1])
    y = assemble(pair)
    first_row = (1.0 / factor_at(y, x_start), *y, *x_start, H_y.value(*y))
    step_errors = {
        (DomainEvalError, UndefinedAtPointError): "reduced step failed at tau",
        OutOfRangeError: "reduced step left the domain at tau",  # a stage's x(y) lies beyond the box edge
    }
    return _run(step, pair, n_steps, dtau_eff, first_row, block_pass, check, step_errors, trajectory)
