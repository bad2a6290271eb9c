"""Block bookkeeping in the integrators (docs/decisions.md, D9).

The integrators step in a loop and check and record the states a block of
dynamics.BLOCK rows at a time, in one array pass through the per-expression
callables.  With BLOCK = 1 every state is checked right after its step, as
the row-by-row loop did; with BLOCK = 3 faults land inside blocks and every
run crosses a block edge every third row.  Every run must end the same way
at each size: the same trajectory, or the same error with the same t, state
and partial trajectory.  A run whose array passes all return None, so that
every row goes through the per-row check, must equal the run bit for bit;
a reduced run's t is recovered from its rows' 1/factor when the trajectory
is built, so it is the same either way.
"""

import math
import re

import pytest

from poisson3d import dynamics, expr as ex
from poisson3d.darboux import build_chart, forward_map
from poisson3d.dynamics import integrate, integrate_reduced
from poisson3d.errors import DomainExitError, ReparametrizationBreakdownError, UndefinedAtPointError
from poisson3d.family import make_family_spec, make_kappa
from poisson3d.scalar_fields import DomainBox, build_scalar_field
from conftest import ORDERED_BOX, make_flat_spec, make_halphen
from helpers import assert_same_error, assert_same_trajectory, run_outcome

QUADRATIC = ex.parse("(x1^2 + x2^2 + x3^2)/2")
# exp overflows below x2 = 0.629; the symbolic partials drop the term, so only the value faults
ZERO_EXP = ex.parse("x1 + 0*exp(10000*(0.7 - x2))")


def _same_at_small_block_sizes(monkeypatch, run):
    """run()'s outcome, after checking that it is the same with BLOCK = 1 and BLOCK = 3."""
    traj, error = run_outcome(run)
    for size in (1, 3):
        with monkeypatch.context() as m:
            m.setattr(dynamics, "BLOCK", size)
            small_traj, small_error = run_outcome(run)
        if error is None:
            assert small_error is None, (size, small_error)
            assert_same_trajectory(traj, small_traj)
        else:
            assert small_error is not None, f"only the default block size raised, not {size}"
            assert_same_error(error, small_error)
    return traj if error is None else error


# the aborts of a failed step, which end the run at the last recorded row
STEP_FAILURE = re.compile("evaluation failed inside step|reduced step")


def _assert_t_is_the_clock_of_its_state(error):
    """A DomainExitError's t is its state's clock: the last row's after a failed step, else the next row's."""
    if not isinstance(error, DomainExitError):
        return
    partial = error.partial
    n = len(partial) - 1 if STEP_FAILURE.match(str(error)) else len(partial)
    assert error.t == n * partial.dt and f" = {error.t}" in str(error), (error.t, n)
    if n < len(partial):
        assert error.state == tuple(partial.states[n].tolist())
    assert all(map(math.isfinite, error.state)) != str(error).startswith("non-finite"), error.state


def _counting_x3():
    """A callable Hamiltonian x3 (no array binding) and its call counter."""
    calls = [0]

    def h(x1, x2, x3):
        calls[0] += 1
        return x3

    return h, calls


def _direct_cases():
    """(name, run, expected error type or None, a pattern its message starts with)."""
    wide_halphen = make_halphen(((0.0, 5.0),) * 3)
    huge = make_flat_spec(((-1.0, 1.0), (-1e300, 1e300), (-1e300, 1e300)))
    flat, wide_flat = make_flat_spec(), make_flat_spec(((-5.0, 5.0),) * 3)
    return [
        # H = x3 pulls x2 towards x1: the orbit crosses x1 = x2 after 401 rows, inside the second block
        ("domain-exit", lambda m: integrate(wide_halphen, ex.parse("x3"), (2.0, 1.0, 4.0), 5.0, 0.01, m, 3),
         DomainExitError, "trajectory left the domain"),
        ("callable-h", lambda m: integrate(flat, _counting_x3()[0], (0.9, 0.5, 0.0), 2.0, 0.01, m, None),
         DomainExitError, "trajectory left the domain"),
        # x2 and x3 grow without bound until J grad H overflows in the last stage, after hundreds of rows
        ("non-finite", lambda m: integrate(huge, ex.parse("1e10*x1"), (0.5, 0.3, 0.6), 5e-7, 1e-10, m, None),
         DomainExitError, "non-finite state after step"),
        # x2 falls through 0, where the gradient's x2^0.5 faults at a stage point
        ("step-fault", lambda m: integrate(wide_flat, ex.parse("x1 + x2^1.5"), (0.5, 0.3, -0.6), 3.0, 0.001, m),
         DomainExitError, "evaluation failed inside step"),
        # on x2 = x3, chi_12 = x1 - x2 decays like exp(-3t) until C_3's denominator guard fails
        ("casimir-guard", lambda m: integrate(flat, ex.parse("-(x1 + x2 + x3)"), (0.9, 0.1, 0.1), 12.0, 0.01, m, 3),
         DomainExitError, r"invariant ledger failed at t = 8\.96: chi_12 = \S+ at \(.*\); C_3 undefined there$"),
        # x2 falls below 0.629, where the ledger's H overflows; its gradient (1, 0, 0) does not
        ("ledger-h-fault", lambda m: integrate(wide_flat, ZERO_EXP, (1.0, 0.8, 0.0), 3.0, 0.001, m, None),
         DomainExitError, r"invariant ledger failed at t = \S+: math range error"),
        # the same guard with a callable H, whose ledger has no array binding
        ("casimir-guard-callable", lambda m: integrate(flat, lambda *x: -sum(x), (0.9, 0.1, 0.1), 12.0, 0.01, m, 3),
         DomainExitError, r"invariant ledger failed at t = 8\.96: chi_12 = "),
        ("clean", lambda m: integrate(make_halphen(((-4.0, 6.0),) * 3), QUADRATIC, (1.0, 2.0, 4.0), 1.0, 1e-3, m, 3),
         None, ""),
    ]


DIRECT = _direct_cases()


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", DIRECT, ids=[c[0] for c in DIRECT])
def test_direct_runs_end_alike_at_block_size_one(monkeypatch, case, method):
    _, run, kind, pattern = case
    outcome = _same_at_small_block_sizes(monkeypatch, lambda: run(method))
    if kind is None:
        assert len(outcome) > dynamics.BLOCK
    else:
        assert type(outcome) is kind and re.match(pattern, str(outcome)), outcome
        assert outcome.partial is not None and len(outcome.partial) > 1
        _assert_t_is_the_clock_of_its_state(outcome)


def test_a_ledger_abort_carries_the_rows_before_it():
    with pytest.raises(DomainExitError) as err:
        integrate(make_flat_spec(), ex.parse("-(x1 + x2 + x3)"), (0.9, 0.1, 0.1), 12.0, 0.01, casimir_k=3)
    partial = err.value.partial
    assert err.value.t == 896 * 0.01 and partial.t[-1] == 895 * 0.01
    # the failing row, whose ledger has no C_3, is in no column
    assert len(partial) == len(partial.states) == len(partial.H) == len(partial.C) == 896


def _no_zeta_spec():
    domain = DomainBox(ORDERED_BOX, ex.parse("(x1 - x2)*(x2 - x3)*(x3 - x1)"))
    fields = (
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), ORDERED_BOX[0]),
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), ORDERED_BOX[1]),
        build_scalar_field(ex.parse("1"), ex.parse("u"), None, ORDERED_BOX[2]),
    )
    return make_family_spec(ex.parse("1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))"), fields, make_kappa(0.0, 0.0), domain)


def _reduced_cases():
    """(name, chart, H, x0, tau_end, dtau, expected error type or None, a pattern its message starts with)."""
    box = ((-1.0, 1.0),) * 3
    fields = tuple(build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in box)
    crossing = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), DomainBox(box, ex.parse("x1 - x2")))
    wide = build_chart(make_halphen(((-4.0, 6.0),) * 3), k=3)
    no_zeta = build_chart(_no_zeta_spec(), k=3)
    strip = build_chart(make_flat_spec(((0.0, 0.4), (0.6, 1.0), (-1.0, 1.0))), k=3)
    return [
        # the factor x1 - x2 reaches its floor after 400 rows
        ("breakdown", build_chart(crossing, k=3), ex.parse("x3"), (0.3, 0.7, 0.2), 0.6, 1e-3,
         ReparametrizationBreakdownError, "reparametrization factor"),
        # x3 = x_k(y) passes the box edge: psi_3 has no preimage there
        ("box-edge", wide, QUADRATIC, (1.0, 2.0, 4.0), 0.61, 1e-3,
         DomainExitError, "reduced trajectory left the domain"),
        ("domain-exit", strip, ex.parse("x1"), (0.2, 0.8, 0.5), 0.5, 1e-3,
         DomainExitError, "reduced trajectory left the domain"),
        # the orbit of x1 runs x2 down from 0.8 past 0.629, where H(x(y)) overflows
        ("h-fault", strip, ZERO_EXP, (0.2, 0.8, 0.5), 0.5, 1e-3,
         DomainExitError, r"H\(x\(y\)\) failed at tau = 0\.171: math range error$"),
        # without zeta_3, every stage and every row solve for x_k(y) with the root-finder
        ("no-zeta-step", no_zeta, ex.parse("x1 + x2 + x3"), (0.25, 0.75, 1.25), 0.5, 2e-4,
         DomainExitError, "reduced step left the domain"),
        ("no-zeta-exit", no_zeta, QUADRATIC, (0.25, 0.75, 1.25), 0.5, 2e-4,
         DomainExitError, "reduced trajectory left the domain"),
        # the orbit of x1 runs x2 down to 0.7, where a stage's (x2 - 0.7)^0.5 in dH/dx2 faults
        ("step-fault", strip, ex.parse("x1 + (x2 - 0.7)^1.5"), (0.2, 0.8, 0.5), 0.5, 1e-3,
         DomainExitError, r"reduced step failed at tau = 0\.1: negative base "),
        ("clean", wide, QUADRATIC, (1.0, 2.0, 4.0), -0.5, 1e-3, None, ""),
    ]


REDUCED = _reduced_cases()


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", REDUCED, ids=[c[0] for c in REDUCED])
def test_reduced_runs_end_alike_at_block_size_one(monkeypatch, case, method):
    _, chart, h, x0, tau_end, dtau, kind, pattern = case
    y0 = forward_map(chart, x0)
    outcome = _same_at_small_block_sizes(monkeypatch, lambda: integrate_reduced(chart, h, y0, tau_end, dtau, method))
    if kind is None:
        assert len(outcome) > dynamics.BLOCK
    else:
        assert type(outcome) is kind and re.match(pattern, str(outcome)), outcome
        assert outcome.partial is not None and len(outcome.partial) > 1
        _assert_t_is_the_clock_of_its_state(outcome)


def test_an_early_exit_runs_at_most_one_block_of_extra_steps():
    # the flat orbit of H = x3 leaves the box within 2.0 time units; 10^5 steps are asked for
    spec = make_flat_spec()
    h, calls = _counting_x3()
    integrate(spec, h, (0.9, 0.5, 0.0), 0.05, 0.01, casimir_k=None)
    five = calls[0]
    integrate(spec, h, (0.9, 0.5, 0.0), 0.1, 0.01, casimir_k=None)
    per_step = (calls[0] - 2 * five) / 5  # the RHS and the ledger's calls per step
    calls[0] = 0
    with pytest.raises(DomainExitError) as err:
        integrate(spec, h, (0.9, 0.5, 0.0), 1000.0, 0.01, casimir_k=None)
    exit_step = round(err.value.t / 0.01)
    assert exit_step < 200
    assert calls[0] <= (exit_step + dynamics.BLOCK + 1) * per_step


def _run_recording(passes: list, replay: bool):
    """dynamics._run whose block passes note whether they return rows; with replay, every one returns None."""
    run = dynamics._run

    def recording(step, start, n_steps, dt, first_row, block_pass, *rest):
        def noted(states):
            rows = None if replay else block_pass(states)
            passes.append(rows is not None)
            return rows

        return run(step, start, n_steps, dt, first_row, noted, *rest)

    return recording


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("kind", ["direct", "direct-casimir", "reduced"])
def test_array_rows_equal_the_per_row_checks(monkeypatch, kind, method):
    halphen = make_halphen(((-4.0, 6.0),) * 3)
    if kind == "reduced":
        chart = build_chart(halphen, k=3)
        run = lambda: integrate_reduced(chart, QUADRATIC, forward_map(chart, (1.0, 2.0, 4.0)), -0.5, 1e-3, method)
    else:
        k = 3 if kind == "direct-casimir" else None
        run = lambda: integrate(halphen, QUADRATIC, (1.0, 2.0, 4.0), 1.0, 1e-3, method, k)
    outcomes = {}
    for replay in (False, True):
        passes = []
        with monkeypatch.context() as m:
            m.setattr(dynamics, "_run", _run_recording(passes, replay))
            outcomes[replay] = run()
        assert len(passes) > 1 and set(passes) == {not replay}
    assert_same_trajectory(outcomes[False], outcomes[True])


def _run_raising(error):
    """dynamics._run whose block passes raise error."""
    run = dynamics._run

    def raising(step, start, n_steps, dt, first_row, block_pass, *rest):
        def fails(states):
            raise error

        return run(step, start, n_steps, dt, first_row, fails, *rest)

    return raising


@pytest.mark.parametrize("error, replays", [
    (UndefinedAtPointError("a guard on arrays"), True),
    (ValueError("a fault on arrays"), True),  # a BatchFault under batch_arithmetic
    (RuntimeError("a program error"), False),
    (KeyError("x1"), False),
], ids=["package-error", "fault", "runtime-error", "key-error"])
@pytest.mark.parametrize("kind", ["direct", "reduced"])
def test_only_faults_and_package_errors_replay_a_block(monkeypatch, kind, error, replays):
    # expr.batched's rule (docs/decisions.md, D12): any other exception from a block pass is a bug, not a replay
    halphen = make_halphen(((-4.0, 6.0),) * 3)
    if kind == "reduced":
        chart = build_chart(halphen, k=3)
        run = lambda: integrate_reduced(chart, QUADRATIC, forward_map(chart, (1.0, 2.0, 4.0)), -0.05, 1e-3)
    else:
        run = lambda: integrate(halphen, QUADRATIC, (1.0, 2.0, 4.0), 0.1, 1e-3, "rk4", 3)
    want = run()
    with monkeypatch.context() as m:
        m.setattr(dynamics, "_run", _run_raising(error))
        if replays:
            assert_same_trajectory(run(), want)
        else:
            with pytest.raises(type(error)) as got:
                run()
            assert got.value is error
