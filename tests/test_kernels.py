"""Job kernels (docs/decisions.md, D6): one fused function per integrator job.

A kernel must give the per-expression path's values bit for bit, and every
call it cannot take must replay through that path, so runs end with the
same trajectory, or the same error and partial trajectory, either way.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import dynamics, expr as ex
from poisson3d.builtin_systems import build_system
from poisson3d.casimir import casimir_value
from poisson3d.cli import main
from poisson3d.darboux import build_chart, forward_map, inverse_map
from poisson3d.dynamics import integrate, integrate_reduced
from poisson3d.errors import HypothesisViolationError, PoissonError
from poisson3d.family import rescale
from poisson3d.testing import random_family_spec
from conftest import WIDE_BOX, make_flat_spec, make_halphen

XS = ("x1", "x2", "x3")
_LITERALS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5)
_COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300)


@st.composite
def forests(draw):
    """(outputs, checked): trees over x1..x3 that share subtrees and mix +0.0 and -0.0 literals."""
    pool = [ex.Var(name) for name in XS] + [ex.Lit(v) for v in _LITERALS]
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("+", "-", "*", "/", "^", "neg", "call")))
        if kind == "neg":
            node = ex.Neg(pick())
        elif kind == "call":
            node = ex.Call(draw(st.sampled_from(ex.FUNCTIONS)), pick())
        else:
            node = ex.Bin(kind, pick(), pick())
        pool.append(node)
    outputs = [pool[-1]] + [pick() for _ in range(draw(st.integers(0, 3)))]
    checked = [pick() for _ in range(draw(st.integers(0, 3)))]
    return outputs, checked


def _first_error(fn):
    try:
        return fn(), None
    except Exception as exc:  # the type and text are what the test compares
        return None, (type(exc), str(exc))


def _hex(values):
    return [float(v).hex() for v in values]


@settings(max_examples=400, deadline=None)
@given(forests(), st.tuples(*(st.sampled_from(_COORDS) | st.floats(-4.0, 4.0),) * 3))
def test_kernel_equals_the_per_expression_path(forest, x):
    outputs, checked = forest
    kernel = ex.compile_kernel(outputs, (*outputs, *checked))
    fns = [ex.compile_expr(e, XS) for e in (*outputs, *checked)]

    def per_expression(*x):
        return tuple(fn(*x) for fn in fns)[: len(outputs)]

    want, want_error = _first_error(lambda: per_expression(*x))
    got, got_error = _first_error(lambda: kernel(*x))
    if want_error is None:
        assert got_error is None and _hex(got) == _hex(want)
    else:
        assert got_error is not None  # the kernel faults too, maybe first elsewhere
        _, replay_error = _first_error(lambda: dynamics._with_replay(kernel, per_expression)(x))
        assert replay_error == want_error


def test_signed_zero_literals_get_separate_locals():
    x1 = ex.Var("x1")
    kernel = ex.compile_kernel((x1 + 0.0, x1 + -0.0))
    assert _hex(kernel(-0.0, 0.0, 0.0)) == ["0x0.0p+0", "-0x0.0p+0"]
    assert ex.Lit(0.0) == ex.Lit(-0.0)  # why the key is the source, not the tree


def test_shared_subtrees_are_computed_once():
    a = ex.Var("x1") - ex.Var("x2")
    kernel = ex.compile_kernel((a * a, ex.Call("exp", a) + a))
    assert kernel.source.count("(x1 - x2)") == 1
    assert kernel(3.0, 1.0, 0.0) == (4.0, math.exp(2.0) + 2.0)


def test_unbound_variable_is_raised_at_compile_time():
    with pytest.raises(ex.UnboundVariableError):
        ex.compile_kernel((ex.Var("u"),))


@pytest.mark.parametrize("b", [2.0, 3.0, -1.0, 0.0, 0.5, 1e300])
def test_batch_pow_float_exponent_matches_the_array_exponent(b):
    # a float exponent with an integer value skips the negative-base test
    a = np.array([-3.5, -0.0, 0.0, 1.25, 7.0])
    for base in (a, a[a != 0.0]):
        want, want_error = _first_error(lambda: ex._batch_pow(base, np.full_like(base, b)))
        got, got_error = _first_error(lambda: ex._batch_pow(base, b))
        assert got_error == want_error
        if want_error is None:
            assert _hex(got) == _hex(want) == _hex(math.pow(v, b) for v in base.tolist())


# ---------------------------------------------------------------------------
# Integrators: kernel path against forced replay


def _raising_kernels(*args, **kwargs):
    def kernel(*x):
        raise RuntimeError("forced replay")

    return kernel


def _outcome(run):
    try:
        return run(), None
    except PoissonError as exc:
        return None, exc


def _assert_same_trajectory(a, b):
    assert (a.casimir_k, a.dt, a.method, a.coords) == (b.casimir_k, b.dt, b.method, b.coords)
    for name in ("t", "tau", "states", "H", "C"):
        u, v = getattr(a, name), getattr(b, name)
        assert (u is None) == (v is None), name
        if u is not None:
            assert np.array_equal(u, v) and np.array_equal(np.signbit(u), np.signbit(v)), name


def _assert_same_outcome(monkeypatch, run):
    traj, error = _outcome(run)
    with monkeypatch.context() as m:
        m.setattr(ex, "compile_kernel", _raising_kernels)
        replay_traj, replay_error = _outcome(run)
    if error is None:
        assert replay_error is None, replay_error
        _assert_same_trajectory(traj, replay_traj)
        return traj
    assert (type(replay_error), str(replay_error)) == (type(error), str(error))
    for attr in ("t", "state"):
        assert getattr(replay_error, attr, None) == getattr(error, attr, None)
    if getattr(error, "partial", None) is not None:
        _assert_same_trajectory(error.partial, replay_error.partial)
    return error


def _cases():
    """(name, spec, H, x0, direct-run step): full runs and domain exits, eta chains of length 1 and 2."""
    halphen = make_halphen(((-4.0, 6.0),) * 3)
    top, top_h = build_system("euler-top")
    cases = [
        ("halphen", halphen, ex.parse("(x1^2 + x2^2 + x3^2)/2"), (1.01, 2.0, 3.98), 0.01),
        ("euler-top", top, top_h, (1.0, 0.8, 1.3), 0.01),
        ("rescaled", rescale(halphen, ex.parse("1 + x1^2/50")), ex.parse("x1*x2 + x3"), (1.0, 2.0, 4.0), 0.01),
    ]
    for i in (0, 2, 5, 7):
        spec = random_family_spec(i, 11)
        x0 = tuple((lo + hi) / 2 for lo, hi in spec.domain.intervals)
        if not spec.domain.contains(x0):
            x0 = tuple(spec.domain.sample(1, 4)[0])
        cases.append((f"random{i}", spec, ex.parse("(x1^2 + x2^2 + x3^2)/2 + sin(x1*x3)"), x0, 1e-4))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_job_kernels_equal_the_per_expression_jobs(case):
    # bit for bit at sampled points: a one-ulp change in the RHS often rounds
    # away in the state update, so trajectories alone would not show it
    _, spec, h, _, _ = case
    H = dynamics.as_hamiltonian(h)
    points = [tuple(map(float, x)) for x in spec.domain.sample(300, 6)]
    rhs = dynamics._rhs_kernel(spec, H)
    assert [_hex(rhs(*x)) for x in points] == [_hex(dynamics._j_grad_h(spec, H, *x)) for x in points]
    for k in (1, 2, 3):
        ledger = dynamics._ledger_kernel(spec, H, k)
        want = [(H.value(*x), casimir_value(spec, k, x)) for x in points]
        assert [_hex(ledger(*x)) for x in points] == [_hex(v) for v in want]
    try:
        chart = build_chart(spec, k=3)
    except HypothesisViolationError:
        return
    H_y = dynamics._reduced_hamiltonian(chart, H)
    reduced = dynamics._reduced_kernel(H_y, 1, 2)
    if reduced is None:  # an axis without zeta: H(x(y)) is a callable, and the run keeps the per-point path
        assert H_y.expr is None
        return
    ys = [tuple(map(float, forward_map(chart, x))) for x in points]
    assert [_hex(reduced(*y)) for y in ys] == [_hex((H_y.partial(2, *y), -H_y.partial(1, *y))) for y in ys]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_integrate_kernel_equals_replay(monkeypatch, case, method):
    _, spec, h, x0, dt = case
    _assert_same_outcome(monkeypatch, lambda: integrate(spec, h, x0, 40 * dt, dt, method, casimir_k="auto"))


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_integrate_reduced_kernel_equals_replay(monkeypatch, case, method):
    _, spec, h, x0, _ = case
    try:
        chart = build_chart(spec, k=3)
    except HypothesisViolationError:
        pytest.skip("chart hypothesis fails for this member")
    y0 = forward_map(chart, x0)
    _assert_same_outcome(monkeypatch, lambda: integrate_reduced(chart, h, y0, 0.05, 1e-3, method))


def test_integrators_take_the_kernels(monkeypatch):
    calls = []
    monkeypatch.setattr(dynamics, "structure_matrix_at", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(dynamics, "casimir_value", lambda *a, **k: calls.append(a))
    halphen = make_halphen(WIDE_BOX)
    integrate(halphen, ex.parse("x1*x2 + x3"), (1.0, 2.0, 4.0), 0.1, 0.01, casimir_k=3)
    assert calls == []


def test_halphen_run_into_a_coincidence_plane(monkeypatch):
    # H = x3 pulls x2 towards x1 until the orbit crosses the plane x1 = x2
    halphen = make_halphen(WIDE_BOX)
    error = _assert_same_outcome(
        monkeypatch, lambda: integrate(halphen, ex.parse("x3"), (2.0, 1.0, 4.0), 5.0, 0.01, casimir_k=3)
    )
    assert str(error) == "trajectory left the domain at t = 4.01"
    assert len(error.partial) == 401


@pytest.mark.parametrize("h", ["x1 + sqrt(x2)", "x3 + ln(x2 + 0.5)", "1/x2 + x3"])
def test_faulting_hamiltonian_exits_alike(monkeypatch, h):
    # the orbit of the flat structure drives x2 through 0, where the gradient faults
    spec = make_flat_spec()
    error = _assert_same_outcome(monkeypatch, lambda: integrate(spec, ex.parse(h), (0.5, 0.3, -0.6), 2.0, 0.01))
    assert error is not None


def test_cli_reduced_states_are_the_per_row_inverse(tmp_path, capsys):
    out = tmp_path / "reduced.csv"
    argv = ["simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9", "--t-end", "-0.02", "--dt", "0.001",
            "--reduced", "--k", "3", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    spec, h = build_system("halphen")
    chart = build_chart(spec, 3, seed=1)
    traj = integrate_reduced(chart, h, forward_map(chart, (0.1, 0.5, 0.9)), -0.02, 0.001)
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    want = sorted(zip(traj.t.tolist(), (inverse_map(chart, y) for y in traj.states)), key=lambda r: r[0])
    assert [r[2:5] for r in rows] == [[format(float(v), ".17g") for v in x] for _, x in want]
