import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import expr as ex
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.casimir import casimir_expr
from poisson3d.testing import random_family_spec
from poisson3d.verification import matrix_field_from_spec
from poisson3d.errors import (
    DomainEvalError,
    ParseError,
    UnboundVariableError,
    UnknownIdentifierError,
)
from helpers import fd_derivative_if_trustworthy, gen_expr, gen_expr_source


def test_parse_precedence_structure():
    tree = ex.parse("x1 + 2*x2")
    assert tree == ex.Bin("+", ex.Var("x1"), ex.Bin("*", ex.Lit(2.0), ex.Var("x2")))


def test_power_right_associative():
    assert ex.eval_expr(ex.parse("2^3^2"), {}) == 512.0


def test_unary_minus_binds_looser_than_power():
    assert ex.eval_expr(ex.parse("-2^2"), {}) == -4.0
    assert ex.eval_expr(ex.parse("2^-2"), {}) == 0.25


def test_incomplete_input_offset():
    with pytest.raises(ParseError) as err:
        ex.parse("x1 +")
    assert err.value.offset == 4


def test_trailing_garbage_offset():
    with pytest.raises(ParseError) as err:
        ex.parse("x1 + 1 )")
    assert err.value.offset == 7


def test_unknown_identifier():
    with pytest.raises(UnknownIdentifierError) as err:
        ex.parse("x1 + y2")
    assert err.value.offset == 5
    with pytest.raises(UnknownIdentifierError):
        ex.parse("foo(x1)")


def test_literal_overflowing_to_inf_is_rejected():
    with pytest.raises(ParseError, match=r"^numeric literal '1\.8e308' overflows to inf \(offset 5\)$") as err:
        ex.parse("x1 * 1.8e308")
    assert err.value.offset == 5
    assert ex.parse("1.7976931348623157e308") == ex.Lit(1.7976931348623157e308)
    assert ex.parse("1e-400") == ex.Lit(0.0)  # underflow to zero stays a finite literal


def test_empty_source_rejected():
    with pytest.raises(ParseError):
        ex.parse("   ")


@pytest.mark.parametrize(
    "source, env, expected",
    [
        ("exp(0)", {}, 1.0),
        ("x1*x2", {"x1": 3.0, "x2": 4.0}, 12.0),
        ("abs(0 - x1) + sqrt(x2)", {"x1": 2.0, "x2": 9.0}, 5.0),
        ("sign(x1) * 7", {"x1": -0.5}, -7.0),
        ("ln(exp(u))", {"u": 1.25}, 1.25),
    ],
)
def test_eval_values(source, env, expected):
    assert ex.eval_expr(ex.parse(source), env) == pytest.approx(expected, rel=1e-15)


def test_eval_domain_errors():
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("ln(x1)"), {"x1": -1.0})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("sqrt(x1)"), {"x1": -4.0})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("1/x1"), {"x1": 0.0})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("x1 ^ 0.5"), {"x1": -8.0})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("sign(x1)"), {"x1": 0.0})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("exp(x1)"), {"x1": 1e9})
    with pytest.raises(DomainEvalError):
        ex.eval_expr(ex.parse("x1 ^ -2"), {"x1": 0.0})


def test_eval_takes_the_compiled_float_rule():
    # an intermediate may overflow, as in compiled code; only the result must be finite
    for source, x1, want in (("1/(x1*1e308*10)", 1.0, 0.0), ("x1*1e308*10 - x1*1e308*10", 1.0, "non-finite result nan")):
        got = []
        for fn in (ex.compile_expr(ex.parse(source), ("x1",)), lambda x1: ex.eval_expr(ex.parse(source), {"x1": x1})):
            try:
                got.append(fn(x1))
            except DomainEvalError as exc:
                got.append(str(exc))
        assert got == [want, want]


def test_negative_base_integer_power_allowed():
    assert ex.eval_expr(ex.parse("x1^3"), {"x1": -2.0}) == -8.0


def test_unbound_variable():
    with pytest.raises(UnboundVariableError):
        ex.eval_expr(ex.parse("x1 + x2"), {"x1": 1.0})


def test_compile_matches_reference_evaluator():
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        tree = gen_expr(rng, rng.randint(1, 5))
        fn = ex.compile_expr(tree, ("x1", "x2", "x3"))
        for _ in range(5):
            point = [rng.uniform(-3, 3) for _ in range(3)]
            env = dict(zip(("x1", "x2", "x3"), point))
            try:
                want = ex.eval_expr(tree, env)
            except DomainEvalError:
                with pytest.raises(DomainEvalError):
                    fn(*point)
                continue
            assert fn(*point) == want
            checked += 1
    assert checked > 300


# ---------------------------------------------------------------------------
# One callable per expression: the first argument picks the binding


@pytest.mark.parametrize("make", [float, np.float64], ids=["float", "float64"])
def test_floats_take_the_scalar_binding(make):
    fn = ex.compile_expr(ex.parse("ln(x1) * sign(x2)"), ("x1", "x2"))
    got = fn(make(2.0), make(3.0))
    assert not isinstance(got, np.ndarray) and got == math.log(2.0)
    with pytest.raises(DomainEvalError, match=r"^ln of non-positive value (np\.float64\()?-1\.0\)?$"):
        fn(make(-1.0), make(3.0))
    with pytest.raises(DomainEvalError, match=r"^sign\(0\) is undefined$"):
        fn(make(2.0), make(0.0))
    with pytest.raises(DomainEvalError, match="^math range error$"):
        ex.compile_expr(ex.parse("exp(x1)"), ("x1",))(make(1000.0))


@pytest.mark.parametrize("n", [1, 7])
def test_arrays_take_the_batch_binding(n):
    fn = ex.compile_expr(ex.parse("ln(x1) * sign(x2)"), ("x1", "x2"))
    xs, ys = np.linspace(2.0, 3.0, n), np.linspace(-1.0, 1.0, n) + 0.5
    got = fn(xs, ys)
    assert isinstance(got, np.ndarray) and got.shape == (n,)
    for bad in ((xs - 5.0, ys), (xs, ys * 0.0)):
        with pytest.raises(ex.BatchFault):
            fn(*bad)
    with pytest.raises(ex.BatchFault):
        ex.compile_expr(ex.parse("exp(x1)"), ("x1",))(np.full(n, 1000.0))


def test_one_callable_serves_floats_then_arrays_then_floats():
    fn = ex.compile_expr(ex.parse("exp(-x1^2) * cos(3*x2) / (1 + x3^2) + x1^2.5"))
    xs = np.random.default_rng(3).uniform(0.1, 2.0, (3, 50))
    first = [fn(*x) for x in xs.T.tolist()]
    batch = fn(*xs).tolist()
    again = [fn(*x) for x in xs.T.tolist()]
    assert first == batch == again


def test_source_is_compiled_once_on_first_call(monkeypatch):
    compiled = []

    def counting(*args):
        compiled.append(args[0])
        return compile(*args)

    monkeypatch.setattr(ex, "compile", counting, raising=False)
    fn = ex.compile_expr(ex.parse("x1 * x2 + sin(x3)"))
    assert compiled == []
    fn(1.0, 2.0, 3.0)
    fn(np.ones(4), np.ones(4), np.ones(4))
    fn(1.0, 2.0, 3.0)
    # the tree's one-output kernel, compiled once for both bindings
    assert compiled == ["def kernel(x1, x2, x3):\n    return ((x1 * x2) + sin(x3)),"]


def test_unbound_variable_is_raised_before_any_call():
    with pytest.raises(UnboundVariableError, match=r"\['x3'\] not provided by \('x1', 'x2'\)"):
        ex.compile_expr(ex.parse("x1 + x3"), ("x1", "x2"))


def test_callable_carries_source_and_varnames():
    fn = ex.compile_expr(ex.parse("u^2 - 1"), ("u",))
    assert fn.source == "def kernel(u):\n    return (_pow(u, (2.0)) - (1.0)),"
    assert fn.varnames == ("u",)
    constant = ex.compile_expr(ex.parse("2.5"), ())
    assert (constant.source, constant.varnames, constant()) == ("def kernel():\n    return (2.5),", (), 2.5)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_print_parse_round_trip_fuzzed(seed):
    source = gen_expr_source(random.Random(seed))
    first = ex.parse(source)
    assert ex.parse(ex.to_source(first)) == first


def test_round_trip_spec_strings():
    for source in ("x1 + 2*x2", "-x1^2 - -3", "sin(x1)*x1/(x2 - 4)^2", "2 ^ -3 ^ 2"):
        first = ex.parse(source)
        assert ex.parse(ex.to_source(first)) == first


def test_differentiate_power_rule():
    d = ex.differentiate(ex.parse("x1^2"), "x1")
    fn = ex.compile_expr(d, ("x1",))
    for v in (-2.0, 0.0, 1.5, 4.0):
        assert fn(v) == pytest.approx(2.0 * v)


def test_differentiate_other_variable_is_zero():
    assert ex.differentiate(ex.parse("x1"), "x2") == ex.Lit(0.0)


def test_differentiate_product_value():
    d = ex.compile_expr(ex.differentiate(ex.parse("sin(x1)*x1"), "x1"), ("x1",))
    exact = math.cos(1.0) + math.sin(1.0)
    assert d(1.0) == pytest.approx(exact, rel=1e-12)
    fn = ex.compile_expr(ex.parse("sin(x1)*x1"), ("x1",))
    fd = fd_derivative_if_trustworthy(fn, 1.0)
    assert abs(d(1.0) - fd) <= 1e-6 * max(1.0, abs(d(1.0)))


def test_abs_and_sign_derivatives_undefined_at_zero():
    d_abs = ex.compile_expr(ex.differentiate(ex.parse("abs(x1)"), "x1"), ("x1",))
    assert d_abs(2.0) == 1.0
    assert d_abs(-2.0) == -1.0
    with pytest.raises(DomainEvalError):
        d_abs(0.0)
    d_sign = ex.compile_expr(ex.differentiate(ex.parse("sign(x1)"), "x1"), ("x1",))
    assert d_sign(3.0) == 0.0
    with pytest.raises(DomainEvalError):
        d_sign(0.0)


def test_derivatives_match_finite_differences_fuzzed():
    rng = random.Random(99)
    compared = 0
    for _ in range(120):
        tree = gen_expr(rng, rng.randint(1, 4), variables=("u",), smooth_only=True)
        try:
            dtree = ex.differentiate(tree, "u")
        except ValueError:
            continue
        fn = ex.compile_expr(tree, ("u",))
        dfn = ex.compile_expr(dtree, ("u",))
        for _ in range(20):
            x = rng.uniform(-3.0, 3.0)
            fd = fd_derivative_if_trustworthy(fn, x)
            if fd is None:
                continue
            try:
                sym = dfn(x)
            except DomainEvalError:
                continue
            assert abs(sym - fd) <= 1e-6 * max(1.0, abs(sym)), ex.to_source(tree)
            compared += 1
    assert compared > 400


def test_substitute():
    tree = ex.parse("u^2 + sin(u)")
    replaced = ex.substitute(tree, "u", ex.parse("x1 + 1"))
    fn = ex.compile_expr(replaced, ("x1",))
    assert fn(1.0) == pytest.approx(4.0 + math.sin(2.0))


def test_constant_folding_preserves_domain_errors():
    tree = ex.parse("ln(0 - 1)")  # must not fold into a NaN literal
    with pytest.raises(DomainEvalError):
        ex.eval_expr(tree, {})


# ---------------------------------------------------------------------------
# Exact squares: a^2 is one multiplication in every binding (docs/decisions.md, D4)


@settings(max_examples=2000, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_a_square_is_correctly_rounded(a):
    try:
        want = float(Fraction(a) ** 2)
    except OverflowError:  # the correctly rounded square is inf: pow's error, not inf
        with pytest.raises(OverflowError, match="^math range error$"):
            ex._pow(a, 2.0)
    else:
        assert ex._pow(a, 2.0).hex() == want.hex()


@pytest.mark.parametrize("make", [float, np.float64], ids=["float", "float64"])
def test_a_square_that_overflows_raises_pow_error_in_every_scalar_evaluator(make):
    square = ex.parse("x1^2")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an np.float64 base must not warn on overflow either
        for a in (make(1e200), make(-1.5e154)):
            with pytest.raises(OverflowError, match="^math range error$"):
                ex._pow(a, 2.0)
            with pytest.raises(DomainEvalError, match="^math range error$"):
                ex.compile_expr(square, ("x1",))(a)
            with pytest.raises(DomainEvalError, match="^math range error$"):
                ex.eval_expr(square, {"x1": a})
            with pytest.raises(OverflowError, match="^math range error$"):
                ex.compile_kernel((square,))(a, 0.0, 0.0)  # the kernel's caller replays it
        for a in (math.inf, -math.inf, math.nan):  # no overflow here: the value is pow's
            got = ex._pow(make(a), 2.0)
            assert got.__class__ is float and got.hex() == math.pow(a, 2.0).hex()


def test_a_square_that_overflows_is_not_folded():
    assert ex.parse("1e200^2") == ex.Bin("^", ex.Lit(1e200), ex.Lit(2.0))
    assert ex.parse("(-1e200)^2") == ex.Bin("^", ex.Lit(-1e200), ex.Lit(2.0))
    assert ex.parse("1.5^2") == ex.Lit(2.25)
    with pytest.raises(DomainEvalError, match="^math range error$"):
        ex.eval_expr(ex.parse("1e200^2"), {})


def test_a_batch_square_that_overflows_faults_and_replays_with_pow_error():
    fn = ex.compile_expr(ex.parse("x1^2 + x2"), ("x1", "x2"))
    xs, ys = np.array([0.5, 1e200, 2.0]), np.ones(3)
    with pytest.raises(ex.BatchFault):
        fn(xs, ys)
    with pytest.raises(ex.BatchFault):
        ex.plan_kernel((ex.parse("x1^2 + x2"),)).batch(xs, ys, ys)
    with pytest.raises(DomainEvalError, match="^math range error$"):
        [fn(x, y) for x, y in zip(xs.tolist(), ys.tolist())]  # the per-point replay
    for a in (math.inf, math.nan):  # a non-finite base is a non-finite result, as before
        with pytest.raises(ex.BatchFault, match="^non-finite result$"):
            fn(np.array([0.5, a]), np.ones(2))


def test_expressions_are_immutable():
    tree = ex.parse("x1 + 1")
    with pytest.raises(Exception):
        tree.left = ex.Lit(5.0)


# ---------------------------------------------------------------------------
# Zero pruning: 0 * e is dropped only where e is total


@pytest.mark.parametrize("source", ["x1", "2.5", "-x1 * x2 + x3", "exp(sin(x1)) - cos(abs(x2))", "x1^3", "(x1 - x2)^0"])
def test_zero_times_a_total_factor_is_dropped(source):
    e = ex.parse(source)
    assert ex._s_mul(ex.Lit(0.0), e) == ex.Lit(0.0)
    assert ex._s_mul(e, ex.Lit(0.0)) == ex.Lit(0.0)


@pytest.mark.parametrize(
    "source", ["sign(x1)", "ln(x1)", "sqrt(x1)", "x1 / x2", "x1^x2", "x1^-1", "x1^0.5", "exp(ln(x1))", "x2 * sqrt(x1)"]
)
def test_zero_next_to_a_faulting_factor_is_kept(source):
    e = ex.parse(source)
    assert ex._s_mul(ex.Lit(0.0), e) == ex.Bin("*", ex.Lit(0.0), e)
    assert ex._s_mul(e, ex.Lit(0.0)) == ex.Bin("*", e, ex.Lit(0.0))


@pytest.mark.parametrize("tree, name", [("sign(x1)", "x1"), ("x1^0.5", "x2")])
def test_kept_zeros_still_fault_where_no_derivative_exists(tree, name):
    d = ex.differentiate(ex.parse(tree), name)
    with pytest.raises(DomainEvalError):
        ex.compile_expr(d)(0.0, 1.0, 1.0)
    assert ex.compile_expr(d)(2.0, 1.0, 1.0) == 0.0


# The old rule kept every product with a literal zero; _unpruned_s_mul
# rebuilds it, and both trees are evaluated at the same seeded domain
# points.  Values must agree with == (which does not see the sign of a
# zero), and both trees must fault at the same points.


def _unpruned_s_mul(a, b):
    """_s_mul before pruning: only the identities 1 * x and x * 1 drop."""
    if isinstance(a, ex.Lit) and a.value == 1.0:
        return b
    if isinstance(b, ex.Lit) and b.value == 1.0:
        return a
    return ex._fold_bin(ex.Bin("*", a, b))


def _nodes(e):
    if isinstance(e, ex.Bin):
        return 1 + _nodes(e.left) + _nodes(e.right)
    if isinstance(e, ex.Neg):
        return 1 + _nodes(e.operand)
    if isinstance(e, ex.Call):
        return 1 + _nodes(e.arg)
    return 1


def _values(tree, xs):
    """Values at the points of xs (three coordinate arrays), None where the scalar binding faults."""
    try:
        return ex.compile_expr(tree)(*xs).tolist()
    except ex.BatchFault:
        fn, out = ex.compile_expr(tree), []
        for x in zip(*xs.tolist()):
            try:
                out.append(fn(*x))
            except DomainEvalError:
                out.append(None)
        return out


def _partials(monkeypatch, exprs, pruned):
    with monkeypatch.context() as m:
        if not pruned:
            m.setattr(ex, "_s_mul", _unpruned_s_mul)
        return [ex.differentiate(e, v) for e in exprs for v in ("x1", "x2", "x3")]


def _entries(spec):
    return tuple(f.expr for f in matrix_field_from_spec(spec).fields)


def _assert_pruned_equals_unpruned(monkeypatch, spec, n, seed):
    exprs = _entries(spec) + tuple(casimir_expr(spec, k) for k in (1, 2, 3))
    xs = spec.domain.sample(n, seed).T.copy()
    pruned, full = _partials(monkeypatch, exprs, True), _partials(monkeypatch, exprs, False)
    for p, f in zip(pruned, full):
        assert _nodes(p) <= _nodes(f)
        assert _values(p, xs) == _values(f, xs), ex.to_source(f)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_pruned_partials_equal_unpruned_on_builtins(monkeypatch, name):
    _assert_pruned_equals_unpruned(monkeypatch, build_system(name)[0], 10_000, 17)


def test_pruned_partials_equal_unpruned_on_random_specs(monkeypatch):
    # 2,500 points per spec: the unpruned trees' elementwise ^ and exp make
    # 10,000 points on 40 specs cost about 20 s
    for i in range(40):
        _assert_pruned_equals_unpruned(monkeypatch, random_family_spec(i, 42), 2500, 42)


@pytest.mark.parametrize("name, pruned_max, unpruned", [("euler-top", 120, 633), ("halphen", 552, 885)])
def test_entry_partials_node_counts(monkeypatch, name, pruned_max, unpruned):
    entries = _entries(build_system(name)[0])
    assert sum(map(_nodes, _partials(monkeypatch, entries, True))) <= pruned_max
    assert sum(map(_nodes, _partials(monkeypatch, entries, False))) == unpruned


def test_wide_box_hamiltonian_gradient_has_no_dead_terms():
    d = ex.differentiate(ex.parse("(x1^2 + x2^2 + x3^2)/2"), "x1")
    assert ex.to_source(d) == "2.0 * x1 * 2.0 / 4.0"
