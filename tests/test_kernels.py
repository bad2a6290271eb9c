"""Job kernels (docs/decisions.md, D6): one fused function per integrator right-hand side.

A kernel must give the per-expression path's values bit for bit, and every
step it cannot take must replay through that path, so runs end with the
same trajectory, or the same error and partial trajectory, either way.
"""

import ast
import dataclasses
import functools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import dynamics, expr as ex, plan
from poisson3d.builtin_systems import build_system, default_halphen_domain, halphen_structure
from poisson3d.casimir import casimir_value, cyclic
from poisson3d.cli import main
from poisson3d.darboux import build_chart, forward_map, inverse_map, inverse_target
from poisson3d.dynamics import integrate, integrate_reduced
from poisson3d.errors import HypothesisViolationError
from poisson3d.family import rescale
from poisson3d.scalar_fields import psi_inverse
from poisson3d.testing import random_family_spec
from conftest import WIDE_BOX, make_flat_spec, make_halphen
from helpers import assert_same_error, assert_same_trajectory, run_outcome, without_zeta

XS = ("x1", "x2", "x3")
_LITERALS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, 3.0, -2.5)
_COORDS = (0.0, -0.0, 1.0, -1.0, 0.5, 2.0, -3.0, 1e-300, 1e300)


@st.composite
def forests(draw):
    """(outputs, checked): trees over x1..x3 that share subtrees, hold equal subtrees as distinct node objects
    and mix +0.0 and -0.0 literals."""
    pool = [ex.Var(name) for name in XS] + [ex.Lit(v) for v in _LITERALS]
    pick = lambda: pool[draw(st.integers(0, len(pool) - 1))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(("+", "-", "*", "/", "^", "neg", "call", "copy")))
        if kind == "neg":
            node = ex.Neg(pick())
        elif kind == "copy":  # an equal subtree as a new node object, as symbolic partials make them
            node = dataclasses.replace(pick())
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


def _outcome(fn, x):
    """The value's float.hex, or the exception's type and text."""
    try:
        return float(fn(*x)).hex()
    except Exception as exc:  # the type and text are what the test compares
        return type(exc), str(exc)


_DIAGONAL = [(c, c, c) for c in _COORDS]


@settings(max_examples=1500, deadline=None)
@given(forests(), st.lists(st.tuples(*(st.sampled_from(_COORDS) | st.floats(-4.0, 4.0),) * 3), max_size=4))
def test_one_output_kernels_raise_the_first_error_of_a_walk(forest, points):
    # shared subtrees and those that can raise get lines, the rest is written inline: every outcome, error text
    # included, is a walk's; the sum reads each checked tree once and each output twice, after them
    outputs, checked = forest
    total = functools.reduce(ex.Expr.__add__, (*checked, *outputs, *outputs))
    for e in {id(e): e for e in (*outputs, *checked, total)}.values():
        fn, walked = ex.compile_expr(e, XS), lambda *x: ex.eval_expr(e, dict(zip(XS, x)))
        assert fn.source == ex.compile_kernel((e,)).source  # one writer
        for x in (*_DIAGONAL, *points):
            assert _outcome(fn, x) == _outcome(walked, x)


def _inlined_raises(source):
    """The kernel's statements that hold a call or a division, which can raise, other than as a line's whole value."""
    inlined = []
    for stmt in ast.parse(source).body[0].body:
        own = stmt.value if isinstance(stmt, ast.Assign) else None
        for node in ast.walk(stmt):
            call = isinstance(node, ast.Call) and node.func.id not in ("abs", "isfinite", "BatchFault")
            if node is not own and (call or isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                inlined.append(ast.unparse(stmt))
                break
    return inlined


def _walk(outputs, checked, x):
    """What a kernel of the trees gives at x, from a walk of the outputs, then of the checked trees: the outputs'
    float.hex, the text of the first error, or BatchFault for a checked value that is not finite."""
    try:
        values = [ex._eval(e, dict(zip(XS, x))) for e in (*outputs, *checked)]
    except ex.DomainEvalError as exc:
        return str(exc)
    return "BatchFault" if not all(map(math.isfinite, values[len(outputs):])) else _hex(values[: len(outputs)])


def _kernel_outcome(kernel, x):
    try:
        return _hex(kernel(*x))
    except ex.BatchFault:
        return "BatchFault"
    except Exception as exc:  # the text is what the test compares
        return str(exc)


@settings(max_examples=400, deadline=None)
@given(forests(), st.lists(st.tuples(*(st.sampled_from(_COORDS) | st.floats(-4.0, 4.0),) * 3), max_size=4))
def test_a_subtree_that_can_raise_gets_its_own_line(forest, points):
    outputs, checked = forest
    trees = (*outputs, *checked)
    sources = [ex.compile_kernel(outputs, checked).source, *(ex.compile_expr(e, XS).source for e in trees)]
    assert [_inlined_raises(src) for src in sources] == [[]] * len(sources)
    kernel = ex.compile_kernel(trees)
    for x in (*_DIAGONAL, *points):
        assert _kernel_outcome(kernel, x) == _walk(trees, (), x)


def test_an_inline_text_that_can_raise_runs_before_a_later_line_that_can():
    # ln(u - 5) is read once but sqrt(u) twice: ln gets its own line before sqrt's, so a walk's error comes first
    fn = ex.compile_expr(ex.parse("ln(u - 5) + sqrt(u) * sqrt(u)"), ("u",))
    with pytest.raises(ex.DomainEvalError, match=r"^ln of non-positive value -6\.0$"):
        fn(-1.0)
    assert fn(9.0) == math.log(4.0) + 9.0


def test_the_partial_of_a_deep_chain_compiles():
    # each sin(...) is read by the next sin and by the partial's cos: they get lines, and the partial's 150
    # nested products stay one line, as deep as the tree
    e = ex.Var("u")
    for _ in range(149):
        e = ex.Call("sin", e)
    d = ex.differentiate(e, "u")
    fn = ex.compile_expr(d, ("u",))
    for u in (0.3, -1.2, 2.0):
        assert fn(u) == ex.eval_expr(d, {"u": u})


def test_a_checked_sum_that_overflows_replays():
    # one isfinite of the checked values' sum: finite values whose sum overflows send the call to its replay
    x1, x2 = ex.Var("x1"), ex.Var("x2")
    kernel = ex.compile_kernel((x1 - x2,), (x1, x2))
    assert kernel.source.count("isfinite(") == 1
    with pytest.raises(ex.BatchFault):
        kernel(1e308, 1e308, 0.0)
    with pytest.raises(ex.BatchFault):
        ex.plan_kernel((x1 - x2,), (x1, x2)).batch(np.array([1.0, 1e308]), np.array([1.0, 1e308]), np.zeros(2))
    fn = ex.compile_expr(x1 - x2, XS)
    assert dynamics._with_replay(kernel, lambda *x: (fn(*x),))((1e308, 1e308, 0.0)) == (0.0,)
    assert kernel(1.0, 2.0, 0.0) == (-1.0,)


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


# ---------------------------------------------------------------------------
# The batch binding: plan_kernel(...).batch runs the same trees over arrays


@settings(max_examples=300, deadline=None)
@given(forests(), st.lists(st.tuples(*(st.sampled_from(_COORDS) | st.floats(-4.0, 4.0),) * 3), min_size=1, max_size=5))
def test_kernel_batch_equals_compile_expr_on_arrays(forest, points):
    outputs, checked = forest
    xs = tuple(np.array(c) for c in zip(*points))
    per_tree = [_first_error(lambda: ex.compile_expr(e, XS)(*xs)) for e in (*outputs, *checked)]
    got, error = _first_error(lambda: ex.plan_kernel(outputs, checked).batch(*xs))
    # the kernel evaluates every subtree of every tree, so it faults exactly when one of the trees does
    assert (error is not None) == any(e is not None for _, e in per_tree)
    if error is None:
        assert len(got) == len(outputs)
        for value, (want, _) in zip(got, per_tree):
            assert value.shape == xs[0].shape and _hex(value) == _hex(want)
    else:
        assert error[0] is ex.BatchFault


def test_faulting_forest_raises_batch_fault_on_arrays():
    x1, x2 = ex.Var("x1"), ex.Var("x2")
    xs = (np.array([1.0, 2.0, -1.0]), np.array([1.0, 0.5, 0.25]), np.zeros(3))
    ln_x1 = ex.Call("ln", x1)
    with pytest.raises(ex.BatchFault):  # a domain fault in an output
        ex.plan_kernel((ln_x1 + x2,)).batch(*xs)
    with pytest.raises(ex.BatchFault):  # a domain fault in a checked value alone
        ex.plan_kernel((x2,), (ln_x1,)).batch(*xs)
    with pytest.raises(ex.BatchFault):  # an overflow
        ex.plan_kernel((ex.Call("exp", x2 * 1000.0),)).batch(*xs)
    with pytest.raises(ex.BatchFault):  # a division by zero
        ex.plan_kernel((x2 / ex.Var("x3"),)).batch(*xs)
    kernel = ex.plan_kernel((ln_x1 + x2,))
    assert _hex(kernel.batch(*(c[:2] for c in xs))[0]) == _hex([1.0, math.log(2.0) + 0.5])  # no fault, no BatchFault


def test_constant_outputs_broadcast_to_the_input_shape():
    kernel = ex.plan_kernel((ex.Lit(2.5), ex.Call("exp", ex.Lit(1.0)), ex.Lit(1.0) - ex.Lit(3.0), ex.Var("x2")))
    xs = tuple(np.linspace(0.0, 1.0, 6).reshape(2, 3) + a for a in range(3))
    got = kernel.batch(*xs)
    assert [v.shape for v in got] == [(2, 3)] * 4
    assert [v.tolist() for v in got[:3]] == [[[c] * 3] * 2 for c in (2.5, math.exp(1.0), -2.0)]
    assert np.array_equal(got[3], xs[1])


def test_scalar_binding_is_the_generated_function_itself():
    a = ex.Var("x1") - ex.Var("x2")
    kernel = ex.compile_kernel((ex.Call("exp", a) * a, ex.pow_(a, ex.Lit(0.5))), (a,))
    # no wrapper around the scalar calls: the integrators call the generated def directly
    assert kernel.__code__.co_name == "kernel" and kernel.__code__.co_filename == "<kernel>"
    assert kernel.__globals__["_pow"] is ex._pow and kernel.__globals__["isfinite"] is math.isfinite
    before = kernel(3.0, 1.0, 0.0)
    assert all(type(v) is float for v in before)
    assert not hasattr(kernel, "batch")  # arrays run the trees' register plan, not this code
    assert _hex(kernel(3.0, 1.0, 0.0)) == _hex(before) == _hex([math.exp(2.0) * 2.0, math.pow(2.0, 0.5)])
    with pytest.raises(ex.DomainEvalError):  # the scalar primitives, not the batch ones
        kernel(1.0, 3.0, 0.0)


def test_single_reads_are_inlined_and_twice_read_levels_get_lines():
    # each level is read twice by the next, so it gets a line, and so does each sin, which can raise; the
    # product, read once, is written into its level, and the last level into the return: 23 lines
    e = ex.Var("x1")
    for n in range(12):
        e = ex.Call("sin", e) * e + float(n)
    kernel = ex.compile_kernel((e,))
    body = kernel.source.splitlines()[1:-1]
    assert len(body) == 23 and sum(line.split(" = ")[1].startswith("sin(") for line in body) == 12
    assert kernel.source.splitlines()[-1] == "    return ((_t22 * _t21) + (11.0)),"
    x = 0.3
    for n in range(12):
        x = math.sin(x) * x + float(n)
    assert kernel(0.3, 0.0, 0.0) == (x,)


def test_a_local_read_by_an_inlined_subtree_lives_until_that_subtree_is_read():
    x1, x2, x3 = ex.Var("x1"), ex.Var("x2"), ex.Var("x3")
    s, two = x1 - x2, ex.Lit(2.0)
    d = (s * x3) * (s + x3)
    cases = (
        # exp(s / 2) can raise, so it gets a line; d * d, read once, is written into the return and reads d's line
        ("exp", ex.Call("exp", s * 0.5) + d * d),
        # -(2.0) is read twice, sqrt and each division can raise: all get lines, and the return reads two of them
        ("sqrt", ex.Neg(two) / ex.Call("sqrt", x2) + ex.Neg(ex.Neg(two)) / ex.Neg(ex.Neg(two))),
    )
    for fn_name, out in cases:
        kernel = ex.compile_kernel((out,))
        ret = kernel.source.splitlines()[-1]
        assert kernel.source.count(f"{fn_name}(") == 1 and f"{fn_name}(" not in ret and "_t" in ret
        for x in ((0.7, 0.2, 1.3), (-1.5, 2.0, 0.25)):
            assert _hex(kernel(*x)) == _hex([ex.eval_expr(out, dict(zip(XS, x)))])


def _chain(levels, step):
    e = ex.Var("x1")
    for _ in range(levels - 1):
        e = step(e)
    return e


@pytest.mark.parametrize("step", [lambda e: e + 1.0, lambda e: ex.Call("sin", e), lambda e: ex.pow_(e, ex.Lit(2.0))])
def test_trees_deeper_than_parse_admits_get_no_kernel(step):
    # compile_expr compiles every tree of 200 levels; one level more may not compile, so no kernel replaces it
    deepest = _chain(200, step)
    assert ex.compile_expr(deepest, XS).source and ex.compile_kernel((deepest,)) is not None
    assert ex.compile_kernel((ex.Var("x2"),), (_chain(201, step),)) is None
    assert ex.compile_kernel((_chain(5000, step),)) is None  # far too deep to walk: still None, not a RecursionError


def test_a_shared_subtree_counts_at_its_deepest_use():
    # the first output walks the 150 levels; the second reuses them under 50 or 60 more
    shallow = _chain(150, ex.Neg)
    assert ex.compile_kernel((shallow, _wrap(shallow, 50))) is not None
    assert ex.compile_kernel((shallow, _wrap(shallow, 51))) is None


def _wrap(e, levels):
    for _ in range(levels):
        e = e * 2.0
    return e


# math.pow(v, 2.0) is an ulp off v * v at these bases (glibc 2.36, x86-64)
POW_IS_OFF = (5.651086, 0.735624)


@pytest.mark.parametrize("b", [2.0, 3.0, -1.0, 0.0, 0.5, 1e300])
def test_batch_pow_float_exponent_matches_the_array_exponent(b):
    # a float exponent with an integer value skips the negative-base test
    a = np.array([-3.5, -0.0, 0.0, 1.25, 7.0, *POW_IS_OFF])
    for base in (a, a[a != 0.0]):
        want, want_error = _first_error(lambda: ex._batch_pow(base, np.full_like(base, b)))
        got, got_error = _first_error(lambda: ex._batch_pow(base, b))
        assert got_error == want_error
        if want_error is None:
            assert _hex(got) == _hex(want) == _hex(ex._pow(v, b) for v in base.tolist())


def test_a_runtime_exponent_takes_the_square_rule_per_element():
    tree = ex.parse("x1^x2 + x3")
    bases = np.array([*POW_IS_OFF, -2.5, 1.25, *POW_IS_OFF, 3.0])
    exponents = np.array([2.0, 2.0, 2.0, 0.5, 3.0, -1.0, 2.0])
    zeros = np.zeros_like(bases)
    want = [ex._pow(a, b) for a, b in zip(bases.tolist(), exponents.tolist())]
    assert want[:2] == [v * v for v in POW_IS_OFF]
    fn = ex.compile_expr(tree, XS)
    assert _hex(fn(bases, exponents, zeros)) == _hex(want)
    assert _hex(fn(*x) for x in zip(bases.tolist(), exponents.tolist(), zeros.tolist())) == _hex(want)
    kernel = ex.plan_kernel((tree,))
    assert _hex(kernel.batch(bases, exponents, zeros)[0]) == _hex(want)
    with pytest.raises(ex.BatchFault):  # a square that overflows among other powers
        fn(np.array([2.0, 1e200]), np.array([3.0, 2.0]), np.zeros(2))


# ---------------------------------------------------------------------------
# The register plan: array calls that compile nothing (docs/decisions.md, D13)


def _subtrees(e):
    """e and each of its subtrees."""
    return [e, *(n for c in vars(e).values() if isinstance(c, ex.Expr) for n in _subtrees(c))]


def _assert_plan_is_the_scalar_kernel(outputs, checked, points):
    """The plan's outputs are the compiled scalar kernel's at each point, by float.hex.  It faults exactly
    when a point's kernel call raises, or a subtree there has a value that is not finite (eval_expr raises
    on it): the array arithmetic raises on every overflow, where float arithmetic may carry an inf on."""
    xs = tuple(np.array(c, dtype=float) for c in zip(*points))
    kernel = ex.compile_kernel(outputs, checked)
    got, error = _first_error(lambda: ex.plan_kernel(outputs, checked).batch(*xs))
    scalar = [_first_error(lambda: kernel(*x)) for x in points]
    subtrees = [n for e in (*outputs, *checked) for n in _subtrees(e)]
    walks = [_first_error(lambda: [ex.eval_expr(n, dict(zip(XS, x))) for n in subtrees]) for x in points]
    assert (error is not None) == any(e is not None for _, e in scalar + walks)
    if error is None:
        assert len(got) == len(outputs)
        for i, value in enumerate(got):
            assert value.shape == xs[0].shape and _hex(value) == _hex(v[i] for v, _ in scalar)
    else:
        assert error[0] is ex.BatchFault


@settings(max_examples=400, deadline=None)
@given(forests(), st.lists(st.tuples(*(st.sampled_from(_COORDS) | st.floats(-4.0, 4.0),) * 3), min_size=1, max_size=5))
def test_plan_equals_the_compiled_scalar_kernel(forest, points):
    outputs, checked = forest
    _assert_plan_is_the_scalar_kernel(outputs, checked, points)


def test_plan_cases():
    x1, x2, two = ex.Var("x1"), ex.Var("x2"), ex.Lit(2.0)
    # D10's liveness tree: -(-(2.0)) takes a register only once -(2.0) / sqrt(x2) has read -(2.0)
    liveness = ex.Neg(two) / ex.Call("sqrt", x2) + ex.Neg(ex.Neg(two)) / ex.Neg(ex.Neg(two))
    _assert_plan_is_the_scalar_kernel((liveness,), (), [(0.7, 0.2, 1.3), (-1.5, 2.0, 0.25)])
    _assert_plan_is_the_scalar_kernel((liveness,), (), [(0.7, 0.2, 1.3), (0.7, -0.2, 1.3)])  # sqrt faults
    # an intermediate that overflows: the float value is 0.0, the array arithmetic faults
    _assert_plan_is_the_scalar_kernel((ex.parse("1/(x1*x1)"),), (), [(2.0, 0.0, 0.0), (1e300, 0.0, 0.0)])
    # constant trees, broadcast to the input shape
    constants = (ex.Lit(2.5), ex.Call("exp", ex.Lit(1.0)), ex.Lit(1.0) - ex.Lit(3.0), ex.Lit(-0.0))
    _assert_plan_is_the_scalar_kernel(constants, (), [(0.1, 0.2, 0.3), (1.0, 2.0, 3.0), (-1.0, 0.0, 5.0)])
    assert ex.compile_expr(ex.Lit(2.5), XS)(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros((2, 3))).shape == (2, 3)
    # a runtime exponent: _pow per element, the square rule included
    bases, exponents = (*POW_IS_OFF, -2.5, 1.25, 3.0), (2.0, 2.0, 2.0, 0.5, -1.0)
    power = ex.pow_(x1, x2)
    _assert_plan_is_the_scalar_kernel((power,), (), [(a, b, 0.0) for a, b in zip(bases, exponents)])
    _assert_plan_is_the_scalar_kernel((power,), (), [(-2.5, 0.5, 0.0)])  # a negative base, a non-integer exponent
    # finite checked values whose sum overflows
    _assert_plan_is_the_scalar_kernel((x1 - x2,), (x1, x2), [(1.0, 2.0, 0.0), (1e308, 1e308, 0.0)])
    _assert_plan_is_the_scalar_kernel((x1 - x2,), (x1, x2), [(1.0, 2.0, 0.0), (1e308, -1e308, 0.0)])


def test_an_array_call_runs_the_plan_before_and_after_a_float_call(monkeypatch):
    sources, built, ran = [], [], []
    monkeypatch.setattr(ex, "compile", lambda src, *args: sources.append(src) or compile(src, *args), raising=False)
    plan_of, run = ex._plan_of, plan._Plan.run
    monkeypatch.setattr(ex, "_plan_of", lambda *args: built.append(plan_of(*args)) or built[-1])
    monkeypatch.setattr(plan._Plan, "run", lambda p, ops, xs: ran.append(p) or run(p, ops, xs))
    fn = ex.compile_expr(ex.parse("x1^2 + sin(x2)"), XS)
    xs = (np.array([0.5, 1.5]), np.array([1.0, 2.0]), np.zeros(2))
    first = fn(*xs)
    assert _hex(first) == _hex([0.5 * 0.5 + math.sin(1.0), 1.5 * 1.5 + math.sin(2.0)])
    assert fn(0.5, 1.0, 0.0) == first[0]  # a float call runs the same plan
    assert _hex(fn(*xs)) == _hex(first)
    assert fn(1.5, 2.0, 0.0) == first[1]
    assert sources == [] and len(built) == 1 and len(ran) == 4 and all(p is built[0] for p in ran)


@pytest.mark.parametrize("n", [2, 4])
def test_a_callable_takes_exactly_its_variables(n):
    # a float run reads its arguments into the plan's first registers, so a wrong count must not reach it
    fn = ex.compile_expr(ex.parse("x1 * x2 + x3"), XS)
    message = re.escape(f"kernel() takes 3 positional arguments but {n} were given")
    for args in ([1.0] * n, [np.ones(2)] * n):
        with pytest.raises(TypeError, match=message):
            fn(*args)
    assert fn(2.0, 3.0, 4.0) == 10.0 and fn(*[np.full(2, 2.0)] * 3).tolist() == [6.0, 6.0]


def test_plan_depth_and_variables_follow_the_writer():
    unbound = re.escape("variables ['u'] not provided by ('x1', 'x2', 'x3')")
    for build in (ex.plan_kernel, ex.compile_kernel):  # both read the depth rule and the variables off one layout
        assert build((_chain(200, ex.Neg),)) is not None
        assert build((ex.Var("x2"),), (_chain(201, ex.Neg),)) is None
        assert build((_chain(5000, ex.Neg),)) is None  # far too deep to walk: None, not a RecursionError
        with pytest.raises(ex.UnboundVariableError, match=unbound):
            build((ex.Var("x1") + ex.Var("u"),))
        assert build((_chain(201, ex.Neg) + ex.Var("u"),)) is None  # the depth test comes first
    deep = ex.compile_expr(_chain(201, ex.Neg), XS)
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        deep(np.zeros(2), np.zeros(2), np.zeros(2))


# ---------------------------------------------------------------------------
# Integrators: kernel path against forced replay


def _raising_kernels(*args, **kwargs):
    def kernel(*x):
        raise RuntimeError("forced replay")

    return kernel


def _assert_same_outcome(monkeypatch, run):
    traj, error = run_outcome(run)
    with monkeypatch.context() as m:
        m.setattr(ex, "compile_kernel", _raising_kernels)
        replay_traj, replay_error = run_outcome(run)
    if error is None:
        assert replay_error is None, replay_error
        assert_same_trajectory(traj, replay_traj)
        return traj
    assert_same_error(replay_error, error)
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


def _charts(spec):
    """The spec's charts at k = 1, 2, 3, leaving out those whose hypothesis fails."""
    charts = []
    for k in (1, 2, 3):
        try:
            charts.append(build_chart(spec, k=k))
        except HypothesisViolationError:
            pass
    return charts


def _stage_x(chart, y):
    """x(y) as a reduced stage takes it: zeta_k's value, unpolished, where zeta_k exists, else one root solve."""
    i, j, k = cyclic(chart.k)
    spec, x = chart.spec, list(y)
    psi_j = spec.psi(j, y[j - 1])
    target = inverse_target(chart, spec.psi(i, y[i - 1]), psi_j, y[k - 1])
    field = spec.field(k)
    x[k - 1] = psi_inverse(field, target) if field.zeta is None else field.zeta_fn(target)
    return x


def _reduced_replay(chart, H, y):
    """The reduced right-hand side's per-expression path at y: _reduced_flow on floats at the stage's x."""
    i, j, k = cyclic(chart.k)
    x = _stage_x(chart, y)
    phis = [chart.spec.phi(a, x[a - 1]) for a in (i, j, k)]
    return dynamics._reduced_flow(H.gradient(*x), *phis, y[k - 1], i, j, k)


def _kernel_arguments(chart, y):
    """What a reduced stage passes its kernel: y itself where zeta_k makes x_k(y) in the kernel, else x(y)."""
    return y if chart.spec.field(chart.k).zeta is not None else _stage_x(chart, y)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_job_kernels_equal_the_per_expression_jobs(case):
    # bit for bit at sampled points: a one-ulp change in the RHS often rounds
    # away in the state update, so trajectories alone would not show it
    _, spec, h, _, _ = case
    H = dynamics.as_hamiltonian(h)
    points = [tuple(map(float, x)) for x in spec.domain.sample(300, 6)]
    rhs = dynamics._rhs_kernel(spec, H)
    assert [_hex(rhs(*x)) for x in points] == [_hex(dynamics._j_grad_h(spec, H, *x)) for x in points]
    for chart in _charts(spec):  # charts without zeta_k too: their stages pass the root-finder's x_k
        ys = [tuple(map(float, forward_map(chart, x))) for x in points]  # y_k is each kernel's literal
        got = [_hex(dynamics._reduced_kernel(chart, H, y[chart.k - 1])(*_kernel_arguments(chart, y))) for y in ys]
        assert got == [_hex(_reduced_replay(chart, H, y)) for y in ys], chart.k


@pytest.mark.parametrize("case", CASES[:2], ids=[c[0] for c in CASES[:2]])
def test_job_kernels_raise_on_their_own_lines(monkeypatch, case):
    # halphen's and euler-top's direct and reduced kernels: a walk's outcome at each point
    _, spec, h, _, _ = case
    H = dynamics.as_hamiltonian(h)
    written, compile_kernel = [], ex.compile_kernel
    monkeypatch.setattr(ex, "compile_kernel", lambda *trees: written.append(trees) or compile_kernel(*trees))
    points = [tuple(map(float, x)) for x in spec.domain.sample(100, 6)]
    jobs = [(dynamics._rhs_kernel(spec, H), points)]
    for chart in _charts(spec):  # y_k of the first point's image; the walk reads each tree at the point itself
        jobs.append((dynamics._reduced_kernel(chart, H, float(forward_map(chart, points[0])[chart.k - 1])), points))
    assert len(written) == len(jobs) > 1
    for (kernel, at), trees in zip(jobs, written):
        assert _inlined_raises(kernel.source) == []
        assert [_kernel_outcome(kernel, x) for x in at] == [_walk(*trees, x) for x in at]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_integrate_kernel_equals_replay(monkeypatch, case, method):
    _, spec, h, x0, dt = case
    _assert_same_outcome(monkeypatch, lambda: integrate(spec, h, x0, 40 * dt, dt, method, casimir_k="auto"))


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_integrate_reduced_kernel_equals_replay(monkeypatch, case, method):
    # every chart index: a reduced step places y_k in the kernel's k-th argument
    _, spec, h, x0, _ = case
    charts = _charts(spec)
    if not charts:
        pytest.skip("chart hypothesis fails for this member")
    for chart in charts:
        y0 = forward_map(chart, x0)
        _assert_same_outcome(monkeypatch, lambda: integrate_reduced(chart, h, y0, 0.05, 1e-3, method))


def _formula_step(method, rhs, dt, state):
    """One step of the method's formula over lists, stage by stage: the reference for the float steppers."""
    k1 = rhs(state)
    k2 = rhs([s + 0.5 * dt * k for s, k in zip(state, k1)])
    if method == "midpoint":
        return [s + dt * k for s, k in zip(state, k2)]
    k3 = rhs([s + 0.5 * dt * k for s, k in zip(state, k2)])
    k4 = rhs([s + dt * k for s, k in zip(state, k3)])
    return [s + dt / 6.0 * (a + 2.0 * b + 2.0 * c + d) for s, a, b, c, d in zip(state, k1, k2, k3, k4)]


@pytest.mark.parametrize("method", ["rk4", "midpoint"])
@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_steps_are_the_formula_bit_for_bit(method, k):
    # direct (k None) and reduced at each chart index, where y_k takes the kernel's k-th argument
    _, spec, h, x0, dt = CASES[0]
    H = dynamics.as_hamiltonian(h)
    if k is None:
        traj = integrate(spec, h, x0, 30 * dt, dt, method, casimir_k=None)
        rhs, rows, got = lambda x: dynamics._j_grad_h(spec, H, *x), [list(x0)], traj.states
    else:
        chart = build_chart(spec, k=k)
        i, j, _ = cyclic(k)
        y0 = [float(v) for v in forward_map(chart, x0)]
        traj = integrate_reduced(chart, h, y0, 0.03, 1e-3, method)

        def rhs(pair):
            y = list(y0)
            y[i - 1], y[j - 1] = pair
            return _reduced_replay(chart, H, y)

        rows, got = [[y0[i - 1], y0[j - 1]]], traj.states[:, [i - 1, j - 1]]
        assert _hex(traj.states[:, k - 1]) == _hex([y0[k - 1]] * len(traj))
    for _ in range(len(traj) - 1):
        rows.append(_formula_step(method, rhs, traj.dt, rows[-1]))
    assert _hex(got.ravel()) == _hex(np.array(rows).ravel())


def _kernels_raising_once(call: int, raised: list):
    """compile_kernel whose kernels raise on their call-th scalar call only (noted in raised)."""
    compile_kernel = ex.compile_kernel

    def compile_raising(*args, **kwargs):
        kernel = compile_kernel(*args, **kwargs)
        if kernel is None:
            return None
        calls = 0

        def once(*x):
            nonlocal calls
            calls += 1
            if calls == call:
                raised.append(x)
                raise RuntimeError("forced fault")
            return kernel(*x)

        return once

    return compile_raising


# stage 3 of step 7 (rk4) and stage 2 of step 7 (midpoint): the fault comes after stages of its step
@pytest.mark.parametrize("method, call", [("rk4", 6 * 4 + 3), ("midpoint", 6 * 2 + 2)])
@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_a_fault_inside_a_step_replays_the_whole_step(monkeypatch, method, call, k):
    # the step must run again from its state: no stage value of the faulted attempt may leak into it
    _, spec, h, x0, dt = CASES[0]
    if k is None:
        run = lambda: integrate(spec, h, x0, 20 * dt, dt, method, casimir_k=3)
    else:
        chart = build_chart(spec, k=k)
        y0 = forward_map(chart, x0)
        run = lambda: integrate_reduced(chart, h, y0, 0.02, 1e-3, method)
    raised = []
    with monkeypatch.context() as m:
        m.setattr(ex, "compile_kernel", _kernels_raising_once(call, raised))
        traj, error = run_outcome(run)
    assert error is None and len(raised) == 1
    with monkeypatch.context() as m:
        m.setattr(ex, "compile_kernel", _raising_kernels)
        replay_traj, replay_error = run_outcome(run)
    assert replay_error is None
    assert_same_trajectory(traj, replay_traj)


def test_integrators_take_the_kernels(monkeypatch):
    # one kernel, the right-hand side's; the ledger is casimir_value, once for row 0 and once per block of rows
    calls, kernels, ledger = [], [], []
    compile_kernel = ex.compile_kernel
    monkeypatch.setattr(ex, "compile_kernel", lambda *a, **k: kernels.append(a) or compile_kernel(*a, **k))
    monkeypatch.setattr(dynamics, "structure_matrix_at", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(
        dynamics, "casimir_value", lambda spec, k, x: ledger.append(type(x[0])) or casimir_value(spec, k, x)
    )
    monkeypatch.setattr(dynamics, "BLOCK", 4)
    halphen = make_halphen(WIDE_BOX)
    traj = integrate(halphen, ex.parse("x1*x2 + x3"), (1.0, 2.0, 4.0), 0.1, 0.01, casimir_k=3)
    assert calls == [] and len(kernels) == 1 and len(traj) == 11
    assert ledger == [float, np.ndarray, np.ndarray, np.ndarray]  # the ten steps in blocks of 4, 4 and 2


@pytest.mark.parametrize("kind", ["integrate", "integrate_reduced", "integrate_reduced-no-zeta"])
def test_a_wide_box_run_compiles_its_job_kernel_alone(monkeypatch, kind):
    # compile_expr's callables run register plans on floats too (H and C_k at row 0, the chart's maps), so
    # the one source a run compiles is its right-hand side's job kernel, with or without zeta_k
    spec = halphen_structure(default_halphen_domain(((-4.0, 6.0),) * 3))
    h = ex.parse("(x1^2 + x2^2 + x3^2)/2")
    if kind == "integrate_reduced-no-zeta":
        spec = without_zeta(spec)
    sources = []
    monkeypatch.setattr(ex, "compile", lambda src, *args: sources.append(src) or compile(src, *args), raising=False)
    if kind == "integrate":
        traj = integrate(spec, h, (1.0, 2.0, 4.0), 0.5, 0.01, casimir_k=3)
        compiled = sources[:]
        kernel = dynamics._rhs_kernel(spec, dynamics.as_hamiltonian(h))
    else:
        chart = build_chart(spec, 3)
        y0 = tuple(map(float, forward_map(chart, (1.0, 2.0, 4.0))))
        traj = integrate_reduced(chart, h, y0, -0.05, 1e-3)
        compiled = sources[:]
        kernel = dynamics._reduced_kernel(chart, dynamics.as_hamiltonian(h), y0[2])
    assert compiled == [kernel.source]
    assert len(traj) == 51


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


def test_hamiltonian_with_a_too_deep_gradient_keeps_the_per_expression_path(monkeypatch):
    # d/dx1 of 100 nested quotients is deeper than compile_expr compiles: no kernel computes it either
    h = "x1"
    for _ in range(100):
        h = f"({h})/x2"
    spec = make_flat_spec()
    error = _assert_same_outcome(monkeypatch, lambda: integrate(spec, ex.parse(h), (0.5, 0.3, -0.6), 0.1, 0.01))
    assert isinstance(error, ex.ParseError) and "nested too deeply" in str(error)


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
