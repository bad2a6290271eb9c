"""The batch binding is exact: same floats as the scalar binding, same faults after replay.

Sampled Jacobi and canonical checks, chart tables and domain sampling run
over numpy arrays.  Every
comparison here is float equality (==), never a tolerance: the batch path
must reproduce the scalar path bit for bit, and where it faults the scalar
path must run and report exactly what it reports on its own.
"""

import ast
import json
import math
import random
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import darboux, scalar_fields
from poisson3d import expr as ex
from poisson3d import verification
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.casimir import (
    CHART_SAMPLES,
    best_casimir_index,
    casimir_expr,
    casimir_gradient_fd,
    chi_table,
    cyclic,
    denominator_threshold,
)
from poisson3d.cli import main
from poisson3d.darboux import (
    DarbouxChart,
    build_chart,
    canonical_check,
    forward_map,
    inverse_map,
    jacobian_forward,
    pushforward_matrix,
)
from poisson3d.errors import (
    DomainEvalError,
    DomainMembershipError,
    DomainSamplingError,
    FieldValidationError,
    HypothesisViolationError,
    OutOfRangeError,
    UndefinedAtPointError,
)
from poisson3d.family import StructureMatrixValue, chi, make_family_spec, make_kappa, structure_matrix_at
from poisson3d.scalar_fields import (
    DomainBox,
    Field3,
    ScalarField1D,
    axis_sign,
    _checked_field,
    build_scalar_field,
    psi_inverse,
    unit_uniforms,
)
from poisson3d.testing import random_family_spec
from poisson3d.verification import matrix_field_from_spec, verify_structure
from conftest import ORDERED_BOX, make_flat_spec
from helpers import gen_expr, small_chi_claim_problem

# every function, and ^ with integer, negative, non-integer and variable exponents
EXACT_CASES = (
    "exp(x1) * sin(x2) - cos(x3)",
    "ln(x1 + 0.3) / sqrt(x2) + abs(x3 - 1.1)",
    "sign(x1 - 1.05) * x2 + sign(x3 + 1)",
    "x1^2 + x2^3 - x3^-1 + (x1 - x2)^2 + (x2 - 1.2)^3",
    "x1^2.5 - x2^0.5 + x3^-1.5 + x1^x2",
    "exp(-x1^2) * cos(3*x2) / (1 + x3^2)",
    "-x1 / (x2 - 0.01) - -x3",
    "sqrt(abs(sin(7*x1) * x2)) + ln(exp(x3))",
    "2.5",
)


def _points(n, seed, lo=0.1, hi=2.0):
    return np.random.default_rng(seed).uniform(lo, hi, (n, 3))


# ---------------------------------------------------------------------------
# The one fault rule: ex.batched (docs/decisions.md, D12)


def _not_called():
    raise AssertionError("per_point ran")


def test_batched_returns_the_array_value():
    value = np.array([1.0, 2.0])
    assert ex.batched(lambda: value, _not_called) is value


def _divide_by_zero():
    return np.array([1.0]) / np.array([0.0])


def _raising(error):
    def on_arrays():
        raise error

    return on_arrays


@pytest.mark.parametrize("on_arrays", [
    _divide_by_zero,  # a floating-point exception, a BatchFault under batch_arithmetic
    lambda: ex.compile_expr(ex.parse("ln(x1)"))(np.array([-1.0]), np.array([0.0]), np.array([0.0])),
    _raising(UndefinedAtPointError("a guard on arrays")),  # a PoissonError
    _raising(OutOfRangeError("a target on arrays")),
], ids=["divide", "domain", "guard", "range"])
def test_batched_replays_on_a_fault_or_a_package_error(on_arrays):
    assert ex.batched(on_arrays, lambda: "replayed") == "replayed"


def test_batched_runs_the_arrays_under_the_fault_rule_and_the_replay_outside_it():
    default, seen = np.geterr(), {}

    def on_arrays():
        seen["arrays"] = np.geterr()
        return _divide_by_zero()

    def per_point():
        seen["replay"] = np.geterr()
        return "replayed"

    assert ex.batched(on_arrays, per_point) == "replayed"
    assert seen == {"arrays": {"divide": "raise", "over": "raise", "under": "ignore", "invalid": "raise"},
                    "replay": default}


@pytest.mark.parametrize("error", [TypeError("a program error"), KeyError("x1"), AssertionError()])
def test_batched_lets_other_exceptions_through(error):
    with pytest.raises(type(error)):
        ex.batched(_raising(error), _not_called)


def test_batched_looks_the_fault_rule_up_per_call(monkeypatch):
    monkeypatch.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
    assert ex.batched(_not_called, lambda: "replayed") == "replayed"


def test_an_array_call_enters_the_errstate_only_outside_a_pass(monkeypatch):
    entered, errstate = [], np.errstate
    monkeypatch.setattr(np, "errstate", lambda **rule: entered.append(rule) or errstate(**rule))
    reciprocal = ex.compile_expr(ex.parse("1/x1"))
    call = lambda: reciprocal(np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))

    with pytest.raises(ex.BatchFault, match="divide by zero"):  # a direct call runs under its own errstate
        call()
    assert len(entered) == 1
    with pytest.raises(ex.BatchFault, match="divide by zero"):  # nested: the pass's errstate, the call's BatchFault
        with ex.batch_arithmetic():
            call()
    assert len(entered) == 2
    assert ex.batched(call, lambda: "replayed") == "replayed"
    assert len(entered) == 3

    seen = []  # another thread is another context: it enters an errstate of its own
    with ex.batch_arithmetic():
        worker = threading.Thread(target=lambda: seen.append(ex.batched(call, lambda: "replayed")))
        worker.start()
        worker.join()
    assert seen == ["replayed"] and len(entered) == 5


_FAULT_RULE = {"BatchFault", "batch_arithmetic"}


def _fault_rule_uses(path):
    """The lines of path's code (not its docstrings) that name BatchFault or batch_arithmetic."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        names = (
            [node.id] if isinstance(node, ast.Name)
            else [node.attr] if isinstance(node, ast.Attribute)
            else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
            else []
        )
        uses += [node.lineno for name in names if name in _FAULT_RULE]
    return uses


def test_only_expr_names_the_fault_rule():
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "poisson3d").glob("*.py"))
    assert len(modules) >= 13 and _fault_rule_uses(modules[0].with_name("expr.py"))
    elsewhere = {path.name: _fault_rule_uses(path) for path in modules if path.name != "expr.py"}
    assert {name: lines for name, lines in elsewhere.items() if lines} == {}


def _function_type_namespaces(path):
    """The namespaces that path's FunctionType(code, namespace) calls bind generated code to."""
    tree = ast.parse(path.read_text(), str(path))
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [ast.unparse(call.args[1]) for call in calls if ast.unparse(call.func).endswith("FunctionType")]


def test_generated_code_is_bound_to_the_scalar_namespace_alone():
    # arrays run register plans, so the code the writer generates is bound once, for floats
    modules = sorted((Path(__file__).resolve().parents[1] / "src" / "poisson3d").glob("*.py"))
    bindings = {path.name: _function_type_namespaces(path) for path in modules}
    assert {name: found for name, found in bindings.items() if found} == {"expr.py": ["_SCALAR_NS"]}
    x1 = ex.Var("x1")
    fn = ex.compile_expr(ex.Call("sin", x1) * x1, ("x1", "x2", "x3"))
    assert fn(0.5, 0.0, 0.0) == math.sin(0.5) * 0.5  # compiles fn's kernel
    assert not hasattr(fn._kernel, "batch") and not hasattr(ex.compile_kernel((x1 * x1,)), "batch")


@pytest.mark.parametrize("source", EXACT_CASES)
def test_compile_batch_equals_compile_expr(source):
    tree = ex.parse(source)
    scalar, batch = ex.compile_expr(tree), ex.compile_expr(tree)
    xs = _points(10_000, 5)
    got = batch(xs[:, 0], xs[:, 1], xs[:, 2])
    want = [scalar(*x) for x in xs.tolist()]
    assert got.shape == (10_000,)
    assert got.tolist() == want


def test_compile_batch_on_random_trees():
    # random trees either fault in the batch or agree everywhere; a scalar
    # fault at any point means the batch faulted
    rng = random.Random(11)
    xs = _points(500, 6, -2.0, 2.0)
    agreed = 0
    for _ in range(300):
        tree = gen_expr(rng, 4)
        scalar, batch = ex.compile_expr(tree), ex.compile_expr(tree)
        want = []
        for x in xs.tolist():
            try:
                want.append(scalar(*x))
            except DomainEvalError:
                want.append(None)
        try:
            got = batch(xs[:, 0], xs[:, 1], xs[:, 2]).tolist()
        except ex.BatchFault:
            continue
        assert got == want, ex.to_source(tree)
        agreed += 1
    assert agreed >= 100


@pytest.mark.parametrize(
    "source",
    ["ln(x1 - 1)", "sqrt(x1 - 1)", "sign(x1 - x1)", "1/(x1 - x1)", "(x1 - 1)^0.5",
     "exp(1000*x3)", "x1^4000", "x1*1e300*1e300", "sin(x1*1e300*1e300)"],
)
def test_compile_batch_faults(source):
    tree = ex.parse(source)
    xs = _points(100, 7)
    with pytest.raises(ex.BatchFault):
        ex.compile_expr(tree)(xs[:, 0], xs[:, 1], xs[:, 2])


def test_intermediate_overflow_replays_to_the_scalar_value():
    # the scalar binding lets 1/inf become 0; the batch faults and the caller replays
    tree = ex.parse("1/(x1*1e300*1e300) + x2")
    xs = _points(10, 8)
    with pytest.raises(ex.BatchFault):
        ex.compile_expr(tree)(xs[:, 0], xs[:, 1], xs[:, 2])
    assert ex.compile_expr(tree)(1.0, 2.0, 3.0) == 2.0


# ---------------------------------------------------------------------------
# The vectorized sampler against a per-index oracle

_M64 = (1 << 64) - 1


def _mix64_int(z):
    z = (z + 0x9E3779B97F4A7C15) & _M64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _oracle_uniforms(seed, index, count):
    """count uniforms of (seed, index) by integer splitmix64, as Python floats."""
    state = _mix64_int((seed & _M64) ^ _mix64_int(index))
    out = []
    for _ in range(count):
        state = _mix64_int(state)
        out.append((state >> 11) / float(1 << 53))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**63 + 5])
def test_unit_uniforms_match_integer_splitmix64(seed):
    # more indices than one _MIN_CHUNK draw, and the largest uint64
    indices = [*range(2 * scalar_fields._MIN_CHUNK + 3), 12345, 2**40 + 3, 2**64 - 1]
    got = unit_uniforms(seed, indices, 3)
    assert got.tolist() == [_oracle_uniforms(seed, index, 3) for index in indices]
    assert all(got[:, c].flags.c_contiguous for c in range(3))


def _oracle_draw(box, n, seed):
    """DomainBox.draw as a per-index loop in Python floats: lo + (hi - lo) u per axis, contains deciding."""
    points, indices, budget = [], [], 100 * n
    for index in range(budget):
        x = [lo + (hi - lo) * u for u, (lo, hi) in zip(_oracle_uniforms(seed, index, 3), box.intervals)]
        if box.contains(x):
            points.append(x)
            indices.append(index)
            if len(points) == n:
                return points, indices
    raise DomainSamplingError(f"only {len(points)} of {n} admissible points in {budget} draws")


def _assert_same_sample(box, n, seed):
    want, want_indices = _oracle_draw(box, n, seed)
    points, indices = box.draw(n, seed)
    for got in (box.sample(n, seed), points):
        assert got.shape == (n, 3)
        assert got.tolist() == want
        assert all(got[:, a].flags.c_contiguous for a in range(3))  # coordinate columns (D20)
    assert indices.tolist() == want_indices


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("seed", [0, 42])
def test_sample_matches_oracle_on_builtins(name, seed):
    spec, _ = build_system(name)
    _assert_same_sample(spec.domain, 700, seed)


@pytest.mark.parametrize("seed", [1, 42])
def test_sample_matches_oracle_on_random_specs(seed):
    for i in range(0, 40, 3):
        _assert_same_sample(random_family_spec(i, seed).domain, 150, seed)


def test_sample_with_faulting_predicate_matches_oracle():
    # ln faults on half the box, so every chunk falls back to contains() per point
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("ln(x1 - 0.5)"))
    with pytest.raises(ex.BatchFault):
        box.predicate_fn(np.array([0.2]), np.array([0.5]), np.array([0.5]))
    _assert_same_sample(box, 300, 3)


def test_a_low_acceptance_draw_matches_oracle_across_chunks(monkeypatch):
    # about one index in twenty is admissible: each chunk rejects some, and 300 points take several chunks
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("(0.05 - x1) + abs(0.05 - x1)"))
    kept, admissible = [], DomainBox.admissible
    monkeypatch.setattr(DomainBox, "admissible", lambda self, xs: kept.append(admissible(self, xs)) or kept[-1])
    _assert_same_sample(box, 300, 5)
    assert len(kept) > 2 * 2  # sample and draw, more than one chunk each
    assert not any(k.all() for k in kept)


def test_sampling_error_text_matches_oracle():
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("(0.005 - x1) + abs(0.005 - x1)"))
    with pytest.raises(DomainSamplingError) as got:
        box.sample(100, 0)
    with pytest.raises(DomainSamplingError) as want:
        _oracle_draw(box, 100, 0)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("of 100 admissible points in 10000 draws")


def test_predicate_at_the_zero_floor_is_rejected():
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("1e-12 + 0*x1"))
    with pytest.raises(DomainSamplingError, match="^only 0 of 10 admissible points in 1000 draws$"):
        box.sample(10, 0)


# ---------------------------------------------------------------------------
# DomainBox.admissible: whole columns, gathered rows or per-row replay, each equal to contains

_ADMISSIBLE_PREDICATES = {
    "plain box": None,
    "difference product": "(x1 - x2)*(x2 - x3)*(x3 - x1)",
    "faults on part of the box": "ln(x1 - 0.5)",
}
_ADMISSIBLE_LAYOUTS = {
    "C-ordered rows": np.ascontiguousarray,  # as dynamics passes its states
    "transposed view": lambda rows: np.array(rows.T).T,  # as the sampler hands its points out
}


def _recording_predicate(box):
    """box with its predicate_fn recording each array call's arguments."""
    calls, fn = [], box.predicate_fn

    def record(*xs):
        if isinstance(xs[0], np.ndarray):
            calls.append(xs)
        return fn(*xs)

    object.__setattr__(box, "predicate_fn", record)
    return calls


@pytest.mark.parametrize("layout", sorted(_ADMISSIBLE_LAYOUTS))
@pytest.mark.parametrize("predicate", sorted(_ADMISSIBLE_PREDICATES))
@pytest.mark.parametrize("spread", [0.0, 0.25])
def test_admissible_equals_contains_row_by_row(predicate, layout, spread):
    # spread 0: every row in the box [0, 1]^3, some on its faces; else some rows outside it
    text = _ADMISSIBLE_PREDICATES[predicate]
    box = DomainBox(((0.0, 1.0),) * 3, None if text is None else ex.parse(text))
    rows = np.random.default_rng(3).uniform(-spread, 1.0 + spread, (400, 3))
    rows[:3] = [[0.0, 0.5, 1.0], [1.0, 0.0, 0.5], [0.5, 0.5, 0.25]]  # the last on x1 = x2 = 0.5
    xs = _ADMISSIBLE_LAYOUTS[layout](rows)
    calls = [] if text is None else _recording_predicate(box)
    got = box.admissible(xs)
    assert got.tolist() == [box.contains(x) for x in rows.tolist()]
    assert got.any() and got.all() == (text is None and spread == 0.0)
    if text is None:
        return
    (args,) = calls  # one array pass; a fault replays per row through contains
    inside = np.flatnonzero([all(0.0 <= v <= 1.0 for v in x) for x in rows.tolist()])
    if spread == 0.0:  # whole columns, not copied
        assert all(np.shares_memory(a, xs) for a in args) and len(args[0]) == len(rows)
    else:  # the rows inside, gathered
        assert [a.tolist() for a in args] == [rows[inside, c].tolist() for c in range(3)]


def test_first_outside_reads_a_coordinate_array_in_place():
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("x1 + 1"))
    calls = _recording_predicate(box)
    xs = np.array([[0.2, 0.4, 0.6], [0.1, 0.9, 0.3], [0.5, 0.5, 0.5]])
    assert box.first_outside(xs) is None and all(np.shares_memory(a, xs) for a in calls[0])
    xs[1, 2] = 1.5
    assert box.first_outside(xs) == 2 and box.first_outside(tuple(xs)) == 2


# ---------------------------------------------------------------------------
# verify_structure: batch report equals the per-point report


def _recording(monkeypatch, module, kernel_of):
    """Records how each array pass of module's sampled check went, through ex.batched.

    "kernel" or "per-expression" when it returns, as module.<kernel_of>
    gave the pass a kernel or none; "fault" when it raises.  A pass that
    ex.batch_arithmetic refuses never runs and is not recorded.
    """
    outcomes, kernels = [], []
    make_kernel, batched = getattr(module, kernel_of), ex.batched
    monkeypatch.setattr(module, kernel_of, lambda *args: kernels.append(make_kernel(*args)) or kernels[-1])

    def recording(on_arrays, per_point):
        if on_arrays.__module__ != module.__name__:  # the sampler's, the chart's and the grid's passes
            return batched(on_arrays, per_point)

        def noted():
            kernels.clear()
            try:
                values = on_arrays()
            except Exception:
                outcomes.append("fault")
                raise
            outcomes.append("kernel" if kernels and kernels[-1] is not None else "per-expression")
            return values

        return batched(noted, per_point)

    monkeypatch.setattr(ex, "batched", recording)
    return outcomes


@pytest.fixture()
def batch_outcomes(monkeypatch):
    """Records how each batch residual pass went: through the kernel, per expression, or to a fault."""
    return _recording(monkeypatch, verification, "_jacobi_kernel")


def _faulting_batch_arithmetic():
    raise ex.BatchFault("forced per-point loop")


def _assert_same_report(monkeypatch, field, domain, n, seed, scheme):
    """The kernel, the per-expression batch and the per-point loop give one report."""
    run = lambda: verify_structure(field, domain, n, 1e-6, seed=seed, scheme=scheme)
    report = run()
    with monkeypatch.context() as m:
        m.setattr(verification, "_jacobi_kernel", lambda *args: None)
        per_expression = run()
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        per_point = run()
    assert report.to_dict() == per_expression.to_dict() == per_point.to_dict()
    assert report == per_expression == per_point


def _batch_paths(scheme):
    """_assert_same_report's batch passes when none faults: the fd scheme has no kernel."""
    return ["kernel" if scheme == "analytic" else "per-expression", "per-expression"]


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_verify_batch_equals_scalar_on_builtins(monkeypatch, batch_outcomes, name, scheme):
    spec, _ = build_system(name)
    _assert_same_report(monkeypatch, matrix_field_from_spec(spec), spec.domain, 1500, 42, scheme)
    assert batch_outcomes == _batch_paths(scheme)


@pytest.mark.parametrize("seed", [1, 42])
def test_verify_batch_equals_scalar_on_random_specs(monkeypatch, batch_outcomes, seed):
    for i in range(40):
        spec = random_family_spec(i, seed)
        field = matrix_field_from_spec(spec)
        for scheme in ("analytic", "fd"):
            _assert_same_report(monkeypatch, field, spec.domain, 120, seed, scheme)
    assert batch_outcomes == (_batch_paths("analytic") + _batch_paths("fd")) * 40


def test_worst_point_is_the_first_maximum(monkeypatch, batch_outcomes):
    # J12 = J23 = 1, J31 = x1 on x1 <= 0.5: every residual is exactly 1/2
    field = verification.MatrixField3(ex.parse("1"), ex.parse("1"), ex.parse("x1"))
    box = DomainBox(((0.0, 0.5), (0.0, 1.0), (0.0, 1.0)))
    report = verify_structure(field, box, 200, 1e-6, seed=3)
    assert report.worst == 0.5
    assert report.worst_point == tuple(box.sample(200, 3)[0].tolist())
    assert batch_outcomes == ["kernel"]
    _assert_same_report(monkeypatch, field, box, 200, 3, "fd")


def test_verify_kernel_checks_the_six_partials_it_reads(monkeypatch):
    kernels = []
    monkeypatch.setattr(ex, "plan_kernel", lambda outputs, checked=(): kernels.append((outputs, checked)))
    field = matrix_field_from_spec(build_system("halphen")[0])
    verification._jacobi_kernel(field, "analytic")
    (outputs, checked), = kernels
    assert outputs[:3] == tuple(f.expr for f in field.fields)
    assert checked == tuple(field.fields[idx].partial_expr(axis) for idx, axis in verification._PARTIALS)
    assert verification._jacobi_kernel(field, "fd") is None and len(kernels) == 1


def test_a_sampled_checks_array_pass_compiles_nothing(monkeypatch):
    # the kernels and the per-expression callables run register plans on arrays: no source is compiled
    spec, _ = build_system("halphen")
    chart = build_chart(spec, seed=42)
    sources = []
    monkeypatch.setattr(ex, "compile", lambda src, *args: sources.append(src) or compile(src, *args), raising=False)
    for scheme in ("analytic", "fd"):
        verify_structure(matrix_field_from_spec(spec), spec.domain, 200, seed=42, scheme=scheme)
    assert sources == []
    canonical_check(chart, 100, seed=42)
    assert sources == []


def _spec_file(spec, path):
    """spec written as a CLI spec file."""
    axes = [{"phi": ex.to_source(f.phi), "psi": ex.to_source(f.psi)} for f in spec.fields]
    for axis, f in zip(axes, spec.fields):
        if f.zeta is not None:
            axis["zeta"] = ex.to_source(f.zeta)
    domain = {"box": [list(iv) for iv in spec.domain.intervals]}
    if spec.domain.predicate is not None:
        domain["predicate"] = ex.to_source(spec.domain.predicate)
    path.write_text(json.dumps({"name": spec.name, "eta": ex.to_source(spec.eta_expr), "axes": axes,
                                "kappa": [spec.kappa.k12, spec.kappa.k23], "domain": domain}))
    return str(path)


def test_spec_commands_compile_nothing(monkeypatch, capsys, tmp_path):
    # loading, the certificates, the sampled checks and the chart run on arrays, and the chart's root
    # solves run in lockstep on arrays: no source is compiled and no scalar root solve runs
    sources, solves = [], []
    monkeypatch.setattr(ex, "compile", lambda src, *args: sources.append(src) or compile(src, *args), raising=False)
    monkeypatch.setattr(scalar_fields, "_bracketed_solve", lambda *args: sources.append(args))
    lockstep = scalar_fields._lockstep_solve
    monkeypatch.setattr(scalar_fields, "_lockstep_solve", lambda *args: solves.append(args) or lockstep(*args))
    solved = 0
    for i in range(40):
        spec = random_family_spec(i, 42)
        path = _spec_file(spec, tmp_path / f"spec{i}.json")
        assert main(["verify", "--spec", path, "--samples", "200"]) == 0
        if main(["darboux", "--spec", path, "--check-samples", "100", "--seed", "42"]) == 0:
            if spec.field(build_chart(spec, seed=42).k).zeta is None:
                assert solves, i  # x_k comes from the root-finder, on arrays
                solved += 1
        assert sources == []
        solves.clear()
    capsys.readouterr()
    assert solved >= 5


def _peak_bytes(argv):
    """tracemalloc's peak over main(argv)."""
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_large_verify_holds_no_dead_arrays(monkeypatch, capsys):
    # a register is reused, or emptied, once its last reader has run, so the verify kernel's plan peaks at
    # least an array of 5000 floats below the same plan with the emptying switched off.  Python 3.11, numpy
    # 2.4, x86-64: 1.03 MB against 1.14 MB; a plan that never empties (1.15 MB) or that holds every
    # subtree's array until it returns (2.68 MB) reads about 6 KB above its own reference
    argv = ["verify", "--system", "halphen", "--samples", "5000"]
    assert main(argv) == 0  # builds the caches a first run fills
    planned = _peak_bytes(argv)
    plan_kernel = ex.plan_kernel

    def unemptied(*args):
        kernel = plan_kernel(*args)
        kernel.steps = [(*step[:4], -1) for step in kernel.steps]  # no step empties a dead register
        return kernel

    monkeypatch.setattr(ex, "plan_kernel", unemptied)
    reference = _peak_bytes(argv)
    capsys.readouterr()
    assert planned + 40_000 <= reference  # 5000 floats


def test_too_deep_partials_keep_the_per_expression_path(monkeypatch, batch_outcomes):
    # d/dx1 of 100 nested quotients is deeper than compile_expr compiles: no kernel, and the parent's error
    entry = "x1"
    for _ in range(100):
        entry = f"({entry})/x2"
    field = verification.MatrixField3(ex.parse("x3"), ex.parse(entry), ex.parse("x2"))
    box = DomainBox(((0.5, 1.0), (0.9, 1.1), (0.1, 1.0)))
    assert verification._jacobi_kernel(field, "analytic") is None
    with pytest.raises(ex.ParseError, match="nested too deeply"):
        verify_structure(field, box, 50, 1e-6, seed=7, scheme="analytic")
    with monkeypatch.context() as m:
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        with pytest.raises(ex.ParseError, match="nested too deeply"):
            verify_structure(field, box, 50, 1e-6, seed=7, scheme="analytic")
    assert batch_outcomes == ["fault"]  # the per-expression pass, which raised the compile error


# ---------------------------------------------------------------------------
# Fault replay through the CLI

FAULTING_ENTRIES = {
    "ln(x1 - 0.5)": "error: ln of non-positive value ",
    "1/(x1 - x1)": "error: float division by zero",
    "sign(x2 - x2)": "error: sign(0) is undefined",
    "exp(1000*x3)": "error: math range error",
    "(x3 + 1e160)^2": "error: math range error",  # the square overflows, its partial 2*(x3 + 1e160) does not
}


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
@pytest.mark.parametrize("entry", sorted(FAULTING_ENTRIES))
def test_fault_replay_matches_scalar_cli(tmp_path, capsys, monkeypatch, batch_outcomes, entry, scheme):
    path = tmp_path / "raw.json"
    path.write_text(json.dumps({
        "matrix": {"j12": "x3", "j23": entry, "j31": "x2"},
        "domain": {"box": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]},
    }))
    argv = ["verify", "--spec", str(path), "--samples", "400", "--scheme", scheme, "--seed", "7"]

    def run():
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    batch = run()
    assert batch_outcomes == ["fault"]
    with monkeypatch.context() as m:
        m.setattr(verification, "_jacobi_kernel", lambda *args: None)
        per_expression = run()
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        scalar = run()
    assert batch == per_expression == scalar
    assert batch_outcomes == ["fault"] * 2
    code, out, err = batch
    assert (code, out) == (2, "")
    assert err.startswith(FAULTING_ENTRIES[entry]) and err.count("\n") == 1


# ---------------------------------------------------------------------------
# canonical_check: batch report equals the per-point report


@pytest.fixture()
def canonical_outcomes(monkeypatch):
    """Records how each batch canonical pass went: through the gradient kernel, per expression, or handed over."""
    return _recording(monkeypatch, darboux, "_gradient_kernel")


def _outcome(fn):
    try:
        return fn().to_dict()
    except Exception as exc:  # the exception itself is the outcome to compare
        return type(exc), str(exc)


def _assert_same_canonical(monkeypatch, chart, n, seed):
    """The kernel, per-expression batch and forced per-point canonical checks agree exactly; returns the outcome."""
    run = lambda: _outcome(lambda: canonical_check(chart, n, seed=seed))
    batch = run()
    with monkeypatch.context() as m:
        m.setattr(darboux, "_gradient_kernel", lambda *args: None)
        per_expression = run()
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        scalar = run()
    assert batch == per_expression == scalar
    return batch


def _deviations_from_public_maps(chart, points):
    """max |pushforward / reparam_factor - canonical| at each point, from the public chart functions."""
    out = []
    for x in points:
        y = forward_map(chart, x)
        P = pushforward_matrix(chart, y).as_matrix() / darboux.reparam_factor(chart, y)
        out.append(float(np.max(np.abs(P - darboux.canonical_matrix(chart.k)))))
    return out


# euler-top's chi_31 changes sign on its box, so it has no chart for k = 2
CHARTED_BUILTINS = [(name, k) for name in BUILTIN_NAMES for k in (None, 1, 2, 3) if (name, k) != ("euler-top", 2)]


@pytest.mark.parametrize("oracle", ["analytic", "fd"])
@pytest.mark.parametrize("name, k", CHARTED_BUILTINS)
def test_canonical_batch_equals_scalar_on_builtins(monkeypatch, canonical_outcomes, name, k, oracle):
    spec, _ = build_system(name)
    chart = build_chart(spec, k, seed=42)
    report = _assert_same_canonical(monkeypatch, chart, 1000, 42)
    assert report["samples"] == 1000
    assert canonical_outcomes == _batch_paths("analytic")
    points = chart.spec.domain.sample(1000, 42)
    if oracle == "analytic":
        # every path above shares _deviation: the worst value must also be the public maps' one
        assert report["max_deviation"] == max(_deviations_from_public_maps(chart, points))
    else:
        # the Casimir row of dy/dx that every path uses, against the independent finite-difference route
        for x in points:
            row = jacobian_forward(chart, x)[chart.k - 1]
            assert np.max(np.abs(row + casimir_gradient_fd(spec, chart.k, x))) <= 1e-6 * np.max(np.abs(row))


@pytest.mark.parametrize("seed", [1, 42])
def test_canonical_batch_equals_scalar_on_random_specs(monkeypatch, canonical_outcomes, seed):
    checked, without_zeta = 0, 0
    for i in range(40):
        spec = random_family_spec(i, seed)
        try:
            chart = build_chart(spec, seed=seed)
        except HypothesisViolationError:
            continue  # rightly rejected charts have no canonical check
        _assert_same_canonical(monkeypatch, chart, 100, seed)
        checked += 1
        without_zeta += spec.field(chart.k).zeta is None
    assert checked >= 30
    assert without_zeta >= 5  # these solve every x_k with the lockstep root-finder
    assert canonical_outcomes == _batch_paths("analytic") * checked


def _unchecked_chart(spec, k):
    """A chart assembled without build_chart's hypothesis certificate."""
    return DarbouxChart(spec, k, (0, 0, 0), ((0.0, 0.0),) * 3, Field3(casimir_expr(spec, k)))


def test_canonical_worst_point_is_the_first_maximum(monkeypatch, canonical_outcomes):
    # a constant Casimir row leaves dy/dx = diag(1, 1, 0); on the flat spec
    # J'_12 / J_12 is then x / x = 1 and every deviation is exactly 0
    spec = make_flat_spec(ORDERED_BOX)
    chart = DarbouxChart(spec, 3, (1, 1, 1), ((0.0, 0.0),) * 3, Field3(ex.parse("0")))
    report = canonical_check(chart, 200, seed=3)
    assert report.worst == 0.0
    assert report.worst_point == tuple(forward_map(chart, spec.domain.sample(200, 3)[0]).tolist())
    assert canonical_outcomes == ["kernel"]
    _assert_same_canonical(monkeypatch, chart, 200, 3)


def _field(phi, psi, zeta, interval):
    """An axis triple taken as given, without build_scalar_field's checks."""
    return ScalarField1D(ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None, interval)


def test_canonical_guard_failure_is_the_scalar_failure(monkeypatch, canonical_outcomes):
    # psi_1 = u - |u| and psi_2 = 0: chi_12 is exactly 0 wherever x1 >= 0
    box = ((-1.0, 1.0), (0.5, 1.5), (0.5, 1.5))
    fields = (_field("1 - sign(u)", "u - abs(u)", None, box[0]), _field("0", "0*u", None, box[1]),
              _field("1", "u", "u", box[2]))
    spec = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 3.0), DomainBox(box))
    chart = _unchecked_chart(spec, 3)
    got = _assert_same_canonical(monkeypatch, chart, 300, 4)
    first = next(x for x in spec.domain.sample(300, 4) if x[0] >= 0.0)
    assert got == (UndefinedAtPointError, f"chi_12 = 0.0 at {tuple(first.tolist())}; C_3 undefined there")
    assert spec.domain.sample(300, 4)[0][0] < 0.0  # earlier points pass every stage
    assert canonical_outcomes == ["fault"] * 2


def test_canonical_domain_exit_is_the_scalar_failure(monkeypatch, canonical_outcomes):
    # psi_3 = 1e-13 u is flat to the solve tolerance, so zeta = 0.9 passes its
    # residual test; x(y) = (x1, x2, 0.9) leaves the domain wherever x1 >= 1
    box = ((0.5, 1.5), (0.5, 1.5), (0.5, 1.5))
    fields = (_field("1", "u", "u", box[0]), _field("1", "u", "u", box[1]),
              _field("1e-13", "1e-13*u", "0.9 + 0*u", box[2]))
    domain = DomainBox(box, ex.parse("x3 - 0.9 + abs(x1 - 1) - (x1 - 1)"))
    spec = make_family_spec(ex.parse("1000"), fields, make_kappa(5.0, 0.0), domain)
    chart = _unchecked_chart(spec, 3)
    kind, message = _assert_same_canonical(monkeypatch, chart, 300, 5)
    first = next(x for x in spec.domain.sample(300, 5) if x[0] >= 1.0)
    assert kind is DomainMembershipError
    assert message.startswith(f"inverse image {(float(first[0]), float(first[1]), 0.9)} of ")
    assert spec.domain.sample(300, 5)[0][0] < 1.0
    assert canonical_outcomes == ["fault"] * 2


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 7, 1500, 20_000])
def test_stacked_matmul_equals_per_slice_matmul(n, k):
    # the batch pushforward rests on numpy running the same 3x3 product on
    # every slice of a stack as on one matrix; a BLAS or numpy change that
    # breaks this must fail here, not move a pinned worst point
    rng = np.random.default_rng(100 * n + k)
    M = np.broadcast_to(np.eye(3), (n, 3, 3)).copy()
    M[:, k - 1, :] = rng.normal(size=(n, 3)) * rng.lognormal(0.0, 3.0, size=(n, 1))
    j12, j23, j31 = rng.normal(size=(3, n)) * rng.lognormal(0.0, 3.0, size=(3, n))
    J = StructureMatrixValue(j12, j23, j31).as_matrix()
    stacked = M @ J @ np.swapaxes(M, -1, -2)
    per_slice = np.array([M[s] @ J[s] @ M[s].T for s in range(n)])
    assert np.array_equal(stacked, per_slice)


def test_pushforward_is_the_blas_product():
    # reports pin worst points, so J' must stay the 3x3 @ product of D4, at
    # one point and on coordinate arrays alike, not a closed form
    spec, _ = build_system("euler-top")
    chart = build_chart(spec, 3, seed=42)
    ys = forward_map(chart, np.ascontiguousarray(spec.domain.sample(200, 1).T))
    stacked = pushforward_matrix(chart, ys).as_matrix()
    for n, y in enumerate(ys.T):
        x = inverse_map(chart, y)
        M = jacobian_forward(chart, x)
        P = M @ structure_matrix_at(spec, x).as_matrix() @ M.T
        want = StructureMatrixValue(float(P[0, 1]), float(P[1, 2]), float(P[2, 0]))
        assert pushforward_matrix(chart, y) == want
        assert stacked[n].tolist() == want.as_matrix().tolist()


# ---------------------------------------------------------------------------
# The chart's scalar-field layer on arrays


def _axis_fields():
    """Fields with an exact zeta, a sloppy zeta, and none."""
    iv = (0.5, 2.0)
    return {
        "exact": build_scalar_field(ex.parse("exp(u)"), ex.parse("exp(u)"), ex.parse("ln(u)"), iv),
        "sloppy": _field("3*u^2", "u^3", "u^(1/3) * (1 + 1e-9)", iv),
        "none": build_scalar_field(ex.parse("3*u^2"), ex.parse("u^3"), None, iv),
    }


@pytest.mark.parametrize("kind", ["exact", "sloppy", "none"])
def test_psi_inverse_on_arrays_equals_scalar_solves(kind):
    fld = _axis_fields()[kind]
    rlo, rhi = fld.psi_range()
    targets = np.concatenate([np.linspace(rlo, rhi, 400), [rlo, rhi, rlo - 1e-13 * rlo, rhi + 1e-12]])
    got = psi_inverse(fld, targets)
    assert got.tolist() == [psi_inverse(fld, float(t)) for t in targets]


def test_psi_inverse_on_arrays_names_the_first_target_out_of_range():
    fld = _axis_fields()["exact"]
    rlo, rhi = fld.psi_range()
    targets = np.array([rlo, rhi + 1.0, rlo - 1.0])
    with pytest.raises(OutOfRangeError) as got:
        psi_inverse(fld, targets)
    with pytest.raises(OutOfRangeError) as want:
        psi_inverse(fld, rhi + 1.0)
    assert str(got.value) == str(want.value)


# axis triples for the root-finder, taken as given: (phi, psi, zeta, interval)
SOLVE_FIELDS = {
    "cubic": ("3*u^2", "u^3", None, (0.5, 2.0)),
    "decreasing": ("-exp(-u)", "exp(-u)", None, (-1.0, 3.0)),
    # residuals move in steps of about 2e-8, far above the tolerance, so most solves fail to reach it
    "steep": ("1e8", "1e8*(u - 1)", None, (0.9999999, 1.0000001)),
    # zeta is exact for psi >= 3 and sloppy below: only the elements below 3 are polished
    "half-sloppy": ("3*u^2", "u^3", "u^(1/3) + 1e-9*(abs(u - 3) - (u - 3))", (0.5, 2.0)),
}

# a place between psi(lo) (0) and psi(hi) (1); 0 and 1 are the ends exactly, and beyond them no root is bracketed
_PLACES = st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-0.2, 1.2)), min_size=1, max_size=12)


def _targets(fld, places):
    p_lo, p_hi = fld.psi_fn(fld.interval[0]), fld.psi_fn(fld.interval[1])
    return np.array([p_lo if w == 0.0 else p_hi if w == 1.0 else p_lo + w * (p_hi - p_lo) for w in places])


def _hexes(values):
    return [v.hex() for v in values.tolist()]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(SOLVE_FIELDS)), _PLACES, st.sampled_from([0.0, 1.0, 1e3]))
def test_lockstep_solve_is_the_scalar_solve_per_element(name, places, scale):
    fld = _field(*SOLVE_FIELDS[name])
    lo, hi = fld.interval
    targets = _targets(fld, places)
    tols = scale * 1e-12 * np.maximum(1.0, np.abs(targets))

    def per_element():
        solve = scalar_fields._bracketed_solve
        return [solve(fld.psi_fn, lo, hi, t, s).hex() for t, s in zip(targets.tolist(), tols.tolist())]

    got = _outcome_of(lambda: _hexes(scalar_fields._lockstep_solve(fld.psi_fn, lo, hi, targets, tols)))
    assert got == _outcome_of(per_element)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(SOLVE_FIELDS)), _PLACES)
def test_psi_inverse_on_arrays_is_the_scalar_solve_per_element(name, places):
    fld = _field(*SOLVE_FIELDS[name])
    targets = _targets(fld, places)
    want = _outcome_of(lambda: [psi_inverse(fld, t).hex() for t in targets.tolist()])
    assert _outcome_of(lambda: _hexes(psi_inverse(fld, targets))) == want
    # a function-scoped fixture does not mix with @given: the class's own context instead
    assert _on_scalar_path(pytest.MonkeyPatch, lambda: _hexes(psi_inverse(fld, targets))) == want


def test_a_sloppy_zeta_polishes_only_the_elements_it_misses(monkeypatch):
    fld = _field(*SOLVE_FIELDS["half-sloppy"])
    polished = []
    lockstep = scalar_fields._lockstep_solve
    monkeypatch.setattr(scalar_fields, "_lockstep_solve", lambda *args: polished.append(args[3]) or lockstep(*args))
    targets = np.linspace(0.125, 8.0, 400)
    assert _hexes(psi_inverse(fld, targets)) == [psi_inverse(fld, t).hex() for t in targets.tolist()]
    (solved,) = polished
    assert 0 < len(solved) < len(targets) and np.all(solved < 3.0)


@pytest.mark.parametrize("seed", [0, 42])
def test_chi_table_equals_chi_per_point(seed):
    specs = [build_system(name)[0] for name in BUILTIN_NAMES] + [random_family_spec(i, seed) for i in range(12)]
    for spec in specs:
        points = spec.domain.sample(300, seed)
        psis, chis = chi_table(spec, points)
        assert psis.shape == chis.shape == (3, 300)
        for x, p, c in zip(points, psis.T.tolist(), chis.T.tolist()):
            assert tuple(p) == tuple(spec.psi(a, float(x[a - 1])) for a in (1, 2, 3))
            assert tuple(c) == (chi(spec, 2, 3, x), chi(spec, 3, 1, x), chi(spec, 1, 2, x))


# ---------------------------------------------------------------------------
# Per-spec set-up: the field grid certificates and the chart certificate


def _outcome_of(fn):
    try:
        return fn()
    except Exception as exc:  # the exception itself is the outcome to compare
        return type(exc), str(exc)


def _on_scalar_path(monkeypatch, fn):
    """fn's outcome with every array evaluation faulting, so each check takes its per-point loop."""
    with monkeypatch.context() as m:
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        return _outcome_of(fn)


@pytest.fixture()
def reference_runs(monkeypatch):
    """Records the runs of build_scalar_fields' per-axis reference, the per-point grid checks."""
    runs = []
    original = scalar_fields._checked_field
    monkeypatch.setattr(scalar_fields, "_checked_field", lambda *args: runs.append(args) or original(*args))
    return runs


def _rebuild(fld):
    return lambda: build_scalar_field(fld.phi, fld.psi, fld.zeta, fld.interval)


def _assert_same_field(monkeypatch, fld, runs):
    """Rebuilding fld passes on arrays alone, and on the forced per-point path."""
    assert _rebuild(fld)() == fld
    assert runs == []
    assert _on_scalar_path(monkeypatch, _rebuild(fld)) == fld
    runs.clear()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_field_checks_batch_equals_scalar_on_builtins(monkeypatch, reference_runs, name):
    for fld in build_system(name)[0].fields:
        _assert_same_field(monkeypatch, fld, reference_runs)


@pytest.mark.parametrize("seed", [1, 42])
def test_field_checks_batch_equals_scalar_on_random_specs(monkeypatch, reference_runs, seed):
    for i in range(100):
        for fld in random_family_spec(i, seed).fields:
            _assert_same_field(monkeypatch, fld, reference_runs)


def test_a_built_field_takes_its_psi_range_from_the_grid():
    fields = [fld for name in BUILTIN_NAMES for fld in build_system(name)[0].fields]
    fields += [fld for i in range(100) for fld in random_family_spec(i, 42).fields]
    fields.append(build_scalar_field(ex.parse("1"), ex.parse("u"), None, (-0.0, 1.0)))  # the grid starts at 0.0
    for fld in fields:
        got = [v.hex() for v in fld.psi_range()]
        a, b = fld.psi_fn(fld.interval[0]), fld.psi_fn(fld.interval[1])
        assert got == [v.hex() for v in ((a, b) if a <= b else (b, a))]
    assert got == [(-0.0).hex(), (1.0).hex()]


# a stencil point of build_scalar_field's psi' = phi check on [0, 1]: x + h at the 101st centre
_STENCIL_POINT = "0.39258418045445237"

FAILING_FIELDS = [
    # (phi, psi, zeta, interval, exception type, the parent commit's message)
    ("ln(u)", "u*ln(u) - u", None, (0.0, 1.0), FieldValidationError,
     "phi must be nonvanishing on the interval: evaluation failed: ln of non-positive value 0.0 (u = 0.0)"),
    ("2*u", "u^2", None, (-1.0, 3.0), FieldValidationError,
     "phi must be nonvanishing on the interval: sign change between adjacent samples (u = 0.0039215686274509665)"),
    ("u", "u^2", None, (1.0, 2.0), FieldValidationError,
     "psi is not a primitive of phi: psi'(1.001953125) = 2.003906249993925 but phi(1.001953125) = 1.001953125"),
    # psi is flat to rounding, so the central difference reads 0 and passes
    # the 1e-6 test while adjacent grid values tie
    ("1e-11", "1e4 + 1e-11*u", None, (0.0, 1.0), FieldValidationError,
     "psi is not strictly monotone on the sampled grid"),
    # psi faults at the grid's first point, outside the psi' = phi stencil: the monotone test's values raise
    ("1", "u + 0*ln(u)", None, (0.0, 1.0), DomainEvalError, "ln of non-positive value 0.0"),
    ("1", "u", "u + 0.001", (0.0, 1.0), FieldValidationError, "zeta(psi(0.0)) = 0.001, not the identity"),
    ("1", "u", "ln(u - 0.5)", (0.0, 1.0), FieldValidationError,
     "zeta round-trip failed to evaluate at u=0.0: ln of non-positive value -0.5"),
    ("u^2", "u^3/3", None, (0.0, 1.0), FieldValidationError,
     "phi must be nonvanishing on the interval: |f| = 0.000e+00 at sample (u = 0.0)"),
    ("1", f"u + 0*ln(abs(u - {_STENCIL_POINT}))", None, (0.0, 1.0), FieldValidationError,
     "evaluation failed during psi'=phi check at u=0.392578125: ln of non-positive value 0.0"),
]


@pytest.mark.parametrize("phi, psi, zeta, interval, kind, message", FAILING_FIELDS)
def test_failing_field_gives_the_scalar_error(monkeypatch, reference_runs, phi, psi, zeta, interval, kind, message):
    def build():
        return build_scalar_field(ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None, interval)

    got = _outcome_of(build)
    assert got == (kind, message)
    assert len(reference_runs) == 1  # the joint pass finds the failure, the reference names it
    assert _on_scalar_path(monkeypatch, build) == got


def test_a_clean_field_is_one_joint_pass(monkeypatch, reference_runs):
    passes, joint = [], scalar_fields._joint_fields
    monkeypatch.setattr(scalar_fields, "_joint_fields", lambda *args: passes.append(args) or joint(*args))
    fld = build_scalar_field(ex.parse("2*u"), ex.parse("u^2"), ex.parse("sqrt(u)"), (0.5, 1.5))
    assert fld.psi_range() == (0.25, 2.25)
    assert len(passes) == 1 and reference_runs == []


# ---------------------------------------------------------------------------
# build_scalar_fields: the axes of a spec validated together, against the per-axis builds


def _triple(fld):
    return fld.phi, fld.psi, fld.zeta


def _per_axis(axes, intervals):
    """The per-point reference of each axis, called by this module's name, which reference_runs does not record."""
    return tuple(_checked_field(*axis, iv) for axis, iv in zip(axes, intervals))


def _psi_range_hex(fld):
    return None if fld._psi_range is None else [v.hex() for v in fld._psi_range]


def _assert_joint_is_per_axis(axes, intervals):
    got, want = scalar_fields.build_scalar_fields(axes, intervals), _per_axis(axes, intervals)
    assert got == want
    assert list(map(_psi_range_hex, got)) == list(map(_psi_range_hex, want))


def test_build_scalar_fields_equals_the_per_axis_builds(reference_runs):
    specs = [build_system(name)[0] for name in BUILTIN_NAMES]
    specs += [random_family_spec(i, seed) for seed in (0, 42) for i in range(100)]
    assert reference_runs == []
    for spec in specs:
        _assert_joint_is_per_axis([_triple(f) for f in spec.fields], spec.domain.intervals)
    assert reference_runs == []  # the joint pass took every spec


def test_build_scalar_fields_keeps_a_lower_bound_of_minus_zero(reference_runs):
    axes = [(ex.parse("1"), ex.parse("u"), None), (ex.parse("2"), ex.parse("2*u"), ex.parse("u/2"))] * 2
    intervals = [(-0.0, 1.0), (0.5, 2.0), (0.0, 1.0), (-3.0, -0.0)]
    _assert_joint_is_per_axis(axes, intervals)
    assert reference_runs == []
    fields = scalar_fields.build_scalar_fields(axes, intervals)
    assert fields[0]._psi_range is None and fields[2]._psi_range is not None  # the grid starts a -0.0 at 0.0
    assert [v.hex() for v in fields[0].psi_range()] == [(-0.0).hex(), (1.0).hex()]


def test_the_grid_rows_are_the_per_axis_grids():
    intervals = [iv for i in range(100) for iv in random_family_spec(i, 42).domain.intervals]
    intervals += [(-0.0, 1.0), (0.0, 1.0), (-5.0, 1e-3), (1e-300, 2e-300), (-1e300, 1e300), (1e16, 1e16 + 2.0)]
    lo, hi = (np.array([iv[e] for iv in intervals]) for e in (0, 1))
    rows = scalar_fields._grid(lo, hi)
    for n, (a, b) in enumerate(intervals):
        grid, xs, steps = scalar_fields._grid(a, b)
        assert grid.tobytes() == np.linspace(a, b, 256).tobytes()
        width = b - a
        assert xs.tobytes() == (a + width * (np.arange(256) + 0.5) / 256).tobytes()
        for row, want in zip(rows, (grid, xs, steps)):
            assert row.shape == (len(intervals), 256) and row[n].tobytes() == want.tobytes()


_CLEAN_AXES = [("1", "u", "u", (0.0, 1.0)), ("2*u", "u^2", "sqrt(u)", (0.5, 1.5)),
               ("exp(u)", "exp(u)", None, (-1.0, 1.0))]


def _parsed(phi, psi, zeta):
    return ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None


@pytest.mark.parametrize("row", range(len(FAILING_FIELDS)))
@pytest.mark.parametrize("place", [0, 1, 2])
def test_build_scalar_fields_raises_the_first_failing_axis_error(monkeypatch, row, place):
    phi, psi, zeta, interval, kind, message = FAILING_FIELDS[row]
    later = FAILING_FIELDS[(row + 1) % len(FAILING_FIELDS)]  # a second failing axis, after the first
    cases = [_CLEAN_AXES[:place] + [(phi, psi, zeta, interval)] + _CLEAN_AXES[place:],
             _CLEAN_AXES[:place] + [(phi, psi, zeta, interval), later[:4]] + _CLEAN_AXES[place:]]
    for axes in cases:
        triples, intervals = [_parsed(*axis[:3]) for axis in axes], [axis[3] for axis in axes]
        got = _outcome_of(lambda: scalar_fields.build_scalar_fields(triples, intervals))
        assert got == (kind, message)
        assert got == _outcome_of(lambda: _per_axis(triples, intervals))
        assert _on_scalar_path(monkeypatch, lambda: scalar_fields.build_scalar_fields(triples, intervals)) == got


def test_build_scalar_fields_replays_a_bad_interval_or_variable():
    one, u = ex.parse("1"), ex.parse("u")
    for intervals, psi, message in [
        ([(0.0, 1.0), (2.0, 1.0)], u, "bad interval [2.0, 1.0]: need lo < hi with finite bounds and width"),
        ([(0.0, 1.0), (0.0, math.inf)], u, "bad interval [0.0, inf]: need lo < hi with finite bounds and width"),
        ([(0.0, 1.0), (0.0, 1.0)], ex.parse("u + x1"), "psi may only use the variable u, found ['x1']"),
    ]:
        got = _outcome_of(lambda: scalar_fields.build_scalar_fields([(one, u, None), (one, psi, None)], intervals))
        assert got == (FieldValidationError, message)


def _field_plans(spec, built):
    """The plans of built whose outputs are every axis's phi, psi or zeta as a tree in x1, x2, x3, or one
    such tree in u."""
    kinds = {}
    for kind in ("phi", "psi", "zeta"):
        trees = tuple(ex.substitute(getattr(f, kind), "u", ex.Var(x)) for f, x in zip(spec.fields, ex._XS))
        kinds[trees] = kind
    return [kinds.get(outputs, "one tree") for outputs, varnames in built if outputs in kinds or varnames == ("u",)]


def test_a_spec_load_builds_one_field_plan_per_callable_kind(monkeypatch, capsys, tmp_path):
    spec, _ = build_system("euler-top")  # every axis has a zeta: one plan per callable would be nine
    path = _spec_file(spec, tmp_path / "top.json")
    built = []

    def counting(original):
        return lambda outputs, checked=(), varnames=ex._XS: (
            built.append((tuple(outputs), tuple(varnames))) or original(outputs, checked, varnames))

    monkeypatch.setattr(scalar_fields, "plan_kernel", counting(scalar_fields.plan_kernel))
    monkeypatch.setattr(ex, "_plan_of", counting(ex._plan_of))
    assert main(["verify", "--spec", path, "--samples", "200"]) == 0
    capsys.readouterr()
    assert sorted(_field_plans(spec, built)) == ["phi", "psi", "zeta"]


def test_a_spec_file_names_a_failing_axis_before_a_later_parse_error(capsys, tmp_path):
    # the axes are parsed first and validated together, but each error is the one the parent raised
    # building them in order: axis 0's vanishing phi before axis 1's psi that does not parse
    good = {"phi": "1", "psi": "u", "zeta": "u"}
    doc = {"eta": "1", "kappa": [1.0, 2.0], "domain": {"box": [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]]}}
    cases = [
        ([{"phi": "u^2", "psi": "u^3/3"}, {"phi": "1", "psi": "u +"}, good],
         "error: phi must be nonvanishing on the interval: |f| = 0.000e+00 at sample (u = 0.0)\n"),
        ([good, {"phi": "1", "psi": "u +"}, {"phi": "u^2", "psi": "u^3/3"}],
         "error: unexpected end of input (offset 3)\n"),
        ([{"phi": "u^2", "psi": "u^3/3"}, "u", good], "error: phi must be nonvanishing on the interval: "
         "|f| = 0.000e+00 at sample (u = 0.0)\n"),
        ([good, {"phi": "1"}, {"phi": "u^2", "psi": "u^3/3"}], "error: 'psi'\n"),
    ]
    for axes, message in cases:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, "axes": axes}))
        assert main(["verify", "--spec", str(path)]) == 2
        assert capsys.readouterr() == ("", message)


def _oracle_charts(spec, seed, ks):
    """build_chart as the per-point loop over chi() that it replaced, for each k of ks.

    Each outcome is (k, sign_branch, image_box) or the exception's type and text.
    """
    points = spec.domain.sample(CHART_SAMPLES, seed)
    rows = [(tuple(spec.psi(a, float(x[a - 1])) for a in (1, 2, 3)),
             (chi(spec, 2, 3, x), chi(spec, 3, 1, x), chi(spec, 1, 2, x))) for x in points]

    def chart(k):
        if k is None:
            margins = [min(abs(chis[n - 1]) for _, chis in rows) for n in (1, 2, 3)]
            k = margins.index(max(margins)) + 1
        i, j, k = cyclic(k)
        ys, sign_seen = [], 0.0
        for x, (psi, chis) in zip(points, rows):
            value, where = chis[k - 1], tuple(float(v) for v in x)
            if abs(value) <= denominator_threshold(psi[i - 1], psi[j - 1]):
                raise HypothesisViolationError(f"chi_{i}{j} = {value!r} at {where}; chart hypothesis fails")
            s = math.copysign(1.0, value)
            if spec.domain.predicate is None and sign_seen and s != sign_seen:
                raise HypothesisViolationError(
                    f"chi_{i}{j} changes sign on the box (seen near {where}); it must vanish somewhere inside"
                )
            sign_seen = s
            y = list(where)
            y[k - 1] = -(chis[i - 1] / value)
            ys.append(y)
        ys = np.array(ys)
        image = tuple((float(ys[:, a].min()), float(ys[:, a].max())) for a in range(3))
        return k, tuple(axis_sign(iv) for iv in spec.domain.intervals), image

    return [_outcome_of(lambda: chart(k)) for k in ks]


def _assert_same_charts(monkeypatch, spec, seed, ks=(None, 1, 2, 3)):
    """build_chart for each k of ks equals the oracle and the forced per-point path; returns the outcomes.

    The oracle is sampled: where it accepts and build_chart's exact stage
    rejects, the rejection's claim must hold instead.
    """
    def build(k):
        chart = build_chart(spec, k, seed)
        return chart.k, chart.sign_branch, chart.image_box

    def outcomes():
        return [_outcome_of(lambda: build(k)) for k in ks]

    got = outcomes()
    for outcome, want in zip(got, _oracle_charts(spec, seed, ks)):
        if outcome != want:  # the exact stage rejects beyond the sample; its claim is checked point by point
            assert want[0] is not HypothesisViolationError and outcome[0] is HypothesisViolationError, outcome
            assert small_chi_claim_problem(spec, outcome[1]) is None
    assert _on_scalar_path(monkeypatch, outcomes) == got
    return got


def _rejection(outcome):
    if outcome[0] is not HypothesisViolationError:
        return "chart"
    return "sign change" if "changes sign" in outcome[1] else "small chi"


def test_chart_batch_equals_scalar_on_builtins(monkeypatch):
    kinds = set()
    for name in BUILTIN_NAMES:
        for seed in (0, 42):
            kinds.update(map(_rejection, _assert_same_charts(monkeypatch, build_system(name)[0], seed)))
    assert kinds == {"chart", "sign change"}  # euler-top's chi_31 changes sign


@pytest.mark.parametrize("seed", [1, 42])
def test_chart_batch_equals_scalar_on_random_specs(monkeypatch, seed):
    kinds = []
    for i in range(100):
        kinds += map(_rejection, _assert_same_charts(monkeypatch, random_family_spec(i, seed), seed))
    assert kinds.count("chart") > 300 and kinds.count("sign change") > 5


def test_best_casimir_index_breaks_ties_toward_the_first_k():
    assert best_casimir_index(np.array([[2.0, -3.0], [-2.0, 5.0], [1.0, 4.0]])) == 1
    assert best_casimir_index(np.array([[1.0, -3.0], [-2.0, 5.0], [4.0, 2.0]])) == 2
    assert best_casimir_index(np.array([[0.5], [-0.5], [0.5]])) == 1


def test_chart_small_chi_is_named_at_the_first_flagged_point(monkeypatch):
    # psi_1 = u - |u| and psi_2 = 0: chi_12 is exactly 0 wherever x1 >= 0
    box = ((-1.0, 1.0), (0.5, 1.5), (0.5, 1.5))
    fields = (_field("1 - sign(u)", "u - abs(u)", None, box[0]), _field("0", "0*u", None, box[1]),
              _field("1", "u", "u", box[2]))
    spec = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 3.0), DomainBox(box))
    (got,) = _assert_same_charts(monkeypatch, spec, 4, (3,))
    first = next(x for x in spec.domain.sample(CHART_SAMPLES, 4) if x[0] >= 0.0)
    assert got == (HypothesisViolationError, f"chi_12 = 0.0 at {tuple(first.tolist())}; chart hypothesis fails")
