"""The batch binding is exact: same floats as the scalar binding, same faults after replay.

Sampled Jacobi and canonical checks, chart tables and domain sampling run
over numpy arrays.  Every
comparison here is float equality (==), never a tolerance: the batch path
must reproduce the scalar path bit for bit, and where it faults the scalar
path must run and report exactly what it reports on its own.
"""

import json
import math
import random

import numpy as np
import pytest

from poisson3d import darboux, scalar_fields
from poisson3d import expr as ex
from poisson3d import verification
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.casimir import (
    CHART_SAMPLES,
    best_casimir_index,
    casimir_expr,
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


@pytest.mark.parametrize("seed", [0, 1, 42, -1, 2**63 + 5])
def test_unit_uniforms_match_integer_splitmix64(seed):
    indices = [0, 1, 2, 99, 12345, 2**40 + 3]
    got = unit_uniforms(seed, indices, 3)
    for row, index in zip(got.tolist(), indices):
        state = _mix64_int((seed & _M64) ^ _mix64_int(index))
        want = []
        for _ in range(3):
            state = _mix64_int(state)
            want.append((state >> 11) / float(1 << 53))
        assert row == want


def _oracle_sample(box, n, seed):
    """DomainBox.sample as a per-index loop over point_for_index and contains."""
    accepted, budget = [], 100 * n
    for index in range(budget):
        x = box.point_for_index(seed, index)
        if box.contains(x):
            accepted.append(x)
            if len(accepted) == n:
                return np.array(accepted)
    raise DomainSamplingError(f"only {len(accepted)} of {n} admissible points in {budget} draws")


def _assert_same_sample(box, n, seed):
    got = box.sample(n, seed)
    want = _oracle_sample(box, n, seed)
    assert got.shape == want.shape == (n, 3)
    assert got.tolist() == want.tolist()


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


def test_sampling_error_text_matches_oracle():
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("(0.005 - x1) + abs(0.005 - x1)"))
    with pytest.raises(DomainSamplingError) as got:
        box.sample(100, 0)
    with pytest.raises(DomainSamplingError) as want:
        _oracle_sample(box, 100, 0)
    assert str(got.value) == str(want.value)
    assert str(got.value).endswith("of 100 admissible points in 10000 draws")


def test_predicate_at_the_zero_floor_is_rejected():
    box = DomainBox(((0.0, 1.0),) * 3, ex.parse("1e-12 + 0*x1"))
    with pytest.raises(DomainSamplingError, match="^only 0 of 10 admissible points in 1000 draws$"):
        box.sample(10, 0)


# ---------------------------------------------------------------------------
# verify_structure: batch report equals the per-point report


@pytest.fixture()
def batch_outcomes(monkeypatch):
    """Records whether each batch residual pass returned or faulted."""
    outcomes = []
    original = verification._batch_residuals

    def recording(*args):
        try:
            values = original(*args)
        except ex.BatchFault:
            outcomes.append("fault")
            raise
        outcomes.append("ok")
        return values

    monkeypatch.setattr(verification, "_batch_residuals", recording)
    return outcomes


def _scalar_report(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(Field3, "batchable", lambda self: False)
        return verify_structure(*args, **kwargs)


def _assert_same_report(monkeypatch, field, domain, n, seed, scheme):
    batch = verify_structure(field, domain, n, 1e-6, seed=seed, scheme=scheme)
    scalar = _scalar_report(monkeypatch, field, domain, n, 1e-6, seed=seed, scheme=scheme)
    assert batch.to_dict() == scalar.to_dict()
    assert batch == scalar


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_verify_batch_equals_scalar_on_builtins(monkeypatch, batch_outcomes, name, scheme):
    spec, _ = build_system(name)
    _assert_same_report(monkeypatch, matrix_field_from_spec(spec), spec.domain, 1500, 42, scheme)
    assert batch_outcomes == ["ok"]


@pytest.mark.parametrize("seed", [1, 42])
def test_verify_batch_equals_scalar_on_random_specs(monkeypatch, batch_outcomes, seed):
    for i in range(40):
        spec = random_family_spec(i, seed)
        field = matrix_field_from_spec(spec)
        for scheme in ("analytic", "fd"):
            _assert_same_report(monkeypatch, field, spec.domain, 120, seed, scheme)
    assert batch_outcomes == ["ok"] * 80


def test_worst_point_is_the_first_maximum(monkeypatch, batch_outcomes):
    # J12 = J23 = 1, J31 = x1 on x1 <= 0.5: every residual is exactly 1/2
    field = verification.MatrixField3(ex.parse("1"), ex.parse("1"), ex.parse("x1"))
    box = DomainBox(((0.0, 0.5), (0.0, 1.0), (0.0, 1.0)))
    report = verify_structure(field, box, 200, 1e-6, seed=3)
    assert report.worst == 0.5
    assert report.worst_point == tuple(box.sample(200, 3)[0].tolist())
    assert batch_outcomes == ["ok"]
    _assert_same_report(monkeypatch, field, box, 200, 3, "fd")


def test_callable_entries_take_the_scalar_loop(batch_outcomes):
    field = verification.MatrixField3(lambda x1, x2, x3: x1, ex.parse("x2"), ex.parse("x3"))
    report = verify_structure(field, DomainBox(((1.0, 2.0),) * 3), 50, 1e-6, seed=1, scheme="fd")
    assert report.verdict == "fail"
    assert batch_outcomes == []


# ---------------------------------------------------------------------------
# Fault replay through the CLI

FAULTING_ENTRIES = {
    "ln(x1 - 0.5)": "error: ln of non-positive value ",
    "1/(x1 - x1)": "error: float division by zero",
    "sign(x2 - x2)": "error: sign(0) is undefined",
    "exp(1000*x3)": "error: math range error",
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
        m.setattr(Field3, "batchable", lambda self: False)
        scalar = run()
    assert batch == scalar
    code, out, err = batch
    assert (code, out) == (2, "")
    assert err.startswith(FAULTING_ENTRIES[entry]) and err.count("\n") == 1


# ---------------------------------------------------------------------------
# canonical_check: batch report equals the per-point report


@pytest.fixture()
def canonical_outcomes(monkeypatch):
    """Records whether each batch canonical pass returned or handed over to the per-point loop."""
    outcomes = []
    original = darboux._batch_deviations

    def recording(*args):
        try:
            values = original(*args)
        except Exception:
            outcomes.append("fault")
            raise
        outcomes.append("ok")
        return values

    monkeypatch.setattr(darboux, "_batch_deviations", recording)
    return outcomes


def _outcome(fn):
    try:
        return fn().to_dict()
    except Exception as exc:  # the exception itself is the outcome to compare
        return type(exc), str(exc)


def _assert_same_canonical(monkeypatch, chart, n, seed, scheme):
    """The batch and the forced per-point canonical check agree exactly; returns the outcome."""
    batch = _outcome(lambda: canonical_check(chart, n, seed=seed, scheme=scheme))

    def refuse(*args):
        raise ex.BatchFault("forced per-point loop")

    with monkeypatch.context() as m:
        m.setattr(darboux, "_batch_deviations", refuse)
        scalar = _outcome(lambda: canonical_check(chart, n, seed=seed, scheme=scheme))
    assert batch == scalar
    return batch


# euler-top's chi_31 changes sign on its box, so it has no chart for k = 2
CHARTED_BUILTINS = [(name, k) for name in BUILTIN_NAMES for k in (None, 1, 2, 3) if (name, k) != ("euler-top", 2)]


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
@pytest.mark.parametrize("name, k", CHARTED_BUILTINS)
def test_canonical_batch_equals_scalar_on_builtins(monkeypatch, canonical_outcomes, name, k, scheme):
    spec, _ = build_system(name)
    chart = build_chart(spec, k, seed=42)
    report = _assert_same_canonical(monkeypatch, chart, 1000, 42, scheme)
    assert report["samples"] == 1000
    assert canonical_outcomes == ["ok"]


@pytest.mark.parametrize("seed", [1, 42])
def test_canonical_batch_equals_scalar_on_random_specs(monkeypatch, canonical_outcomes, seed):
    checked, without_zeta = 0, 0
    for i in range(40):
        spec = random_family_spec(i, seed)
        try:
            chart = build_chart(spec, seed=seed)
        except HypothesisViolationError:
            continue  # rightly rejected charts have no canonical check
        for scheme in ("analytic", "fd"):
            _assert_same_canonical(monkeypatch, chart, 100, seed, scheme)
            checked += 1
        without_zeta += spec.field(chart.k).zeta is None
    assert checked >= 60
    assert without_zeta >= 5  # these solve every x_k with the per-point root-finder
    assert canonical_outcomes == ["ok"] * checked


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
    assert canonical_outcomes == ["ok"]
    _assert_same_canonical(monkeypatch, chart, 200, 3, "fd")


def _field(phi, psi, zeta, interval):
    """An axis triple taken as given, without build_scalar_field's checks."""
    return ScalarField1D(ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None, interval)


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
def test_canonical_guard_failure_is_the_scalar_failure(monkeypatch, canonical_outcomes, scheme):
    # psi_1 = u - |u| and psi_2 = 0: chi_12 is exactly 0 wherever x1 >= 0
    box = ((-1.0, 1.0), (0.5, 1.5), (0.5, 1.5))
    fields = (_field("1 - sign(u)", "u - abs(u)", None, box[0]), _field("0", "0*u", None, box[1]),
              _field("1", "u", "u", box[2]))
    spec = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 3.0), DomainBox(box))
    chart = _unchecked_chart(spec, 3)
    got = _assert_same_canonical(monkeypatch, chart, 300, 4, scheme)
    first = next(x for x in spec.domain.sample(300, 4) if x[0] >= 0.0)
    assert got == (UndefinedAtPointError, f"chi_12 = 0.0 at {tuple(first.tolist())}; C_3 undefined there")
    assert spec.domain.sample(300, 4)[0][0] < 0.0  # earlier points pass every stage
    assert canonical_outcomes == ["fault"]


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
def test_canonical_domain_exit_is_the_scalar_failure(monkeypatch, canonical_outcomes, scheme):
    # psi_3 = 1e-13 u is flat to the solve tolerance, so zeta = 0.9 passes its
    # residual test; x(y) = (x1, x2, 0.9) leaves the domain wherever x1 >= 1
    box = ((0.5, 1.5), (0.5, 1.5), (0.5, 1.5))
    fields = (_field("1", "u", "u", box[0]), _field("1", "u", "u", box[1]),
              _field("1e-13", "1e-13*u", "0.9 + 0*u", box[2]))
    domain = DomainBox(box, ex.parse("x3 - 0.9 + abs(x1 - 1) - (x1 - 1)"))
    spec = make_family_spec(ex.parse("1000"), fields, make_kappa(5.0, 0.0), domain)
    chart = _unchecked_chart(spec, 3)
    kind, message = _assert_same_canonical(monkeypatch, chart, 300, 5, scheme)
    first = next(x for x in spec.domain.sample(300, 5) if x[0] >= 1.0)
    assert kind is DomainMembershipError
    assert message.startswith(f"inverse image {(float(first[0]), float(first[1]), 0.9)} of ")
    assert spec.domain.sample(300, 5)[0][0] < 1.0
    assert canonical_outcomes == ["fault"]


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


@pytest.mark.parametrize("scheme", ["analytic", "fd"])
def test_pushforward_is_the_blas_product(scheme):
    # reports pin worst points, so J' must stay the 3x3 @ product of D4, at
    # one point and on coordinate arrays alike, not a closed form
    spec, _ = build_system("euler-top")
    chart = build_chart(spec, 3, seed=42)
    ys = forward_map(chart, np.ascontiguousarray(spec.domain.sample(200, 1).T))
    stacked = pushforward_matrix(chart, ys, scheme).as_matrix()
    for n, y in enumerate(ys.T):
        x = inverse_map(chart, y)
        M = jacobian_forward(chart, x, scheme)
        P = M @ structure_matrix_at(spec, x).as_matrix() @ M.T
        want = StructureMatrixValue(float(P[0, 1]), float(P[1, 2]), float(P[2, 0]))
        assert pushforward_matrix(chart, y, scheme) == want
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


def _faulting_batch_arithmetic():
    raise ex.BatchFault("forced per-point loop")


def _on_scalar_path(monkeypatch, fn):
    """fn's outcome with every array evaluation faulting, so each check takes its per-point loop."""
    with monkeypatch.context() as m:
        m.setattr(ex, "batch_arithmetic", _faulting_batch_arithmetic)
        return _outcome_of(fn)


@pytest.fixture()
def grid_replays(monkeypatch):
    """Names the per-point loops that build_scalar_field's grid checks replay."""
    replays = []
    original = scalar_fields.batch_certificate

    def recording(flags, per_point):
        def replay():
            replays.append(per_point.__name__)
            return per_point()

        return original(flags, replay)

    monkeypatch.setattr(scalar_fields, "batch_certificate", recording)
    return replays


def _rebuild(fld):
    return lambda: build_scalar_field(fld.phi, fld.psi, fld.zeta, fld.interval)


def _assert_same_field(monkeypatch, fld, replays):
    """Rebuilding fld passes on arrays alone, and on the forced per-point path."""
    assert _rebuild(fld)() == fld
    assert replays == []
    assert _on_scalar_path(monkeypatch, _rebuild(fld)) == fld
    replays.clear()


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_field_checks_batch_equals_scalar_on_builtins(monkeypatch, grid_replays, name):
    for fld in build_system(name)[0].fields:
        _assert_same_field(monkeypatch, fld, grid_replays)


@pytest.mark.parametrize("seed", [1, 42])
def test_field_checks_batch_equals_scalar_on_random_specs(monkeypatch, grid_replays, seed):
    for i in range(100):
        for fld in random_family_spec(i, seed).fields:
            _assert_same_field(monkeypatch, fld, grid_replays)


FAILING_FIELDS = [
    # (phi, psi, zeta, interval, exception type, message start, the loop that names it)
    ("ln(u)", "u*ln(u) - u", None, (0.0, 1.0), FieldValidationError,
     "phi must be nonvanishing on the interval: evaluation failed: ", "in_order"),
    ("2*u", "u^2", None, (-1.0, 3.0), FieldValidationError,
     "phi must be nonvanishing on the interval: sign change between adjacent samples (u = 0.003921", "in_order"),
    ("u", "u^2", None, (1.0, 2.0), FieldValidationError, "psi is not a primitive of phi: psi'(1.001953125) = ",
     "primitive_loop"),
    # psi is flat to rounding, so the central difference reads 0 and passes
    # the 1e-6 test while adjacent grid values tie
    ("1e-11", "1e4 + 1e-11*u", None, (0.0, 1.0), FieldValidationError,
     "psi is not strictly monotone on the sampled grid", None),
    ("1", "u + 0*ln(u)", None, (0.0, 1.0), DomainEvalError, "ln of non-positive value 0.0", None),
    ("1", "u", "u + 0.001", (0.0, 1.0), FieldValidationError, "zeta(psi(0.0)) = 0.001, not the identity", "zeta_loop"),
    ("1", "u", "ln(u - 0.5)", (0.0, 1.0), FieldValidationError,
     "zeta round-trip failed to evaluate at u=0.0: ln of non-positive value -0.5", "zeta_loop"),
]


@pytest.mark.parametrize("phi, psi, zeta, interval, kind, message, loop", FAILING_FIELDS)
def test_failing_field_gives_the_scalar_error(monkeypatch, grid_replays, phi, psi, zeta, interval, kind, message, loop):
    def build():
        return build_scalar_field(ex.parse(phi), ex.parse(psi), ex.parse(zeta) if zeta else None, interval)

    got = _outcome_of(build)
    assert got[0] is kind and got[1].startswith(message), got
    assert grid_replays == ([loop] if loop else [])
    assert _on_scalar_path(monkeypatch, build) == got


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
