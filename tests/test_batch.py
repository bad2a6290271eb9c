"""The batch binding is exact: same floats as the scalar binding, same faults after replay.

Sampled Jacobi checks and domain sampling run over numpy arrays.  Every
comparison here is float equality (==), never a tolerance: the batch path
must reproduce the scalar path bit for bit, and where it faults the scalar
path must run and report exactly what it reports on its own.
"""

import json
import random

import numpy as np
import pytest

from poisson3d import expr as ex
from poisson3d import verification
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.cli import main
from poisson3d.errors import DomainEvalError, DomainSamplingError
from poisson3d.scalar_fields import DomainBox, Field3, unit_uniforms
from poisson3d.testing import random_family_spec
from poisson3d.verification import matrix_field_from_spec, verify_structure
from helpers import gen_expr

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
    scalar, batch = ex.compile_expr(tree), ex.compile_batch(tree)
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
        scalar, batch = ex.compile_expr(tree), ex.compile_batch(tree)
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
        ex.compile_batch(tree)(xs[:, 0], xs[:, 1], xs[:, 2])


def test_intermediate_overflow_replays_to_the_scalar_value():
    # the scalar binding lets 1/inf become 0; the batch faults and the caller replays
    tree = ex.parse("1/(x1*1e300*1e300) + x2")
    xs = _points(10, 8)
    with pytest.raises(ex.BatchFault):
        ex.compile_batch(tree)(xs[:, 0], xs[:, 1], xs[:, 2])
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
        box.predicate_batch(np.array([0.2]), np.array([0.5]), np.array([0.5]))
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
