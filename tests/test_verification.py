import math

import pytest

from poisson3d import expr as ex
from poisson3d.errors import DomainEvalError
from poisson3d.family import structure_matrix_at
from poisson3d.scalar_fields import DomainBox
from poisson3d.testing import random_family_spec, random_polynomial_field
from poisson3d.verification import (
    MatrixField3,
    jacobi_residual,
    matrix_field_from_spec,
    reduction_identity_check,
    sampled_check,
    verify_structure,
)
from conftest import make_flat_spec, make_halphen, ORDERED_BOX


def linear_field():
    return MatrixField3(ex.parse("x1"), ex.parse("x2"), ex.parse("x3"))


def test_linear_field_residual_value():
    # hand evaluation: residual = -(x1 + x2 + x3)
    field = linear_field()
    assert jacobi_residual(field, (1.0, 1.0, 1.0), "analytic") == -3.0
    assert jacobi_residual(field, (1.0, 1.0, 1.0), "fd") == pytest.approx(-3.0, rel=1e-9)


def test_constant_field_residual_exactly_zero():
    field = MatrixField3(ex.parse("1"), ex.parse("0"), ex.parse("0"))
    assert jacobi_residual(field, (0.3, 0.7, 0.9), "analytic") == 0.0
    assert jacobi_residual(field, (0.3, 0.7, 0.9), "fd") == 0.0


def test_family_members_satisfy_jacobi(halphen_unit):
    field = matrix_field_from_spec(halphen_unit)
    for x in halphen_unit.domain.sample(200, seed=3):
        entries = field.entries(*map(float, x))
        scale = 1.0 + max(abs(v) for v in entries)
        assert abs(jacobi_residual(field, x, "analytic")) <= 1e-9 * scale


def test_entries_must_be_expressions():
    with pytest.raises(TypeError, match="^j23 must be an expression, got "):
        MatrixField3(ex.parse("x1"), lambda x1, x2, x3: x2, ex.parse("x3"))


class TestVerifyStructure:
    def test_halphen_analytic_full_box(self, halphen_unit):
        report = verify_structure(
            matrix_field_from_spec(halphen_unit), halphen_unit.domain, 1000, 1e-6, seed=42
        )
        assert report.verdict == "pass"
        assert report.scheme == "analytic"
        assert report.worst <= 1e-9

    def test_halphen_fd_on_separated_box(self):
        spec = make_halphen(ORDERED_BOX)
        report = verify_structure(
            matrix_field_from_spec(spec), spec.domain, 1000, 1e-6, seed=42, scheme="fd"
        )
        assert report.verdict == "pass"

    def test_fd_scheme_breaks_down_near_collisions(self, halphen_unit):
        # near-coincidence points put curvature below the fixed fd step;
        # the analytic scheme is the sound one on the full predicate box
        # (see the decisions ledger, docs/decisions.md, D2)
        report = verify_structure(
            matrix_field_from_spec(halphen_unit), halphen_unit.domain, 1000, 1e-6, seed=42, scheme="fd"
        )
        assert report.verdict == "fail"

    def test_linear_field_fails_loudly(self):
        box = DomainBox(((1.0, 2.0),) * 3, None)
        report = verify_structure(linear_field(), box, 200, 1e-6, seed=1)
        assert report.verdict == "fail"
        assert report.worst >= 1.0  # |r| >= 3, scale <= 3

    def test_zero_samples_rejected(self, halphen_unit):
        with pytest.raises(ValueError):
            verify_structure(matrix_field_from_spec(halphen_unit), halphen_unit.domain, 0)

    def test_verdict_tracks_tolerance(self, halphen_unit):
        field = matrix_field_from_spec(halphen_unit)
        report = verify_structure(field, halphen_unit.domain, 100, 1e-6, seed=2)
        assert report.passed is (report.worst <= report.tol)
        tight = verify_structure(field, halphen_unit.domain, 100, 1e-30, seed=2)
        assert tight.verdict == "fail"
        assert tight.worst == report.worst

    def test_determinism(self, halphen_unit):
        field = matrix_field_from_spec(halphen_unit)
        a = verify_structure(field, halphen_unit.domain, 300, 1e-6, seed=9)
        b = verify_structure(field, halphen_unit.domain, 300, 1e-6, seed=9)
        assert a == b
        c = verify_structure(field, halphen_unit.domain, 300, 1e-6, seed=10)
        assert a.worst_point != c.worst_point


class TestReductionIdentity:
    def test_zero_sum_gives_zero(self, halphen_wide):
        for x in halphen_wide.domain.sample(50, seed=12):
            residual, rhs = reduction_identity_check(halphen_wide, x)
            assert rhs == 0.0
            assert abs(residual) <= 1e-9

    def test_broken_kappa_unit_densities(self):
        spec = make_flat_spec(((0.0, 5.0),) * 3)
        residual, rhs = reduction_identity_check(spec, (1.0, 2.0, 4.0), kappa_override=(1.0, 0.0, 0.0))
        assert rhs == -2.0
        assert residual == pytest.approx(-2.0, rel=1e-12)

    def test_broken_kappa_with_linear_density(self):
        # phi = (2 x1, 1, 1) at x1 = 3 gives -2 * 6 * 1 * 1 * 1 = -12
        from poisson3d.family import make_family_spec, make_kappa
        from poisson3d.scalar_fields import build_scalar_field

        box = ((0.5, 5.0),) * 3
        domain = DomainBox(box, None)
        fields = (
            build_scalar_field(ex.parse("2*u"), ex.parse("u^2"), None, box[0]),
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, box[1]),
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, box[2]),
        )
        spec = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), domain)
        residual, rhs = reduction_identity_check(spec, (3.0, 1.0, 2.0), kappa_override=(1.0, 0.0, 0.0))
        assert rhs == -12.0
        assert residual == pytest.approx(-12.0, rel=1e-9)

    def test_agreement_across_random_specs(self):
        import random

        rng = random.Random(5)
        for idx in range(20):
            spec = random_family_spec(idx, seed=77)
            kappa = (rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2))
            for x in spec.domain.sample(10, seed=idx):
                residual, rhs = reduction_identity_check(spec, x, kappa_override=kappa)
                assert residual == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def test_random_family_instances_pass_both_schemes():
    for idx in range(30):
        spec = random_family_spec(idx, seed=1)
        field = matrix_field_from_spec(spec)
        for x in spec.domain.sample(30, seed=idx):
            entries = field.entries(*map(float, x))
            scale = 1.0 + max(abs(v) for v in entries)
            assert abs(jacobi_residual(field, x, "analytic")) <= 1e-9 * scale
            assert abs(jacobi_residual(field, x, "fd")) <= 1e-5 * scale


def test_negative_control_rejects_polynomial_fields():
    box = DomainBox(((0.0, 1.0),) * 3, None)
    failures = 0
    trials = 50
    for idx in range(trials):
        field = random_polynomial_field(idx, seed=3)
        report = verify_structure(field, box, 100, 1e-3, seed=idx, scheme="analytic")
        failures += report.verdict == "fail"
    assert failures >= math.ceil(0.95 * trials)


def test_spec_backed_field_matches_structure_matrix():
    spec = random_family_spec(4, seed=9)
    field = matrix_field_from_spec(spec)
    for x in spec.domain.sample(25, seed=2):
        want = structure_matrix_at(spec, x).entries()
        got = field.entries(*map(float, x))
        for w, g in zip(want, got):
            assert g == pytest.approx(w, rel=1e-12, abs=1e-14)


def _faulting():
    raise ex.BatchFault("every point in order")


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_a_sampled_check_rejects_a_value_that_is_not_finite(bad):
    # a value that is not finite ends the check, naming its point, before it can reach the report
    points = [(0.5, 1.0, 1.5), (2.0, 3.0, 4.0), (5.0, 6.0, 7.0)]
    seen = []

    def measure(x):
        seen.append(x)
        return (bad if x[0] == 2.0 else 0.0), (9.0, 9.0, 9.0)

    with pytest.raises(DomainEvalError, match=r"^non-finite canonical value (nan|inf) at \(2\.0, 3\.0, 4\.0\)$"):
        sampled_check("canonical", _faulting, measure, points, "analytic", 42, 1e-8)
    assert seen == points[:2]  # the first such point ends the check
    everywhere = lambda x: (math.nan, x)
    with pytest.raises(DomainEvalError, match=r"at \(0\.5, 1\.0, 1\.5\)$"):
        sampled_check("jacobi", _faulting, everywhere, points, "fd", 42, 1e-6)
