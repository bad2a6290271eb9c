import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import expr as ex
from poisson3d.errors import (
    ConsistencyAlarmError,
    DomainMembershipError,
    FamilyValidationError,
    InvalidAxisError,
)
from poisson3d.family import (
    StructureMatrixValue,
    chi,
    make_family_spec,
    make_kappa,
    rank_at,
    rescale,
    structure_matrix_at,
)
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system, halphen_structure
from poisson3d.casimir import casimir_expr, casimir_value
from poisson3d.scalar_fields import DomainBox, build_scalar_field
from poisson3d.testing import random_family_spec
from poisson3d.verification import matrix_field_from_spec
from conftest import make_halphen


class TestKappa:
    def test_k31_is_derived(self):
        assert make_kappa(1.0, 2.0).k31 == -3.0

    def test_all_zero(self):
        k = make_kappa(0.0, 0.0)
        assert (k.k12, k.k23, k.k31) == (0.0, 0.0, 0.0)

    def test_zero_sum_exact(self):
        rng = random.Random(3)
        for _ in range(200):
            k = make_kappa(rng.uniform(-5, 5), rng.uniform(-5, 5))
            assert (k.k12 + k.k23) + k.k31 == 0.0

    @given(
        st.floats(min_value=-1e6, max_value=1e6),
        st.floats(min_value=-1e6, max_value=1e6),
    )
    @settings(max_examples=300, deadline=None)
    def test_zero_sum_property(self, k12, k23):
        k = make_kappa(k12, k23)
        assert (k.k12 + k.k23) + k.k31 == 0.0
        assert k.entry(3, 1) == -k.entry(1, 3)

    def test_skew_entries(self):
        k = make_kappa(1.5, -0.25)
        for i in range(1, 4):
            assert k.entry(i, i) == 0.0
            for j in range(1, 4):
                assert k.entry(i, j) == -k.entry(j, i)

    def test_primitive_shift_updates_constants(self):
        k = make_kappa(1.0, 2.0)
        shifted = k.shifted(1.0, 0.0, 0.0)
        assert shifted.k12 == k.k12 + 1.0
        assert shifted.k31 == k.k31 - 1.0
        assert (shifted.k12 + shifted.k23) + shifted.k31 == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_kappa(float("nan"), 0.0)


class TestChi:
    def test_halphen_values(self, halphen_wide):
        x = (1.0, 2.0, 4.0)
        assert chi(halphen_wide, 1, 2, x) == -1.0
        assert chi(halphen_wide, 2, 3, x) == -2.0
        assert chi(halphen_wide, 3, 1, x) == 3.0

    def test_zero_sum_everywhere(self, halphen_wide, euler_top_123):
        for spec in (halphen_wide, euler_top_123):
            for x in spec.domain.sample(200, seed=5):
                total = chi(spec, 1, 2, x) + chi(spec, 2, 3, x) + chi(spec, 3, 1, x)
                scale = 1.0 + max(abs(spec.psi(a, float(x[a - 1]))) for a in (1, 2, 3))
                assert abs(total) <= 1e-12 * scale

    def test_antisymmetry_exact(self, euler_top_123):
        for x in euler_top_123.domain.sample(100, seed=11):
            for i, j in ((1, 2), (2, 3), (3, 1)):
                assert chi(euler_top_123, i, j, x) == -chi(euler_top_123, j, i, x)

    def test_antisymmetry_across_random_instances(self):
        from poisson3d.testing import random_family_spec

        pairs = 0
        for idx in range(25):
            spec = random_family_spec(idx, seed=15)
            for x in spec.domain.sample(40, seed=idx):
                for i, j in ((1, 2), (2, 3), (3, 1)):
                    assert chi(spec, i, j, x) == -chi(spec, j, i, x)
                M = structure_matrix_at(spec, x).as_matrix()
                assert np.array_equal(M, -M.T)
                pairs += 1
        assert pairs == 1000

    def test_equal_axes_rejected(self, halphen_wide):
        with pytest.raises(InvalidAxisError):
            chi(halphen_wide, 1, 1, (1.0, 2.0, 4.0))
        with pytest.raises(InvalidAxisError):
            chi(halphen_wide, 0, 2, (1.0, 2.0, 4.0))


class TestStructureMatrix:
    def test_halphen_at_124(self, halphen_wide):
        J = structure_matrix_at(halphen_wide, (1.0, 2.0, 4.0))
        assert J.j12 == pytest.approx(-1.0 / 12.0, rel=1e-14)
        assert J.j23 == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert J.j31 == pytest.approx(1.0 / 4.0, rel=1e-14)

    def test_euler_top_at_111(self, euler_top_123):
        J = structure_matrix_at(euler_top_123, (1.0, 1.0, 1.0))
        assert J.j12 == pytest.approx(5.0 / 6.0, rel=1e-13)
        assert J.j23 == pytest.approx(-7.0 / 6.0, rel=1e-13)
        assert J.j31 == pytest.approx(1.0 / 3.0, rel=1e-13)

    def test_degenerate_point_all_zero(self, flat_spec):
        J = structure_matrix_at(flat_spec, (0.0, 0.0, 0.0))
        assert J.entries() == (0.0, 0.0, 0.0)
        assert J.rank() == 0

    def test_matrix_is_skew(self, halphen_wide):
        for x in halphen_wide.domain.sample(100, seed=8):
            M = structure_matrix_at(halphen_wide, x).as_matrix()
            assert np.array_equal(M, -M.T)
            assert np.all(np.diag(M) == 0.0)

    def test_outside_domain_rejected(self, halphen_unit):
        with pytest.raises(DomainMembershipError):
            structure_matrix_at(halphen_unit, (0.5, 0.5, 0.9))  # predicate zero
        with pytest.raises(DomainMembershipError):
            structure_matrix_at(halphen_unit, (2.0, 0.5, 0.9))  # outside box

    def test_symbolic_entries_and_casimirs_equal_pointwise_exactly(self):
        # verify's entries and casimir_expr are the float formulas applied to trees, so
        # their compiled values are the float path's bits (a rescaled chain included)
        specs = [build_system(name)[0] for name in BUILTIN_NAMES]
        specs += [random_family_spec(i, 42) for i in range(4)]
        specs.append(rescale(halphen_structure(), ex.parse("1 + x1^2/50")))
        for spec in specs:
            fns = [ex.compile_expr(f.expr) for f in matrix_field_from_spec(spec).fields]
            casimirs = [ex.compile_expr(casimir_expr(spec, k)) for k in (1, 2, 3)]
            for x in spec.domain.sample(2000, seed=21):
                x = tuple(float(v) for v in x)
                want = structure_matrix_at(spec, x).entries()
                assert [fn(*x).hex() for fn in fns] == [v.hex() for v in want], (spec.name, len(spec.eta_chain), x)
                for k, fn in zip((1, 2, 3), casimirs):
                    assert fn(*x).hex() == casimir_value(spec, k, x).hex(), (spec.name, k, x)


class TestRank:
    def test_halphen_rank_two(self, halphen_wide):
        assert rank_at(halphen_wide, (1.0, 2.0, 4.0)) == 2

    def test_flat_origin_rank_zero(self, flat_spec):
        assert rank_at(flat_spec, (0.0, 0.0, 0.0)) == 0

    def test_impossible_pattern_alarms(self):
        with pytest.raises(ConsistencyAlarmError):
            StructureMatrixValue(0.0, 0.0, 1.0).rank()

    def test_two_small_near_tolerance_is_rank_two(self):
        assert StructureMatrixValue(0.0, 0.0, 1e-11).rank(tol=1e-12) == 2


class TestRescale:
    def test_identity_factor(self, halphen_ordered):
        doubled = rescale(halphen_ordered, ex.parse("1"))
        for x in halphen_ordered.domain.sample(20, seed=2):
            a = structure_matrix_at(halphen_ordered, x)
            b = structure_matrix_at(doubled, x)
            assert a.entries() == b.entries()

    def test_rescaled_entries_exactly_scaled(self, euler_top_123):
        factor = ex.parse("1 + x1^2 * x2")
        fn = ex.compile_expr(factor, ("x1", "x2", "x3"))
        scaled = rescale(euler_top_123, factor)
        for x in euler_top_123.domain.sample(100, seed=13):
            f = fn(float(x[0]), float(x[1]), float(x[2]))
            a = structure_matrix_at(euler_top_123, x)
            b = structure_matrix_at(scaled, x)
            assert b.j12 == f * a.j12
            assert b.j23 == f * a.j23
            assert b.j31 == f * a.j31

    def test_halphen_is_rescaled_flat_eta(self):
        from conftest import HALPHEN_ETA, HALPHEN_PREDICATE, WIDE_BOX

        domain = DomainBox(WIDE_BOX, ex.parse(HALPHEN_PREDICATE))
        fields = tuple(
            build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in WIDE_BOX
        )
        unscaled = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), domain)
        halphen = rescale(unscaled, ex.parse(HALPHEN_ETA))
        direct = make_halphen(WIDE_BOX)
        for x in domain.sample(50, seed=4):
            a = structure_matrix_at(halphen, x)
            b = structure_matrix_at(direct, x)
            for u, v in zip(a.entries(), b.entries()):
                assert u == pytest.approx(v, rel=1e-13)

    def test_vanishing_factor_rejected(self, halphen_unit):
        with pytest.raises(FamilyValidationError):
            rescale(halphen_unit, ex.parse("x1 - x1"))


class TestSpecValidation:
    def test_interval_mismatch(self):
        box = DomainBox(((0.0, 1.0),) * 3, None)
        fields = tuple(
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, (0.0, 2.0)) for _ in range(3)
        )
        with pytest.raises(FamilyValidationError):
            make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), box)

    def test_eta_wrong_variable(self):
        box = DomainBox(((0.0, 1.0),) * 3, None)
        fields = tuple(
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, (0.0, 1.0)) for _ in range(3)
        )
        with pytest.raises(FamilyValidationError):
            make_family_spec(ex.parse("u"), fields, make_kappa(0.0, 0.0), box)

    def test_vanishing_eta(self):
        box = DomainBox(((0.0, 1.0),) * 3, None)
        fields = tuple(
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, (0.0, 1.0)) for _ in range(3)
        )
        with pytest.raises(FamilyValidationError):
            make_family_spec(ex.parse("x1 - x1"), fields, make_kappa(0.0, 0.0), box)


def test_primitive_shift_gives_same_structure():
    # shifting every psi_i by k_i while moving kappa to kappa_ij + k_i - k_j
    # reproduces the same matrix (up to the reassociated roundings)
    shifts = (1.0, 0.0, 0.0)
    box = ((0.0, 5.0),) * 3
    domain = DomainBox(box, None)
    base_fields = tuple(
        build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in box
    )
    shifted_fields = tuple(
        build_scalar_field(ex.parse("1"), ex.parse(f"u + {k}"), None, iv)
        for k, iv in zip(shifts, box)
    )
    kappa = make_kappa(1.0, 2.0)
    spec_shifted_psi = make_family_spec(ex.parse("1"), shifted_fields, kappa, domain)
    spec_shifted_kappa = make_family_spec(
        ex.parse("1"), base_fields, kappa.shifted(*shifts), domain
    )
    for x in domain.sample(50, seed=10):
        a = structure_matrix_at(spec_shifted_psi, x)
        b = structure_matrix_at(spec_shifted_kappa, x)
        for u, v in zip(a.entries(), b.entries()):
            assert u == pytest.approx(v, rel=1e-13, abs=1e-13)
