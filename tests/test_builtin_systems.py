import random

import numpy as np
import pytest

from poisson3d import expr as ex
from poisson3d.builtin_systems import (
    EulerTopParams,
    build_system,
    circle_maps_structure,
    default_halphen_domain,
    euler_top_hamiltonian,
    euler_top_raw_matrix,
    euler_top_structure,
    halphen_structure,
)
from poisson3d.casimir import casimir_gradient, casimir_value
from poisson3d.errors import DegenerateParametersError, FamilyValidationError
from poisson3d.family import structure_matrix_at
from poisson3d.scalar_fields import DomainBox
from poisson3d.verification import matrix_field_from_spec, verify_structure
from conftest import make_euler_top, make_halphen, ORDERED_BOX


def wide_halphen_domain():
    return default_halphen_domain(((0.0, 5.0),) * 3)


class TestHalphen:
    def test_structure_values_at_124(self):
        spec = halphen_structure(wide_halphen_domain())
        J = structure_matrix_at(spec, (1.0, 2.0, 4.0))
        assert J.j12 == pytest.approx(-1.0 / 12.0, rel=1e-14)
        assert J.j23 == pytest.approx(-1.0 / 6.0, rel=1e-14)
        assert J.j31 == pytest.approx(1.0 / 4.0, rel=1e-14)

    def test_casimir_formula(self):
        spec = halphen_structure(wide_halphen_domain())
        for x in spec.domain.sample(100, seed=3):
            x1, x2, x3 = map(float, x)
            want = (x2 - x3) / (x1 - x2)
            assert casimir_value(spec, 3, x) == pytest.approx(want, rel=1e-13)

    def test_matches_hand_built(self):
        spec = halphen_structure(wide_halphen_domain())
        hand = make_halphen(((0.0, 5.0),) * 3)
        for x in spec.domain.sample(50, seed=7):
            a = structure_matrix_at(spec, x).entries()
            b = structure_matrix_at(hand, x).entries()
            assert a == b

    def test_eta_stripped_entries_are_coordinate_differences(self):
        # with eta = 1 the display reduces to J12 = x1 - x2 etc.
        from poisson3d.family import axis_exprs, structure_entries

        spec = halphen_structure(wide_halphen_domain())
        fns = [
            ex.compile_expr(e, ("x1", "x2", "x3"))
            for e in structure_entries(spec.kappa.triple, *axis_exprs(spec), ())
        ]
        for x in spec.domain.sample(20, seed=1):
            x1, x2, x3 = map(float, x)
            assert fns[0](x1, x2, x3) == x1 - x2
            assert fns[1](x1, x2, x3) == x2 - x3
            assert fns[2](x1, x2, x3) == x3 - x1

    def test_domain_without_predicate_rejected(self):
        with pytest.raises(FamilyValidationError):
            halphen_structure(DomainBox(((0.0, 1.0),) * 3, None))
        with pytest.raises(FamilyValidationError):
            # a predicate that fails to exclude coincidences
            halphen_structure(DomainBox(((0.0, 1.0),) * 3, ex.parse("1 + 0*x1")))

    @pytest.mark.parametrize("build", [halphen_structure, circle_maps_structure])
    @pytest.mark.parametrize(
        "predicate, point",
        [
            ("(x1 - x2)*((x2 - x3)^2 + 1)", "(0.31486305440911366, 0.8174915052668215, 0.8174915052668215)"),
            ("1 + x1*0", "(0.13870941014555427, 0.13870941014555427, 0.1296456182997474)"),
        ],
    )
    def test_predicate_admitting_a_coincidence_names_the_first_probe(self, build, predicate, point):
        # the probes run plane by plane (x1 = x2, x2 = x3, x3 = x1); the first admitted one is named
        with pytest.raises(FamilyValidationError) as info:
            build(DomainBox(((0.0, 1.0),) * 3, ex.parse(predicate)))
        assert str(info.value) == f"predicate admits the coincidence point {point}"

    def test_verify_analytic_on_full_box(self):
        spec = halphen_structure()
        report = verify_structure(matrix_field_from_spec(spec), spec.domain, 1000, 1e-6, seed=42)
        assert report.verdict == "pass"
        assert report.scheme == "analytic"

    def test_verify_fd_on_separated_box(self):
        spec = halphen_structure(default_halphen_domain(ORDERED_BOX))
        report = verify_structure(
            matrix_field_from_spec(spec), spec.domain, 1000, 1e-6, seed=42, scheme="fd"
        )
        assert report.verdict == "pass"


class TestCircleMaps:
    def test_eta_ratio_is_minus_two(self):
        halphen = halphen_structure()
        circle = circle_maps_structure()
        for x in halphen.domain.sample(100, seed=5):
            x1, x2, x3 = map(float, x)
            ratio = circle.eta_value(x1, x2, x3) / halphen.eta_value(x1, x2, x3)
            assert ratio == pytest.approx(-2.0, rel=1e-14)

    def test_same_casimirs(self):
        halphen = halphen_structure(wide_halphen_domain())
        circle = circle_maps_structure(wide_halphen_domain())
        assert casimir_value(circle, 3, (1.0, 2.0, 4.0)) == 2.0
        for x in halphen.domain.sample(50, seed=9):
            for k in (1, 2, 3):
                assert casimir_value(circle, k, x) == casimir_value(halphen, k, x)

    def test_jacobi_passes(self):
        spec = circle_maps_structure()
        report = verify_structure(matrix_field_from_spec(spec), spec.domain, 1000, 1e-6, seed=42)
        assert report.verdict == "pass"


class TestEulerTop:
    def test_alpha_values(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        a1, a2, a3 = params.alphas
        assert a1 == pytest.approx(-1.0 / 6.0)
        assert a2 == pytest.approx(2.0 / 3.0)
        assert a3 == pytest.approx(-1.0 / 2.0)

    def test_symmetric_top_rejected(self):
        with pytest.raises(DegenerateParametersError):
            EulerTopParams(1.0, 1.0, 3.0)
        with pytest.raises(DegenerateParametersError):
            EulerTopParams(1.0, -2.0, 3.0)
        # two moments within 1e-12 of the larger, in any unit; distinct ones pass, however large
        for moments in ((1.0, 1.0000000000001, 2.0), (1e-3, 1.00000000000001e-3, 2e-3)):
            with pytest.raises(DegenerateParametersError, match="not pairwise distinct"):
                EulerTopParams(*moments)
        EulerTopParams(1e13, 2e13, 3e13)

    def test_raw_matrix_values(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        J = euler_top_raw_matrix(params, (1.0, 1.0, 1.0))
        assert J.j12 == pytest.approx(5.0 / 6.0, rel=1e-15)
        assert J.j23 == pytest.approx(-7.0 / 6.0, rel=1e-15)
        assert J.j31 == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert euler_top_raw_matrix(params, (0.0, 0.0, 0.0)).entries() == (0.0, 0.0, 0.0)

    def test_raw_matrix_odd_parity(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        rng = random.Random(11)
        for _ in range(50):
            x = [rng.uniform(-2, 2) for _ in range(3)]
            plus = euler_top_raw_matrix(params, x).entries()
            minus = euler_top_raw_matrix(params, [-v for v in x]).entries()
            assert all(a == -b for a, b in zip(plus, minus))

    def test_family_form_matches_raw_form(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        spec = euler_top_structure(params)
        for x in spec.domain.sample(200, seed=13):
            raw = euler_top_raw_matrix(params, x).entries()
            fam = structure_matrix_at(spec, x).entries()
            a1, a2, a3 = params.alphas
            x1, x2, x3 = map(float, x)
            scales = (
                1.0 + abs(a2 * x1 * x1 * x3) + abs(a1 * x2 * x2 * x3),
                1.0 + abs(a3 * x2 * x2 * x1) + abs(a2 * x3 * x3 * x1),
                1.0 + abs(a1 * x3 * x3 * x2) + abs(a3 * x1 * x1 * x2),
            )
            for r, f, s in zip(raw, fam, scales):
                assert abs(r - f) <= 1e-12 * s

    def test_family_form_matches_raw_over_random_moments(self):
        rng = random.Random(4)
        draws = 0
        while draws < 10:
            I = sorted(rng.uniform(0.5, 5.0) for _ in range(3))
            if I[1] - I[0] < 0.1 or I[2] - I[1] < 0.1:
                continue
            draws += 1
            params = EulerTopParams(*rng.sample(I, 3))
            spec = euler_top_structure(params)
            for x in spec.domain.sample(100, seed=draws):
                raw = euler_top_raw_matrix(params, x).entries()
                fam = structure_matrix_at(spec, x).entries()
                scale = 1.0 + max(abs(v) for v in raw)
                for r, f in zip(raw, fam):
                    assert abs(r - f) <= 1e-12 * scale

    def test_raw_matrix_annihilates_family_casimir(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        spec = euler_top_structure(params)
        for x in spec.domain.sample(100, seed=17):
            grad = casimir_gradient(spec, 3, x)
            raw = euler_top_raw_matrix(params, x).as_matrix()
            scale = 1.0 + np.max(np.abs(raw)) * np.max(np.abs(grad))
            assert np.max(np.abs(raw @ grad)) <= 1e-9 * scale

    def test_casimir_value_at_111(self):
        spec = euler_top_structure(EulerTopParams(1.0, 2.0, 3.0))
        assert casimir_value(spec, 3, (1.0, 1.0, 1.0)) == pytest.approx(-7.0 / 15.0, rel=1e-13)

    def test_matches_hand_built(self):
        spec = euler_top_structure(EulerTopParams(1.0, 2.0, 3.0))
        hand = make_euler_top((1.0, 2.0, 3.0))
        for x in spec.domain.sample(50, seed=19):
            a = structure_matrix_at(spec, x).entries()
            b = structure_matrix_at(hand, x).entries()
            for u, v in zip(a, b):
                assert u == pytest.approx(v, rel=1e-13)

    def test_negative_octant_branch(self):
        params = EulerTopParams(1.0, 2.0, 3.0)
        box = ((-2.0, -0.4),) * 3
        spec = euler_top_structure(params, DomainBox(box, None))
        from poisson3d.darboux import build_chart, forward_map, inverse_map

        chart = build_chart(spec, k=3)
        assert chart.sign_branch == (-1, -1, -1)
        for x in spec.domain.sample(100, seed=23):
            y = forward_map(chart, x)
            assert np.max(np.abs(inverse_map(chart, y) - np.asarray(x, float))) <= 1e-10

    def test_plane_spanning_domain_rejected(self):
        with pytest.raises(FamilyValidationError):
            euler_top_structure(EulerTopParams(1.0, 2.0, 3.0), DomainBox(((-1.0, 1.0),) * 3, None))

    def test_jacobi_passes(self):
        spec = euler_top_structure(EulerTopParams(1.0, 2.0, 3.0))
        report = verify_structure(matrix_field_from_spec(spec), spec.domain, 500, 1e-6, seed=42)
        assert report.verdict == "pass"


def test_build_system_registry():
    spec, H = build_system("halphen")
    assert spec.name == "halphen" and ex.to_source(H) == "x1 + x2 + x3"
    spec, H = build_system("euler-top", (1.0, 2.0, 3.0))
    assert spec.name == "euler-top"
    fn = ex.compile_expr(H, ("x1", "x2", "x3"))
    assert fn(1.0, 1.0, 1.0) == pytest.approx(0.5 + 0.25 + 1.0 / 6.0)
    with pytest.raises(ValueError):
        build_system("lorenz")


def test_euler_top_hamiltonian_gradient():
    params = EulerTopParams(1.0, 2.0, 3.0)
    H = euler_top_hamiltonian(params)
    d1 = ex.compile_expr(ex.differentiate(H, "x1"), ("x1", "x2", "x3"))
    assert d1(2.0, 0.0, 0.0) == pytest.approx(2.0)
