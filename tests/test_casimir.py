import numpy as np
import pytest

from poisson3d.casimir import (
    annihilation_residual,
    casimir_expr,
    casimir_gradient,
    casimir_gradient_fd,
    casimir_value,
    cyclic,
    default_casimir_index,
)
from poisson3d import expr as ex
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.dynamics import integrate
from poisson3d.errors import InvalidAxisError, UndefinedAtPointError
from poisson3d.family import PoissonFamilySpec, chi, structure_matrix_at
from poisson3d.testing import random_family_spec
from conftest import make_flat_spec


def test_cyclic_triples():
    assert cyclic(3) == (1, 2, 3)
    assert cyclic(1) == (2, 3, 1)
    assert cyclic(2) == (3, 1, 2)
    with pytest.raises(InvalidAxisError):
        cyclic(4)


def test_halphen_c3_value(halphen_wide):
    # C3 = (x2 - x3)/(x1 - x2) = (2 - 4)/(1 - 2) = 2
    assert casimir_value(halphen_wide, 3, (1.0, 2.0, 4.0)) == 2.0


def test_halphen_other_indices(halphen_wide):
    x = (1.0, 2.0, 4.0)
    assert casimir_value(halphen_wide, 1, x) == pytest.approx(3.0 / -2.0)  # chi31/chi23
    assert casimir_value(halphen_wide, 2, x) == pytest.approx(-1.0 / 3.0)  # chi12/chi31


def test_product_law(halphen_wide, euler_top_123):
    for spec in (halphen_wide, euler_top_123):
        for x in spec.domain.sample(200, seed=31):
            try:
                values = [casimir_value(spec, k, x) for k in (1, 2, 3)]
            except UndefinedAtPointError:
                continue
            product = values[0] * values[1] * values[2]
            assert product == pytest.approx(1.0, rel=1e-12)


def test_euler_top_c3(euler_top_123):
    assert casimir_value(euler_top_123, 3, (1.0, 1.0, 1.0)) == pytest.approx(-7.0 / 15.0, rel=1e-13)


def test_casimir_expr_matches_value(halphen_wide):
    fn = ex.compile_expr(casimir_expr(halphen_wide, 3), ("x1", "x2", "x3"))
    for x in halphen_wide.domain.sample(50, seed=17):
        assert fn(*map(float, x)) == pytest.approx(casimir_value(halphen_wide, 3, x), rel=1e-13)


def test_halphen_gradient_closed_form(halphen_wide):
    grad = casimir_gradient(halphen_wide, 3, (1.0, 2.0, 4.0))
    np.testing.assert_allclose(grad, [2.0, -3.0, 1.0], rtol=1e-13)


def test_flat_spec_dC3_dx3_is_minus_inverse_chi12():
    spec = make_flat_spec(((-3.0, 3.0),) * 3)
    for x in spec.domain.sample(50, seed=23):
        chi12 = float(x[0]) - float(x[1])
        if abs(chi12) < 1e-3:
            continue
        grad = casimir_gradient(spec, 3, x)
        assert grad[2] == pytest.approx(-1.0 / chi12, rel=1e-12)


def test_gradient_matches_finite_differences(halphen_wide):
    compared = 0
    for x in halphen_wide.domain.sample(100, seed=41):
        try:
            sym = casimir_gradient(halphen_wide, 3, x)
            fd = casimir_gradient_fd(halphen_wide, 3, x)
        except UndefinedAtPointError:
            continue
        err = np.max(np.abs(sym - fd))
        assert err <= 1e-6 * max(1.0, np.max(np.abs(sym)))
        compared += 1
    assert compared >= 90


def test_gradient_fd_across_random_instances():
    for idx in range(15):
        spec = random_family_spec(idx, seed=6)
        for k in (1, 2, 3):
            for x in spec.domain.sample(10, seed=100 * idx + k):
                try:
                    sym = casimir_gradient(spec, k, x)
                    fd = casimir_gradient_fd(spec, k, x)
                except UndefinedAtPointError:
                    continue
                assert np.max(np.abs(sym - fd)) <= 1e-6 * max(1.0, np.max(np.abs(sym)))


def test_annihilation_hand_value(halphen_wide):
    # row 1 of J at (1,2,4) against grad C3 = (2,-3,1):
    # 0*2 + (-1/12)(-3) + (-1/4)(1) = 0
    x = (1.0, 2.0, 4.0)
    J = structure_matrix_at(halphen_wide, x).as_matrix()
    grad = casimir_gradient(halphen_wide, 3, x)
    np.testing.assert_allclose(J @ grad, np.zeros(3), atol=1e-15)
    assert annihilation_residual(halphen_wide, 3, x) <= 1e-15


def test_annihilation_across_instances():
    for idx in range(15):
        spec = random_family_spec(idx, seed=8)
        for k in (1, 2, 3):
            for x in spec.domain.sample(15, seed=idx + 50 * k):
                try:
                    grad = casimir_gradient(spec, k, x)
                except UndefinedAtPointError:
                    continue
                J = structure_matrix_at(spec, x)
                scale = 1.0 + np.max(np.abs(J.as_matrix())) * np.max(np.abs(grad))
                assert annihilation_residual(spec, k, x, grad) <= 1e-9 * scale


def test_annihilation_with_fd_gradient(halphen_wide):
    # the finite-difference gradient is an independent route; it must also
    # be annihilated, just to its own accuracy
    for x in halphen_wide.domain.sample(25, seed=4):
        try:
            fd = casimir_gradient_fd(halphen_wide, 3, x)
        except UndefinedAtPointError:
            continue
        J = structure_matrix_at(halphen_wide, x)
        scale = 1.0 + np.max(np.abs(J.as_matrix())) * np.max(np.abs(fd))
        assert annihilation_residual(halphen_wide, 3, x, fd) <= 1e-5 * scale


def test_undefined_at_point():
    spec = make_flat_spec(((-3.0, 3.0),) * 3)
    with pytest.raises(UndefinedAtPointError):
        casimir_value(spec, 3, (0.5, 0.5, 1.0))  # chi12 = 0
    with pytest.raises(UndefinedAtPointError):
        casimir_gradient(spec, 3, (0.5, 0.5, 1.0))


def test_default_index_picks_best_conditioned(halphen_ordered):
    # on the ordered box chi31 = x3 - x1 has the largest margin, and the
    # Casimir with chi31 in the denominator is C2
    assert default_casimir_index(halphen_ordered) == 2


@pytest.mark.parametrize("k", [1, 2, 3])
def test_casimir_value_is_the_chi_ratio(k):
    # psi is evaluated once per axis, and the ratio is the one chi() gives
    i, j, _ = cyclic(k)
    specs = [build_system(name)[0] for name in BUILTIN_NAMES] + [random_family_spec(n, 3) for n in range(10)]
    for spec in specs:
        points = spec.domain.sample(200, 5)
        want = [chi(spec, j, k, x) / chi(spec, i, j, x) for x in points]
        assert [casimir_value(spec, k, x) for x in points] == want
        assert casimir_value(spec, k, np.ascontiguousarray(points.T)).tolist() == want


def test_a_ledger_record_evaluates_psi_once_per_axis(monkeypatch, halphen_wide):
    calls = []
    original = PoissonFamilySpec.psi

    def counting(self, axis, value):
        calls.append(axis)
        return original(self, axis, value)

    monkeypatch.setattr(PoissonFamilySpec, "psi", counting)
    traj = integrate(halphen_wide, ex.parse("x1 + x2 + x3"), (1.0, 2.0, 4.0), 0.01, 1e-3, casimir_k=3)
    assert len(traj) == 11
    assert calls == []  # the ledger kernel computes psi inside its one function
    # the per-expression path, which replays every record a kernel cannot take
    monkeypatch.setattr(ex, "compile_kernel", lambda *args, **kwargs: None)
    traj = integrate(halphen_wide, ex.parse("x1 + x2 + x3"), (1.0, 2.0, 4.0), 0.01, 1e-3, casimir_k=3)
    assert calls == [1, 2, 3] * len(traj)
