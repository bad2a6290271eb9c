import math

import numpy as np
import pytest

from poisson3d import expr as ex
from poisson3d.casimir import casimir_expr
from poisson3d.darboux import build_chart, forward_map, inverse_map
from poisson3d.dynamics import (
    Trajectory,
    hamiltonian_vector_field,
    integrate,
    integrate_reduced,
    invariant_drift,
)
from poisson3d.errors import (
    DomainExitError,
    DomainMembershipError,
    ReparametrizationBreakdownError,
)
from poisson3d.family import make_family_spec, make_kappa
from poisson3d.scalar_fields import DomainBox, Field3, build_scalar_field
from poisson3d.testing import hermite_resample
from conftest import make_euler_top, make_flat_spec, make_halphen, ORDERED_BOX, WIDE_BOX

H_SUM = ex.parse("x1 + x2 + x3")
X0 = (1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def halphen():
    return make_halphen(WIDE_BOX)


@pytest.fixture(scope="module")
def top():
    return make_euler_top()


def top_hamiltonian(I=(1.0, 2.0, 3.0)):
    return ex.parse(f"x1^2/(2*{I[0]}) + x2^2/(2*{I[1]}) + x3^2/(2*{I[2]})")


class TestVectorField:
    def test_halphen_sum_hamiltonian(self, halphen):
        v = hamiltonian_vector_field(halphen, H_SUM, X0)
        np.testing.assert_allclose(v, [-1.0 / 3.0, -1.0 / 12.0, 5.0 / 12.0], rtol=1e-13)
        assert abs(v.sum()) <= 1e-15

    def test_casimir_generates_no_motion(self, halphen):
        v = hamiltonian_vector_field(halphen, casimir_expr(halphen, 3), X0)
        assert np.max(np.abs(v)) <= 1e-14

    def test_energy_orthogonality(self, halphen):
        H = Field3(ex.parse("x1*x2 + x3^2"))
        for x in halphen.domain.sample(50, seed=3):
            v = hamiltonian_vector_field(halphen, H, x)
            g = np.array(H.gradient(*map(float, x)))
            scale = 1.0 + float(np.max(np.abs(v)) * np.max(np.abs(g)))
            assert abs(float(g @ v)) <= 1e-13 * scale

    def test_outside_domain_rejected(self, halphen):
        with pytest.raises(DomainMembershipError):
            hamiltonian_vector_field(halphen, H_SUM, (9.0, 9.5, 9.9))


class TestIntegrate:
    def test_benchmark_drift_bounds(self, halphen):
        traj = integrate(halphen, H_SUM, X0, 1.0, 1e-3, "rk4", casimir_k=3)
        report = invariant_drift(traj)
        assert report.max_abs_dH <= 1e-10
        assert report.max_abs_dC <= 1e-8
        assert len(traj) == 1001
        assert np.all(np.diff(traj.t) > 0)

    def test_equilibrium_when_h_is_casimir(self, halphen):
        traj = integrate(halphen, casimir_expr(halphen, 3), X0, 0.1, 1e-3, casimir_k=3)
        assert np.max(np.abs(traj.states - np.array(X0))) <= 1e-12

    def test_preconditions(self, halphen):
        with pytest.raises(ValueError):
            integrate(halphen, H_SUM, X0, 1.0, -1e-3)
        with pytest.raises(ValueError):
            integrate(halphen, H_SUM, X0, 1.0, 1e-3, method="euler")
        with pytest.raises(DomainMembershipError):
            integrate(halphen, H_SUM, (9.0, 9.5, 9.9), 1.0, 1e-3)

    def test_domain_exit_carries_partial(self):
        spec = make_flat_spec(((-1.0, 1.0),) * 3)
        with pytest.raises(DomainExitError) as err:
            integrate(spec, ex.parse("x3"), (0.9, 0.5, 0.0), 2.0, 1e-2, casimir_k=None)
        partial = err.value.partial
        assert partial is not None and len(partial) >= 2
        assert spec.domain.contains(partial.states[-1])
        assert 0.0 < err.value.t <= 2.0

    def test_midpoint_runs_and_conserves_on_benchmark(self, halphen):
        traj = integrate(halphen, H_SUM, X0, 1.0, 1e-3, "midpoint", casimir_k=3)
        report = invariant_drift(traj)
        assert report.max_abs_dH <= 1e-10  # straight-line orbit: roundoff only

    def test_coarse_run_reports_finite_drift(self, halphen):
        traj = integrate(halphen, top_hamiltonian(), X0, 1.0, 0.1, casimir_k=3)
        report = invariant_drift(traj)
        assert math.isfinite(report.max_abs_dH) and math.isfinite(report.max_abs_dC)

    def test_fourth_order_drift_scaling(self):
        # quadratic H on the product-form structure bends the orbit, so the
        # energy drift is far above roundoff and scales like dt^4; the
        # Casimir of this structure has planar level sets and stays at
        # roundoff at every step size (checked separately below)
        spec = make_halphen(((-4.0, 6.0),) * 3)
        H = ex.parse("(x1^2 + x2^2 + x3^2)/2")
        d1 = invariant_drift(integrate(spec, H, X0, 4.0, 0.04, casimir_k=3))
        d2 = invariant_drift(integrate(spec, H, X0, 4.0, 0.02, casimir_k=3))
        assert d1.max_abs_dH > 1e-9  # truncation-dominated regime
        assert 8.0 <= d1.max_abs_dH / d2.max_abs_dH <= 32.0
        assert d1.max_abs_dC <= 1e-12 and d2.max_abs_dC <= 1e-12

    def test_single_sample_trajectory_zero_drift(self):
        traj = Trajectory(
            np.array([0.0]), None, np.array([[1.0, 2.0, 4.0]]), np.array([7.0]),
            np.array([2.0]), 3, 1e-3, "rk4",
        )
        report = invariant_drift(traj)
        assert report.max_abs_dH == 0.0 and report.max_abs_dC == 0.0

    def test_auto_casimir_index(self, halphen):
        traj = integrate(halphen, H_SUM, X0, 0.01, 1e-3)
        assert traj.casimir_k in (1, 2, 3)
        assert traj.C is not None


class TestReduced:
    def test_casimir_coordinate_exactly_constant(self, halphen):
        chart = build_chart(halphen, k=3)
        y0 = forward_map(chart, X0)
        traj = integrate_reduced(chart, H_SUM, y0, 0.25, 1e-3)
        assert np.all(traj.states[:, 2] == y0[2])
        assert np.all(traj.C == -y0[2])

    def test_reduced_hamiltonian_conserved(self, halphen):
        chart = build_chart(halphen, k=3)
        traj = integrate_reduced(chart, H_SUM, forward_map(chart, X0), 0.25, 1e-3)
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-10

    def test_negative_factor_runs_t_backwards(self, halphen):
        chart = build_chart(halphen, k=3)
        traj = integrate_reduced(chart, H_SUM, forward_map(chart, X0), 0.05, 1e-3)
        assert np.all(np.diff(traj.tau) > 0)
        assert np.all(np.diff(traj.t) < 0)  # factor = -1/12 at the start

    def test_reduced_euler_top_conserves_h(self, top):
        chart = build_chart(top, k=3)
        traj = integrate_reduced(chart, top_hamiltonian(), forward_map(chart, (1.0, 1.0, 1.0)), 0.3, 1e-3)
        assert np.max(np.abs(traj.H - traj.H[0])) <= 1e-10

    def test_reduced_fourth_order_scaling(self):
        spec = make_halphen(((-4.0, 6.0),) * 3)
        chart = build_chart(spec, k=3)
        y0 = forward_map(chart, X0)
        H = ex.parse("(x1^2 + x2^2 + x3^2)/2")

        def drift(dtau):
            traj = integrate_reduced(chart, H, y0, -0.5, dtau)
            return np.max(np.abs(traj.H - traj.H[0]))

        d1, d2 = drift(0.05), drift(0.025)
        assert d1 > 1e-10
        assert 8.0 <= d1 / d2 <= 32.0

    def test_map_back_matches_direct_pipeline(self, halphen):
        chart = build_chart(halphen, k=3)
        y0 = forward_map(chart, X0)
        reduced = integrate_reduced(chart, H_SUM, y0, -0.045, 1e-5)
        assert reduced.t.max() >= 0.5
        direct = integrate(halphen, H_SUM, X0, 0.55, 1e-3, casimir_k=3)
        keep = (reduced.t >= 0.0) & (reduced.t <= 0.5)
        t_common = reduced.t[keep]
        mapped = np.array([inverse_map(chart, y) for y in reduced.states[keep]])
        resampled = hermite_resample(
            direct, t_common, lambda s: hamiltonian_vector_field(halphen, H_SUM, s)
        )
        assert np.max(np.abs(mapped - resampled)) <= 1e-6

    def test_breakdown_when_factor_crosses_floor(self):
        box = ((-1.0, 1.0),) * 3
        domain = DomainBox(box, ex.parse("x1 - x2"))
        fields = tuple(
            build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), iv) for iv in box
        )
        spec = make_family_spec(ex.parse("1"), fields, make_kappa(0.0, 0.0), domain)
        chart = build_chart(spec, k=3)
        y0 = forward_map(chart, (0.3, 0.7, 0.2))
        with pytest.raises(ReparametrizationBreakdownError) as err:
            integrate_reduced(chart, ex.parse("x3"), y0, 0.6, 1e-3)
        partial = err.value.partial
        assert partial is not None and partial.coords == "y" and len(partial) >= 1

    def test_domain_exit_carries_partial(self):
        # H = x1 drives y2 down at unit rate with y1 and y3 fixed; x2 = y2
        # leaves [0.6, 1.0] just after tau = 0.2
        spec = make_flat_spec(((0.0, 0.4), (0.6, 1.0), (-1.0, 1.0)))
        chart = build_chart(spec, k=3)
        y0 = forward_map(chart, (0.2, 0.8, 0.5))
        with pytest.raises(DomainExitError) as err:
            integrate_reduced(chart, ex.parse("x1"), y0, 0.5, 0.01)
        partial = err.value.partial
        assert partial is not None and partial.coords == "y"
        assert len(partial) == len(partial.tau) == len(partial.states) >= 2
        last = partial.states[-1]
        assert spec.domain.contains(inverse_map(chart, last))
        assert last[0] == y0[0] and last[2] == y0[2]
        assert 0.6 <= last[1] < 0.61
        assert err.value.state[1] < 0.6
        assert err.value.t == pytest.approx(partial.tau[-1] + 0.01)

    def test_box_edge_is_domain_exit(self):
        # forward in tau the curved orbit reaches x3 = -4, the box edge, just
        # after tau = 0.60; x_k(y) then has no preimage under psi_3
        spec = make_halphen(((-4.0, 6.0),) * 3)
        chart = build_chart(spec, k=3)
        y0 = forward_map(chart, X0)
        H = ex.parse("(x1^2 + x2^2 + x3^2)/2")
        assert len(integrate_reduced(chart, H, y0, 0.60, 1e-3)) == 601
        with pytest.raises(DomainExitError) as err:
            integrate_reduced(chart, H, y0, 0.61, 1e-3)
        partial = err.value.partial
        assert partial is not None and partial.coords == "y" and len(partial) >= 601
        assert spec.domain.contains(inverse_map(chart, partial.states[-1]))

    def test_preconditions(self, halphen):
        chart = build_chart(halphen, k=3)
        y0 = forward_map(chart, X0)
        with pytest.raises(ValueError):
            integrate_reduced(chart, H_SUM, y0, 0.25, -1e-3)
        with pytest.raises(ValueError):
            integrate_reduced(chart, H_SUM, y0, 0.0, 1e-3)

    def test_numeric_fallback_without_zeta(self):
        # drop zeta from axis 3: the reduced Hamiltonian goes through the
        # root-finder and finite differences instead of symbols
        box = ORDERED_BOX
        domain = DomainBox(box, ex.parse("(x1 - x2)*(x2 - x3)*(x3 - x1)"))
        fields = (
            build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), box[0]),
            build_scalar_field(ex.parse("1"), ex.parse("u"), ex.parse("u"), box[1]),
            build_scalar_field(ex.parse("1"), ex.parse("u"), None, box[2]),
        )
        spec = make_family_spec(
            ex.parse("1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))"),
            fields,
            make_kappa(0.0, 0.0),
            domain,
        )
        chart = build_chart(spec, k=3)
        x0 = (0.25, 0.75, 1.25)
        y0 = forward_map(chart, x0)
        symbolic_spec = make_halphen(ORDERED_BOX)
        symbolic_chart = build_chart(symbolic_spec, k=3)
        a = integrate_reduced(chart, H_SUM, y0, 0.02, 1e-3)
        b = integrate_reduced(symbolic_chart, H_SUM, y0, 0.02, 1e-3)
        assert np.max(np.abs(a.states - b.states)) <= 1e-8
        assert np.max(np.abs(a.t - b.t)) <= 1e-8


def test_hermite_resample_reproduces_grid_and_midpoints(halphen):
    direct = integrate(halphen, H_SUM, X0, 0.2, 1e-3, casimir_k=3)
    deriv = lambda s: hamiltonian_vector_field(halphen, H_SUM, s)
    on_grid = hermite_resample(direct, direct.t[::50], deriv)
    assert np.max(np.abs(on_grid - direct.states[::50])) == 0.0
    fine = integrate(halphen, H_SUM, X0, 0.2, 2.5e-4, casimir_k=3)
    mids = direct.t[:-1:97] + 0.5e-3
    a = hermite_resample(direct, mids, deriv)
    b = hermite_resample(fine, mids, deriv)
    assert np.max(np.abs(a - b)) <= 1e-10
    with pytest.raises(ValueError):
        hermite_resample(direct, [5.0], deriv)
