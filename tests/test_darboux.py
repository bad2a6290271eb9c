import dataclasses
import json
import math

import numpy as np
import pytest

from poisson3d import darboux
from poisson3d.builtin_systems import BUILTIN_NAMES, build_system
from poisson3d.casimir import CHART_SAMPLES, casimir_gradient_fd, chi_table, cyclic, denominator_threshold
from poisson3d.cli import load_spec_file, main
from poisson3d.darboux import (
    PROBE,
    _zero_set_probe,
    build_chart,
    canonical_check,
    canonical_matrix,
    forward_map,
    inverse_map,
    jacobian_forward,
    pushforward_matrix,
    reparam_factor,
)
from poisson3d.errors import DomainSamplingError, HypothesisViolationError, OutOfRangeError, PoissonError
from poisson3d.family import chi, structure_matrix_at
from poisson3d.scalar_fields import DomainBox, psi_inverse
from poisson3d.testing import random_family_spec
from conftest import make_euler_top, make_flat_spec, make_halphen, ORDERED_BOX, WIDE_BOX
from helpers import small_chi_claim_problem


@pytest.fixture(scope="module")
def halphen_wide_chart():
    return build_chart(make_halphen(WIDE_BOX), k=3)


@pytest.fixture(scope="module")
def halphen_ordered_chart():
    return build_chart(make_halphen(ORDERED_BOX), k=3)


@pytest.fixture(scope="module")
def top_chart():
    return build_chart(make_euler_top(), k=3)


def _fd_pushforward(chart, x):
    """(dy/dx) J(x) (dy/dx)^T with the Casimir row of dy/dx from the fd oracle."""
    M = jacobian_forward(chart, x)
    M[chart.k - 1] = -casimir_gradient_fd(chart.spec, chart.k, x)
    return M @ structure_matrix_at(chart.spec, x).as_matrix() @ M.T


class TestForwardInverse:
    def test_halphen_forward_124(self, halphen_wide_chart):
        np.testing.assert_array_equal(
            forward_map(halphen_wide_chart, (1.0, 2.0, 4.0)), [1.0, 2.0, -2.0]
        )

    def test_halphen_inverse_formula(self, halphen_wide_chart):
        # x3 = y2 + (y1 - y2) y3 = 2 + (-1)(-2) = 4
        np.testing.assert_allclose(
            inverse_map(halphen_wide_chart, (1.0, 2.0, -2.0)), [1.0, 2.0, 4.0], rtol=1e-14
        )

    def test_pair_components_pass_through(self, halphen_wide_chart):
        for x in halphen_wide_chart.spec.domain.sample(50, seed=3):
            y = forward_map(halphen_wide_chart, x)
            assert y[0] == x[0] and y[1] == x[1]

    def test_euler_forward_and_inverse(self, top_chart):
        y = forward_map(top_chart, (1.0, 1.0, 1.0))
        np.testing.assert_allclose(y, [1.0, 1.0, 7.0 / 15.0], rtol=1e-13)
        np.testing.assert_allclose(inverse_map(top_chart, y), [1.0, 1.0, 1.0], rtol=1e-12)

    def test_euler_sign_branch_positive_octant(self, top_chart):
        assert top_chart.sign_branch == (1, 1, 1)

    @pytest.mark.parametrize("chart_name", ["halphen_ordered_chart", "top_chart"])
    def test_round_trips(self, chart_name, request):
        chart = request.getfixturevalue(chart_name)
        for x in chart.spec.domain.sample(1000, seed=5):
            y = forward_map(chart, x)
            back = inverse_map(chart, y)
            assert np.max(np.abs(back - np.asarray(x, float))) <= 1e-10
            again = forward_map(chart, back)
            assert np.max(np.abs(again - y)) <= 1e-10

    def test_inverse_out_of_image(self, top_chart):
        # a huge Casimir coordinate pushes the zeta argument outside psi range
        with pytest.raises(OutOfRangeError):
            inverse_map(top_chart, (1.0, 1.0, 500.0))


class TestPushforwardAndFactor:
    def test_halphen_point_values(self, halphen_wide_chart):
        y = (1.0, 2.0, -2.0)
        P = pushforward_matrix(halphen_wide_chart, y)
        assert P.j12 == pytest.approx(-1.0 / 12.0, rel=1e-12)
        assert abs(P.j23) <= 1e-14 and abs(P.j31) <= 1e-14
        factor = reparam_factor(halphen_wide_chart, y)
        assert factor == pytest.approx(-1.0 / 12.0, rel=1e-12)
        # closed form from the worked example: (2 (y1-y2)^2 y3 (1-y3))^(-1)
        y1, y2, y3 = y
        assert factor == pytest.approx(1.0 / (2.0 * (y1 - y2) ** 2 * y3 * (1.0 - y3)), rel=1e-12)

    def test_factor_matches_pushforward_entry(self, halphen_ordered_chart, top_chart):
        for chart in (halphen_ordered_chart, top_chart):
            i, j, _ = cyclic(chart.k)
            idx = {(1, 2): "j12", (2, 3): "j23", (3, 1): "j31"}[(i, j)]
            for x in chart.spec.domain.sample(100, seed=9):
                y = forward_map(chart, x)
                P = pushforward_matrix(chart, y)
                assert getattr(P, idx) == pytest.approx(reparam_factor(chart, y), rel=1e-8)

    def test_decoupled_rows_fd_scheme(self, halphen_ordered_chart, top_chart):
        # the symbolic Casimir row of dy/dx against the independent
        # finite-difference route, to stencil accuracy; with the fd row in
        # place the Casimir row/column of J' must still vanish
        for chart in (halphen_ordered_chart, top_chart):
            i, j, k = cyclic(chart.k)
            for x in chart.spec.domain.sample(100, seed=21):
                row = jacobian_forward(chart, x)[k - 1]
                fd = casimir_gradient_fd(chart.spec, k, x)
                assert np.max(np.abs(row + fd)) <= 1e-6 * np.max(np.abs(row))
                P = _fd_pushforward(chart, x)
                scale = 1.0 + abs(P[i - 1, j - 1])
                assert abs(P[j - 1, k - 1]) <= 1e-6 * scale
                assert abs(P[k - 1, i - 1]) <= 1e-6 * scale

    def test_factor_constant_sign_on_connected_image(self, halphen_ordered_chart):
        signs = set()
        for x in halphen_ordered_chart.spec.domain.sample(200, seed=13):
            signs.add(np.sign(reparam_factor(halphen_ordered_chart, forward_map(halphen_ordered_chart, x))))
        assert len(signs) == 1

    def test_identity_like_pushforward_for_flat_spec(self):
        # psi_i = x_i with kappa = 0 on an ordered box: the chart is affine
        # and J' must reproduce eta * chi pattern scaled entries exactly
        spec = make_flat_spec(ORDERED_BOX)
        chart = build_chart(spec, k=3)
        for x in spec.domain.sample(20, seed=2):
            y = forward_map(chart, x)
            P = pushforward_matrix(chart, y)
            assert P.j12 == pytest.approx(structure_matrix_at(spec, x).j12, rel=1e-12)


class TestCanonicalCheck:
    def test_halphen_ordered(self, halphen_ordered_chart):
        report = canonical_check(halphen_ordered_chart, 1000, seed=42)
        assert report.verdict == "pass"
        assert report.worst <= 1e-8

    def test_euler_top(self, top_chart):
        report = canonical_check(top_chart, 1000, seed=42)
        assert report.verdict == "pass"

    def test_fd_scheme_still_canonical(self, top_chart):
        # J' from the fd Casimir row, over the factor, is canonical to stencil accuracy
        for x in top_chart.spec.domain.sample(200, seed=7):
            y = forward_map(top_chart, x)
            P = _fd_pushforward(top_chart, x) / reparam_factor(top_chart, y)
            assert np.max(np.abs(P - canonical_matrix(top_chart.k))) <= 1e-6

    def test_k1_k2_charts_by_cyclic_relabeling(self):
        spec = make_halphen(ORDERED_BOX)
        for k in (1, 2):
            chart = build_chart(spec, k=k)
            for x in spec.domain.sample(200, seed=k):
                y = forward_map(chart, x)
                assert np.max(np.abs(inverse_map(chart, y) - np.asarray(x, float))) <= 1e-10
            report = canonical_check(chart, 200, seed=k)
            assert report.verdict == "pass", k

    def test_canonical_matrix_patterns(self):
        np.testing.assert_array_equal(
            canonical_matrix(3), [[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]
        )
        np.testing.assert_array_equal(
            canonical_matrix(1), [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]]
        )


class TestHypothesisGuards:
    def test_domain_crossing_chi_zero_rejected(self):
        spec = make_flat_spec(((-1.0, 1.0),) * 3)  # contains x1 = x2
        with pytest.raises(HypothesisViolationError):
            build_chart(spec, k=3)

    def test_euler_k2_rejected_on_octant_box(self):
        # chi31 = x1^2/3 - x3^2/9 changes sign inside the box
        with pytest.raises(HypothesisViolationError):
            build_chart(make_euler_top(), k=2)

    def test_default_k_is_best_conditioned(self):
        spec = make_halphen(ORDERED_BOX)
        chart = build_chart(spec)
        assert chart.k == 2  # chi31 has the largest margin on the ordered box


def test_chart_without_zeta_uses_root_finder():
    import poisson3d.expr as ex
    from poisson3d.family import make_family_spec, make_kappa
    from poisson3d.scalar_fields import DomainBox, build_scalar_field
    from conftest import TOP_BOX, euler_alphas

    a1, a2, a3 = euler_alphas((1.0, 2.0, 3.0))
    coeffs = (a2 * a3, a1 * a3, a1 * a2)
    fields = tuple(
        build_scalar_field(
            ex.lit(2.0 * c) * ex.var("u"),
            ex.lit(c) * ex.pow_(ex.var("u"), ex.lit(2.0)),
            None,
            iv,
        )
        for c, iv in zip(coeffs, TOP_BOX)
    )
    spec = make_family_spec(
        ex.lit(1.0 / (2.0 * a1 * a2 * a3)), fields, make_kappa(0.0, 0.0), DomainBox(TOP_BOX, None)
    )
    chart = build_chart(spec, k=3)
    for x in spec.domain.sample(100, seed=3):
        y = forward_map(chart, x)
        assert np.max(np.abs(inverse_map(chart, y) - np.asarray(x, float))) <= 1e-10


# ---------------------------------------------------------------------------
# build_chart's one pass against an oracle built from family.chi and forward_map


@pytest.fixture()
def sample_calls(monkeypatch):
    """Records every DomainBox.draw call, which every DomainBox.sample call makes, as (n, seed)."""
    calls = []
    original = DomainBox.draw

    def counted(self, n, seed):
        calls.append((n, seed))
        return original(self, n, seed)

    monkeypatch.setattr(DomainBox, "draw", counted)
    return calls


def _chart_oracle(spec, points, k=None):
    """(k, first point breaking the chart hypothesis or None) over the given points."""
    if k is None:
        margins = [min(abs(chi(spec, *cyclic(c)[:2], x)) for x in points) for c in (1, 2, 3)]
        k = margins.index(max(margins)) + 1  # the first k wins ties
    i, j, _ = cyclic(k)
    first_sign = math.copysign(1.0, chi(spec, i, j, points[0]))
    for x in points:
        value = chi(spec, i, j, x)
        floor = 1e-12 * (1.0 + abs(spec.psi(i, float(x[i - 1]))) + abs(spec.psi(j, float(x[j - 1]))))
        flips = spec.domain.predicate is None and math.copysign(1.0, value) != first_sign
        if abs(value) <= floor or flips:
            return k, x
    return k, None


def _assert_chart_matches_oracle(spec, seed, calls, k=None) -> bool:
    """build_chart(spec, k, seed=seed) agrees with the sampled oracle and samples once; True when the oracle rejects.

    Where the oracle accepts and build_chart rejects, the rejection's claim is checked point by point.
    """
    points = spec.domain.sample(512, seed)
    want_k, failing = _chart_oracle(spec, points, k)
    calls.clear()
    try:
        chart = build_chart(spec, k, seed=seed)
    except HypothesisViolationError as err:
        i, j, _ = cyclic(want_k)
        assert str(err).startswith(f"chi_{i}{j} ")
        if failing is None:  # beyond the sample: the exact stage found chi_ij's zero set in the domain
            assert small_chi_claim_problem(spec, str(err)) is None, (spec.name, str(err))
        else:
            assert str(tuple(float(v) for v in failing)) in str(err)
    else:
        assert failing is None, spec.name
        assert chart.k == want_k
        ys = np.array([forward_map(chart, x) for x in points])
        assert chart.image_box == tuple((ys[:, a].min(), ys[:, a].max()) for a in range(3))
    assert calls == [(512, seed)]
    return failing is not None


@pytest.mark.parametrize("seed", [1, 42])
def test_build_chart_matches_oracle_on_random_specs(seed, sample_calls):
    rejected = sum(_assert_chart_matches_oracle(random_family_spec(i, seed), seed, sample_calls) for i in range(40))
    assert rejected > 0  # both seeds reach the rejection path


@pytest.mark.parametrize("name", BUILTIN_NAMES)
@pytest.mark.parametrize("k", [None, 1, 2, 3])
def test_build_chart_matches_oracle_on_builtins(name, k, sample_calls):
    spec, _ = build_system(name)
    _assert_chart_matches_oracle(spec, 7, sample_calls, k)


# (seed, spec index, k): charts whose chi_ij vanishes inside the domain where the 512 chart samples miss it
ZERO_SET_CASES = [(42, 9, 1), (42, 24, 3), (0, 21, 3), (42, 31, 3), (42, 60, 2)]  # plain boxes, then product form


@pytest.mark.parametrize("seed, index, k", ZERO_SET_CASES)
def test_chart_rejects_chi_vanishing_between_the_samples(seed, index, k):
    spec = random_family_spec(index, seed)
    assert (spec.domain.predicate is None) == (index in (9, 24, 21))
    assert _chart_oracle(spec, spec.domain.sample(512, seed), k)[1] is None  # every sample passes
    with pytest.raises(HypothesisViolationError) as err:
        build_chart(spec, k, seed=seed)
    assert small_chi_claim_problem(spec, str(err.value)) is None


@pytest.mark.parametrize("name", ["halphen", "circle-maps"])
def test_chi_zero_set_on_the_coincidence_planes_is_outside_the_domain(name):
    # chi_ij vanishes where x_i and x_j coincide, which the predicate removes
    spec, _ = build_system(name)
    for k in (1, 2, 3):
        assert build_chart(spec, k).k == k


def _full_grid_probe(spec, i, j, k):
    """_zero_set_probe as it was first written: chi_table over every point of the PROBE x PROBE grid."""
    f_i, f_j = spec.field(i), spec.field(j)
    (a_i, b_i), (a_j, b_j) = f_i.psi_range(), f_j.psi_range()
    k_ij = spec.kappa.entry(i, j)
    if abs(min(max(0.0, a_i - b_j + k_ij), b_i - a_j + k_ij)) > denominator_threshold(max(-a_i, b_i), max(-a_j, b_j)):
        return np.empty((0, 3)), np.empty(0), np.empty(0)
    x_i = np.linspace(*sorted(psi_inverse(f_i, min(max(t - k_ij, a_i), b_i)) for t in (a_j, b_j)), PROBE).tolist()
    grid = np.empty((PROBE * PROBE, 3))
    grid[:, i - 1] = np.repeat(x_i, PROBE)
    grid[:, j - 1] = np.repeat([psi_inverse(f_j, min(max(f_i.psi_fn(u) + k_ij, a_j), b_j)) for u in x_i], PROBE)
    grid[:, k - 1] = np.tile(np.linspace(*spec.domain.intervals[k - 1], PROBE), PROBE)
    psis, chis = chi_table(spec, grid)
    with np.errstate(all="ignore"):
        floor = np.where(spec.domain.admissible(grid), denominator_threshold(psis[i - 1], psis[j - 1]), -np.inf)
    return grid, chis[k - 1], floor


def _chart_outcome(spec, k, seed):
    try:
        chart = build_chart(spec, k, seed=seed)
    except HypothesisViolationError as err:
        return str(err)
    return chart.k, chart.sign_branch, chart.image_box


def test_zero_set_probe_per_row_equals_the_full_grid(monkeypatch):
    # chi_ij and its threshold once per x_i, admissibility on the grid: the same arrays, so the same verdicts
    specs = [build_system(name)[0] for name in BUILTIN_NAMES]
    specs += [random_family_spec(i, s) for s in (0, 42) for i in range(100)]
    probed = rejected = 0
    for n, spec in enumerate(specs):
        for k in (1, 2, 3):
            got, want = _zero_set_probe(spec, *cyclic(k)), _full_grid_probe(spec, *cyclic(k))
            assert all(np.array_equal(a, b) for a, b in zip(got, want)), (n, k)
            probed += len(got[0]) > 0
        seed = 42 if n < len(BUILTIN_NAMES) else (0, 42)[(n - len(BUILTIN_NAMES)) // 100]
        outcomes = [_chart_outcome(spec, k, seed) for k in (None, 1, 2, 3)]
        with monkeypatch.context() as m:
            m.setattr(darboux, "_zero_set_probe", _full_grid_probe)
            assert [_chart_outcome(spec, k, seed) for k in (None, 1, 2, 3)] == outcomes, n
        rejected += sum(isinstance(o, str) and "chart hypothesis fails" in o for o in outcomes)
    assert probed > 100 and rejected > 10  # the probe runs, and rejects, on many of these


# canonical_check on build_chart's own draw (docs/decisions.md, D19)


def _check_outcome(chart, n, seed):
    """canonical_check's report as a dict, or the type and text of the error it raises."""
    try:
        return canonical_check(chart, n, seed).to_dict()
    except PoissonError as err:
        return type(err).__name__, str(err)


def _without_draw(chart):
    """The chart without build_chart's draw, so canonical_check draws and maps its own points."""
    return dataclasses.replace(chart, points=None)


@pytest.mark.parametrize("seed", [0, 42])
def test_canonical_check_on_the_charts_draw_equals_a_fresh_draw(seed, sample_calls):
    specs = [build_system(name)[0] for name in BUILTIN_NAMES] + [random_family_spec(i, seed) for i in range(100)]
    charts = reused = 0
    for n_spec, spec in enumerate(specs):
        try:
            chart = build_chart(spec, seed=seed)
        except HypothesisViolationError:
            continue
        charts += 1
        for check_seed in (seed, seed + 1):
            for n in (1, 100, CHART_SAMPLES, CHART_SAMPLES + 1):
                sample_calls.clear()
                got = _check_outcome(chart, n, check_seed)
                own = not sample_calls
                assert sample_calls in ([], [(n, check_seed)])
                assert own == (check_seed == seed and n <= CHART_SAMPLES and np.isfinite(chart.images[:n]).all())
                assert got == _check_outcome(_without_draw(chart), n, check_seed), (n_spec, n, check_seed)
                reused += own
    assert charts > 90 and reused > 3 * 90  # most charts are accepted, and their own draw serves n <= 512


def test_chart_keeps_its_draw_out_of_equality_and_repr(halphen_wide_chart):
    chart = halphen_wide_chart
    assert chart == _without_draw(chart) and repr(chart) == repr(_without_draw(chart))
    assert chart.seed == 0 and chart.points.shape == chart.images.shape == (CHART_SAMPLES, 3)
    assert chart.points.tolist() == chart.spec.domain.sample(CHART_SAMPLES, 0).tolist()
    assert chart.images.tolist() == [forward_map(chart, x).tolist() for x in chart.points]


# a box where about one point in ninety is admissible: sample(100, seed) may fail where sample(512, seed) succeeds
LOW_ACCEPTANCE_SPEC = {
    "name": "low-acceptance",
    "eta": "1",
    "axes": [{"phi": "1", "psi": "u", "zeta": "u"}] * 3,
    "kappa": [5.0, 5.0],
    "domain": {"box": [[0.0, 1.0]] * 3, "predicate": "(0.011 - x1) + abs(0.011 - x1)"},
}


@pytest.fixture()
def low_acceptance_spec_file(tmp_path):
    path = tmp_path / "low_acceptance.json"
    path.write_text(json.dumps(LOW_ACCEPTANCE_SPEC))
    return str(path)


def test_a_check_past_its_draw_budget_fails_as_a_fresh_draw(low_acceptance_spec_file, sample_calls, capsys):
    spec = load_spec_file(low_acceptance_spec_file)[1]
    # seed 2: the 100th admissible point is index 10000, the first past sample(100, 2)'s 10,000 draws
    chart = build_chart(spec, seed=2)
    assert chart.draws[99] == 10000
    sample_calls.clear()
    with pytest.raises(DomainSamplingError, match=r"^only 99 of 100 admissible points in 10000 draws$"):
        canonical_check(chart, 100, 2)
    assert sample_calls == [(100, 2)]
    assert _check_outcome(chart, 100, 2) == _check_outcome(_without_draw(chart), 100, 2)
    assert main(["darboux", "--spec", low_acceptance_spec_file, "--check-samples", "100", "--seed", "2"]) == 2
    assert capsys.readouterr() == ("", "error: only 99 of 100 admissible points in 10000 draws\n")
    # seed 116: index 9988, inside the budget, so the chart's draw serves the check
    chart = build_chart(spec, seed=116)
    assert chart.draws[99] == 9988
    sample_calls.clear()
    assert _check_outcome(chart, 100, 116) == _check_outcome(_without_draw(chart), 100, 116)
    assert sample_calls == [(100, 116)]  # the fresh draw's only


# C_3 = chi_23 / chi_12 overflows where psi_3 = 1e308 x3 is largest: some of the chart's images are infinite
HUGE_CASIMIR_SPEC = {
    "name": "huge-casimir",
    "eta": "1",
    "axes": [{"phi": "1", "psi": "u", "zeta": "u"}] * 2 + [{"phi": "1e308", "psi": "1e308*u"}],
    "kappa": [0.0, 0.0],
    "domain": {"box": [[1.0, 2.0], [0.0, 0.5], [1.0, 1.5]]},
}


def test_a_chart_with_infinite_images_replays_as_a_fresh_draw(tmp_path, sample_calls, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(HUGE_CASIMIR_SPEC))
    chart = build_chart(load_spec_file(str(path))[1], k=3, seed=42)
    finite = np.isfinite(chart.images).all(axis=1)
    assert finite[0] and not finite[:100].all()
    for n in (1, 100):
        sample_calls.clear()
        got = _check_outcome(chart, n, 42)
        assert sample_calls == ([] if n == 1 else [(n, 42)])
        assert got == _check_outcome(_without_draw(chart), n, 42)
        assert got[0] == "DomainEvalError" and got[1].startswith("non-finite canonical value nan at ")
    assert main(["darboux", "--spec", str(path), "--k", "3", "--check-samples", "100", "--seed", "42"]) == 2
    assert capsys.readouterr().err == f"error: {got[1]}\n"


@pytest.mark.parametrize("name", ["halphen", "euler-top"])
def test_darboux_draws_once_at_its_seed(name, sample_calls, capsys):
    assert main(["darboux", "--system", name, "--check-samples", "100", "--seed", "5"]) == 0
    assert [call for call in sample_calls if call[1] == 5] == [(CHART_SAMPLES, 5)]  # the spec's own checks draw at 0
    assert json.loads(capsys.readouterr().out)["canonical_check"]["samples"] == 100
