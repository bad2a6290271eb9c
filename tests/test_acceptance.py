"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.

Criterion 7's step-halving clause is asserted twice: once literally on the
stated benchmark (test_criterion_7b_...), where it cannot hold because
that orbit is a straight line and both drifts sit at roundoff (see
docs/decisions.md, D1), and once on a curved-orbit companion benchmark
that demonstrates the integrator's actual 4th-order drift scaling.  The
literal test is expected to fail and is not weakened to hide that.
"""

import json
import math
import random
import time

import numpy as np
import pytest

from poisson3d import expr as ex
from poisson3d.builtin_systems import (
    EulerTopParams,
    circle_maps_structure,
    default_halphen_domain,
    euler_top_raw_matrix,
    euler_top_structure,
    halphen_structure,
)
from poisson3d.casimir import (
    annihilation_residual,
    casimir_gradient,
    casimir_gradient_fd,
    casimir_value,
)
from poisson3d.darboux import build_chart, canonical_check, forward_map, inverse_map, reparam_factor
from poisson3d.dynamics import (
    hamiltonian_vector_field,
    integrate,
    integrate_reduced,
    invariant_drift,
)
from poisson3d.errors import UndefinedAtPointError
from poisson3d.family import structure_matrix_at
from poisson3d.scalar_fields import DomainBox
from poisson3d.testing import hermite_resample, random_family_spec, random_polynomial_field
from poisson3d.verification import (
    jacobi_residual,
    matrix_field_from_spec,
    reduction_identity_check,
    verify_structure,
)
from helpers import fd_derivative_if_trustworthy, gen_expr, gen_expr_source, run_cli_subprocess


def report(line: str) -> None:
    print(f"\nACCEPTANCE {line}")


def test_criterion_1_jacobi_residuals_on_random_instances():
    t0 = time.perf_counter()
    worst_analytic = worst_fd = 0.0
    for idx in range(100):
        spec = random_family_spec(idx, seed=101)
        field = matrix_field_from_spec(spec)
        for x in spec.domain.sample(100, seed=idx):
            entries = field.entries(*map(float, x))
            scale = 1.0 + max(abs(v) for v in entries)
            worst_analytic = max(worst_analytic, abs(jacobi_residual(field, x, "analytic")) / scale)
            worst_fd = max(worst_fd, abs(jacobi_residual(field, x, "fd")) / scale)
    elapsed = time.perf_counter() - t0
    ok = worst_analytic <= 1e-9 and worst_fd <= 1e-5 and elapsed <= 10.0
    report(
        f"1 {'PASS' if ok else 'FAIL'}: Jacobi residuals over 100 instances x 100 points: "
        f"analytic {worst_analytic:.3e} <= 1e-9, fd {worst_fd:.3e} <= 1e-5, runtime {elapsed:.2f}s <= 10s"
    )
    assert worst_analytic <= 1e-9
    assert worst_fd <= 1e-5
    assert elapsed <= 10.0


def test_criterion_2_proof_identity_with_broken_kappa():
    rng = random.Random(2024)
    checked = 0
    worst = 0.0
    while checked < 100:
        spec = random_family_spec(rng.randrange(1000), seed=202)
        kappa = (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(math.fsum(kappa)) < 0.5:
            continue
        for x in spec.domain.sample(5, seed=checked):
            residual, rhs = reduction_identity_check(spec, x, kappa_override=kappa)
            assert rhs != 0.0
            worst = max(worst, abs(residual - rhs) / abs(rhs))
            checked += 1
    ok = worst <= 1e-9
    report(f"2 {'PASS' if ok else 'FAIL'}: proof identity, broken kappa at {checked} points: "
           f"max relative mismatch {worst:.3e} <= 1e-9")
    assert worst <= 1e-9


def test_criterion_3_negative_control():
    box = DomainBox(((0.0, 1.0),) * 3, None)
    trials = 200
    failures = 0
    for idx in range(trials):
        field = random_polynomial_field(idx, seed=303)
        rep = verify_structure(field, box, 100, 1e-3, seed=idx, scheme="analytic")
        failures += rep.verdict == "fail"
    ok = failures >= math.ceil(0.95 * trials)
    report(f"3 {'PASS' if ok else 'FAIL'}: negative control: {failures}/{trials} random "
           f"polynomial skew fields rejected (need >= {math.ceil(0.95 * trials)})")
    assert failures >= math.ceil(0.95 * trials)


def test_criterion_4_casimir_annihilation_gradient_product():
    triples = 0
    worst_annih = worst_grad = worst_product = 0.0
    idx = 0
    while triples < 1000:
        spec = random_family_spec(idx, seed=404)
        points = spec.domain.sample(14, seed=idx)
        idx += 1
        for x in points:
            values = {}
            for k in (1, 2, 3):
                try:
                    grad = casimir_gradient(spec, k, x)
                    values[k] = casimir_value(spec, k, x)
                except UndefinedAtPointError:
                    continue
                J = structure_matrix_at(spec, x)
                scale = 1.0 + float(np.max(np.abs(J.as_matrix())) * np.max(np.abs(grad)))
                worst_annih = max(worst_annih, annihilation_residual(spec, k, x, grad) / scale)
                fd = casimir_gradient_fd(spec, k, x)
                gscale = max(1.0, float(np.max(np.abs(grad))))
                worst_grad = max(worst_grad, float(np.max(np.abs(grad - fd))) / gscale)
                triples += 1
            if len(values) == 3:
                worst_product = max(worst_product, abs(values[1] * values[2] * values[3] - 1.0))
    ok = worst_annih <= 1e-9 and worst_grad <= 1e-6 and worst_product <= 1e-12
    report(
        f"4 {'PASS' if ok else 'FAIL'}: Casimirs over {triples} triples: annihilation "
        f"{worst_annih:.3e} <= 1e-9, gradient vs fd {worst_grad:.3e} <= 1e-6, "
        f"product law {worst_product:.3e} <= 1e-12"
    )
    assert worst_annih <= 1e-9
    assert worst_grad <= 1e-6
    assert worst_product <= 1e-12


def test_criterion_5_darboux_charts():
    systems = (
        ("halphen", halphen_structure()),
        ("circle-maps", circle_maps_structure()),
        ("euler-top", euler_top_structure(EulerTopParams(1.0, 2.0, 3.0))),
    )
    worst_rt = worst_dev = 0.0
    for name, spec in systems:
        chart = build_chart(spec, k=3)
        for x in spec.domain.sample(1000, seed=55):
            y = forward_map(chart, x)
            back = inverse_map(chart, y)
            worst_rt = max(worst_rt, float(np.max(np.abs(back - np.asarray(x, float)))))
            worst_rt = max(worst_rt, float(np.max(np.abs(forward_map(chart, back) - y))))
        rep = canonical_check(chart, 1000, seed=55)
        worst_dev = max(worst_dev, rep.worst)
        assert rep.verdict == "pass", name
    ok = worst_rt <= 1e-10 and worst_dev <= 1e-8
    report(
        f"5 {'PASS' if ok else 'FAIL'}: charts (halphen, circle-maps, euler-top): round-trip "
        f"{worst_rt:.3e} <= 1e-10, canonical deviation {worst_dev:.3e} <= 1e-8 at 1000 points each"
    )
    assert worst_rt <= 1e-10
    assert worst_dev <= 1e-8


def test_criterion_6_reference_point_values():
    wide = halphen_structure(default_halphen_domain(((0.0, 5.0),) * 3))
    c3 = casimir_value(wide, 3, (1.0, 2.0, 4.0))
    chart = build_chart(wide, k=3)
    y = (1.0, 2.0, -2.0)
    factor = reparam_factor(chart, y)
    closed_form = 1.0 / (2.0 * (y[0] - y[1]) ** 2 * y[2] * (1.0 - y[2]))
    params = EulerTopParams(1.0, 2.0, 3.0)
    top = euler_top_structure(params)
    worst = 0.0
    for x in top.domain.sample(1000, seed=66):
        raw = euler_top_raw_matrix(params, x).entries()
        fam = structure_matrix_at(top, x).entries()
        scale = 1.0 + max(abs(v) for v in raw)
        worst = max(worst, max(abs(r - f) for r, f in zip(raw, fam)) / scale)
    ok = c3 == 2.0 and factor == pytest.approx(-1.0 / 12.0, rel=1e-12) and closed_form == pytest.approx(-1.0 / 12.0) and worst <= 1e-12
    report(
        f"6 {'PASS' if ok else 'FAIL'}: worked values: C3(1,2,4) = {c3} (want 2), factor {factor:.15f} "
        f"(want -1/12 = {closed_form:.15f}), top family-vs-raw {worst:.3e} <= 1e-12 at 1000 points"
    )
    assert c3 == 2.0
    assert factor == pytest.approx(-1.0 / 12.0, rel=1e-12)
    assert factor == pytest.approx(closed_form, rel=1e-12)
    assert worst <= 1e-12


BENCH_H = ex.parse("x1 + x2 + x3")
BENCH_X0 = (1.0, 2.0, 4.0)


def bench_spec():
    return halphen_structure(default_halphen_domain(((0.0, 5.0),) * 3))


def test_criterion_7_dynamics_benchmark():
    t0 = time.perf_counter()
    spec = bench_spec()
    traj = integrate(spec, BENCH_H, BENCH_X0, 1.0, 1e-3, "rk4", casimir_k=3)
    drift = invariant_drift(traj)

    chart = build_chart(spec, k=3)
    reduced = integrate_reduced(chart, BENCH_H, forward_map(chart, BENCH_X0), -0.045, 1e-5)
    assert reduced.t.max() >= 0.5
    keep = (reduced.t >= 0.0) & (reduced.t <= 0.5)
    mapped = np.array([inverse_map(chart, yv) for yv in reduced.states[keep]])
    direct = integrate(spec, BENCH_H, BENCH_X0, 0.55, 1e-3, casimir_k=3)
    resampled = hermite_resample(
        direct, reduced.t[keep],
        lambda s: hamiltonian_vector_field(spec, BENCH_H, s),
    )
    pipeline_gap = float(np.max(np.abs(mapped - resampled)))
    elapsed = time.perf_counter() - t0
    ok = drift.max_abs_dH <= 1e-10 and drift.max_abs_dC <= 1e-8 and pipeline_gap <= 1e-6 and elapsed <= 5.0
    report(
        f"7 {'PASS' if ok else 'FAIL'}: benchmark: |dH| {drift.max_abs_dH:.3e} <= 1e-10, "
        f"|dC3| {drift.max_abs_dC:.3e} <= 1e-8, dual-pipeline gap {pipeline_gap:.3e} <= 1e-6 "
        f"over t in [0, 0.5], runtime {elapsed:.2f}s <= 5s"
    )
    assert drift.max_abs_dH <= 1e-10
    assert drift.max_abs_dC <= 1e-8
    assert pipeline_gap <= 1e-6
    assert elapsed <= 5.0


def test_criterion_7b_step_halving_on_stated_benchmark():
    """Literal reading: drift ratio in [8, 32] on the stated benchmark.

    This cannot pass: H and C3 are both linear invariants on this orbit
    (the Casimir level sets of this structure are planes), so the orbit is
    a straight line, the integrator stays on it, and both drifts are
    roundoff noise at any step size.  Kept failing on purpose; see the
    decisions ledger (docs/decisions.md, D1) for the analysis and the
    companion test below for the curved-orbit demonstration of 4th-order
    scaling.
    """
    spec = bench_spec()
    d1 = invariant_drift(integrate(spec, BENCH_H, BENCH_X0, 1.0, 1e-3, casimir_k=3))
    d2 = invariant_drift(integrate(spec, BENCH_H, BENCH_X0, 1.0, 5e-4, casimir_k=3))
    ratio_h = d1.max_abs_dH / d2.max_abs_dH
    ratio_c = d1.max_abs_dC / d2.max_abs_dC
    ok = 8.0 <= ratio_h <= 32.0 and 8.0 <= ratio_c <= 32.0
    report(
        f"7b {'PASS' if ok else 'FAIL'}: literal step-halving on the stated benchmark: "
        f"H ratio {ratio_h:.2f}, C3 ratio {ratio_c:.2f} (need [8, 32]; drifts are roundoff-level "
        f"{d1.max_abs_dH:.1e} -> {d2.max_abs_dH:.1e}; see decisions ledger)"
    )
    assert 8.0 <= ratio_h <= 32.0, (
        "degenerate benchmark: straight-line orbit keeps both invariants at roundoff; "
        "see docs/decisions.md, D1"
    )
    assert 8.0 <= ratio_c <= 32.0


def test_criterion_7_companion_step_halving_curved_orbit():
    # same structure, quadratic Hamiltonian: the orbit curves and the energy
    # drift is truncation-dominated, exposing the integrator's true order
    spec = halphen_structure(default_halphen_domain(((-4.0, 6.0),) * 3))
    H = ex.parse("(x1^2 + x2^2 + x3^2)/2")
    d1 = invariant_drift(integrate(spec, H, BENCH_X0, 4.0, 0.04, casimir_k=3))
    d2 = invariant_drift(integrate(spec, H, BENCH_X0, 4.0, 0.02, casimir_k=3))
    ratio = d1.max_abs_dH / d2.max_abs_dH
    ok = d1.max_abs_dH > 1e-9 and 8.0 <= ratio <= 32.0
    report(
        f"7-companion {'PASS' if ok else 'FAIL'}: step-halving on curved-orbit benchmark: "
        f"H drift {d1.max_abs_dH:.3e} -> {d2.max_abs_dH:.3e}, ratio {ratio:.2f} in [8, 32]"
    )
    assert d1.max_abs_dH > 1e-9
    assert 8.0 <= ratio <= 32.0


def test_criterion_8_expression_layer():
    rng = random.Random(808)
    for _ in range(1000):
        source = gen_expr_source(rng)
        first = ex.parse(source)
        assert ex.parse(ex.to_source(first)) == first

    compared = 0
    worst = 0.0
    rng = random.Random(809)
    while compared < 2000:
        tree = gen_expr(rng, rng.randint(1, 4), variables=("u",), smooth_only=True)
        try:
            dfn = ex.compile_expr(ex.differentiate(tree, "u"), ("u",))
            fn = ex.compile_expr(tree, ("u",))
        except Exception:
            continue
        for _ in range(10):
            x = rng.uniform(-3.0, 3.0)
            fd = fd_derivative_if_trustworthy(fn, x)
            if fd is None:
                continue
            try:
                sym = dfn(x)
            except Exception:
                continue
            worst = max(worst, abs(sym - fd) / max(1.0, abs(sym)))
            compared += 1
    ok = worst <= 1e-6
    report(
        f"8 {'PASS' if ok else 'FAIL'}: expressions: 1000 round-trips exact, derivative vs "
        f"finite differences {worst:.3e} <= 1e-6 over {compared} checked points"
    )
    assert worst <= 1e-6


def test_criterion_9_cli_determinism(tmp_path):
    verify_argv = ["verify", "--system", "halphen", "--samples", "500", "--seed", "42"]
    a = run_cli_subprocess(verify_argv, cwd=tmp_path)
    b = run_cli_subprocess(verify_argv, cwd=tmp_path)
    json_same = a.stdout == b.stdout and a.returncode == b.returncode == 0

    spec_doc = {
        "name": "halphen-wide",
        "eta": "1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))",
        "axes": [{"phi": "1", "psi": "u", "zeta": "u"}] * 3,
        "kappa": [0.0, 0.0],
        "domain": {"box": [[0.0, 5.0]] * 3, "predicate": "(x1 - x2)*(x2 - x3)*(x3 - x1)"},
        "hamiltonian": "x1 + x2 + x3",
    }
    spec_path = tmp_path / "wide.json"
    spec_path.write_text(json.dumps(spec_doc))
    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sim = ["simulate", "--spec", str(spec_path), "--x0", "1,2,4", "--t-end", "1.0",
           "--dt", "0.001", "--k", "3"]
    ra = run_cli_subprocess(sim + ["--out", str(csv_a)], cwd=tmp_path)
    rb = run_cli_subprocess(sim + ["--out", str(csv_b)], cwd=tmp_path)
    csv_same = ra.returncode == rb.returncode == 0 and csv_a.read_bytes() == csv_b.read_bytes()

    ok = json_same and csv_same
    report(f"9 {'PASS' if ok else 'FAIL'}: CLI determinism: verify JSON byte-identical {json_same}, "
           f"simulate CSV byte-identical {csv_same}")
    assert json_same
    assert csv_same
