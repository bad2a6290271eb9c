#!/usr/bin/env python3
"""Step-size sweeps of the fixed-step integrators.

Three sections on the product-form structure from x0 = (1, 2, 4):

  linear  H = x1 + x2 + x3      the orbit is a straight line (Casimir level
                                sets are planes), so both invariants stay at
                                roundoff for every dt; no order is visible.
  quadratic H = |x|^2 / 2       a curved orbit; the energy drift scales like
                                dt^4 for rk4 and dt^2 for midpoint.
  reduced                       the quadratic H in the chart k = 3 from
                                y0 = y(x0), tau from 0 to -0.3; the final t
                                and y1 under step halving, with the ratios of
                                successive differences (16 for 4th order, 4
                                for 2nd).  The recovered t is 4th order: a
                                4-point Adams-Moulton sum on dt/dtau =
                                1/factor.

Usage: python3 scripts/drift_study.py [--t-end T] [--method rk4|midpoint]
"""

import argparse

import poisson3d.expr as ex
from poisson3d.builtin_systems import default_halphen_domain, halphen_structure
from poisson3d.darboux import build_chart, forward_map
from poisson3d.dynamics import integrate, integrate_reduced, invariant_drift

X0 = (1.0, 2.0, 4.0)
STEPS = (0.08, 0.04, 0.02, 0.01)
TAU_END = -0.3
TAU_STEPS = (0.004, 0.002, 0.001, 0.0005, 0.00025)


def sweep(spec, hamiltonian, t_end: float, method: str) -> None:
    previous = None
    for dt in STEPS:
        drift = invariant_drift(integrate(spec, hamiltonian, X0, t_end, dt, method, casimir_k=3))
        ratio = "" if previous is None else f"  ratio {previous / drift.max_abs_dH:6.2f}"
        print(f"  dt = {dt:<6g} |dH| = {drift.max_abs_dH:.3e}  |dC3| = {drift.max_abs_dC:.3e}{ratio}")
        previous = drift.max_abs_dH


def reduced_sweep(spec, hamiltonian, method: str) -> None:
    chart = build_chart(spec, k=3)
    y0 = forward_map(chart, X0)
    finals = []
    for dtau in TAU_STEPS:
        traj = integrate_reduced(chart, hamiltonian, y0, TAU_END, dtau, method)
        finals.append((float(traj.t[-1]), float(traj.states[-1, 0])))
        line = f"  dtau = {dtau:<8g} t = {finals[-1][0]:.15f}  y1 = {finals[-1][1]:.15f}"
        if len(finals) >= 3:
            (t0, a0), (t1, a1), (t2, a2) = finals[-3:]
            line += f"  ratios t {(t0 - t1) / (t1 - t2):6.2f}  y1 {(a0 - a1) / (a1 - a2):6.2f}"
        print(line)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-end", type=float, default=4.0, dest="t_end")
    parser.add_argument("--method", choices=("rk4", "midpoint"), default="rk4")
    args = parser.parse_args()

    spec = halphen_structure(default_halphen_domain(((-4.0, 6.0),) * 3))
    print(f"method = {args.method}, t_end = {args.t_end}, x0 = {X0}")
    print("linear Hamiltonian x1 + x2 + x3 (straight-line orbit):")
    sweep(spec, ex.parse("x1 + x2 + x3"), args.t_end, args.method)
    print("quadratic Hamiltonian (x1^2 + x2^2 + x3^2)/2 (curved orbit):")
    sweep(spec, ex.parse("(x1^2 + x2^2 + x3^2)/2"), args.t_end, args.method)
    print(f"reduced, chart k = 3, quadratic Hamiltonian, tau 0 -> {TAU_END} (final t and y1):")
    reduced_sweep(spec, ex.parse("(x1^2 + x2^2 + x3^2)/2"), args.method)


if __name__ == "__main__":
    main()
