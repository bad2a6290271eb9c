"""Command-line front end: verify, casimir, darboux, simulate, list.

Systems come from the built-in catalog (--system) or a JSON file (--spec).
The file format mirrors the family data: eta and per-axis {phi, psi,
zeta?} expressions, the two free kappa constants, and a box domain with
an optional predicate; kappa_31 never appears because it is derived.  A
raw variant carrying a "matrix" object with j12/j23/j31 expressions is
accepted by verify only, for checking fields outside the family.

Exit codes: 0 success or pass, 1 a verification/check failure, 2 bad
input (parse errors, domain violations, precondition failures).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import expr as ex
from .builtin_systems import BUILTIN_NAMES, build_system
from .casimir import annihilation_residual, casimir_gradient, casimir_value
from .darboux import build_chart, canonical_check, forward_map, inverse_map, reparam_factor
from .dynamics import integrate, integrate_reduced, invariant_drift
from .errors import PoissonError
from .family import make_family_spec, make_kappa
from .scalar_fields import DomainBox, build_scalar_field
from .verification import MatrixField3, matrix_field_from_spec, verify_structure

DEFAULT_SEED = 42


def _seed_default() -> int:
    raw = os.environ.get("POISSON3D_SEED", str(DEFAULT_SEED))
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"POISSON3D_SEED must be an integer, got {raw!r}") from None


def _parse_point(text: str) -> tuple[float, float, float]:
    parts = text.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(float(p) for p in parts)


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _pair(value, what: str) -> tuple[float, float]:
    try:
        if isinstance(value, list) and len(value) == 2:
            return float(value[0]), float(value[1])
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{what} must be a pair of numbers, got {value!r}")


def _expr(doc: dict, key: str, required: bool = True):
    """The expression under key; None when an optional key is absent or empty."""
    text = doc[key] if required else doc.get(key)
    if not (required or text):
        return None
    if not isinstance(text, str):
        raise ValueError(f"{key!r} must be an expression string, got {text!r}")
    return ex.parse(text)


def _load_domain(doc) -> DomainBox:
    box = _object(doc, "domain").get("box")
    if not (isinstance(box, list) and len(box) == 3):
        raise ValueError("domain.box must be three [lo, hi] pairs")
    return DomainBox(tuple(_pair(iv, "domain.box entry") for iv in box), _expr(doc, "predicate", required=False))


def load_spec_file(path: str):
    """Returns (kind, payload, hamiltonian_expr, name).

    kind "family": payload is a PoissonFamilySpec.
    kind "raw": payload is (MatrixField3, DomainBox).
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = _object(json.load(fh), "the spec file")
    name = doc.get("name", os.path.basename(path))
    hamiltonian = _expr(doc, "hamiltonian", required=False)
    domain = _load_domain(doc.get("domain", {}))
    if "matrix" in doc:
        entries = _object(doc["matrix"], "matrix")
        field = MatrixField3(*(_expr(entries, key) for key in ("j12", "j23", "j31")))
        return "raw", (field, domain), hamiltonian, name
    axes = doc.get("axes")
    if not (isinstance(axes, list) and len(axes) == 3):
        raise ValueError("spec file needs either a 'matrix' object or three 'axes'")
    fields = tuple(
        build_scalar_field(
            _expr(_object(axis, f"axes[{n}]"), "phi"),
            _expr(axis, "psi"),
            _expr(axis, "zeta", required=False),
            domain.intervals[n],
        )
        for n, axis in enumerate(axes)
    )
    spec = make_family_spec(
        _expr(doc, "eta"),
        fields,
        make_kappa(*_pair(doc.get("kappa", [0.0, 0.0]), "kappa")),
        domain,
        name,
    )
    return "family", spec, hamiltonian, name


def _resolve_system(args, allow_raw: bool = False):
    if args.I is not None and args.system != "euler-top":
        raise ValueError("--I applies to --system euler-top only")
    if args.system:
        inertia = _parse_point(args.I) if args.I else None
        spec, default_h = build_system(args.system, inertia)
        return "family", spec, default_h, args.system
    kind, payload, hamiltonian, name = load_spec_file(args.spec)
    if kind == "raw" and not allow_raw:
        raise ValueError("this command needs a family spec; raw matrix files work with 'verify' only")
    return kind, payload, hamiltonian, name


def _emit(doc: dict) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _write_trajectory_csv(path: str, traj, states_x: np.ndarray) -> None:
    """CSV with header t,tau,x1,x2,x3,H,C; rows ordered by the t column."""
    tau = traj.tau if traj.tau is not None else [""] * len(traj)
    rows = []
    for m in range(len(traj)):
        rows.append(
            (
                float(traj.t[m]),
                _fmt(tau[m]) if traj.tau is not None else "",
                states_x[m],
                float(traj.H[m]),
                _fmt(traj.C[m]) if traj.C is not None else "",
            )
        )
    rows.sort(key=lambda r: r[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,tau,x1,x2,x3,H,C\n")
        for t, tau_s, xs, h, c_s in rows:
            fh.write(
                ",".join(
                    [_fmt(t), tau_s, _fmt(xs[0]), _fmt(xs[1]), _fmt(xs[2]), _fmt(h), c_s]
                )
                + "\n"
            )


def _cmd_list(_args) -> int:
    for name in BUILTIN_NAMES:
        sys.stdout.write(name + "\n")
    return 0


MAX_SAMPLES = 10**6  # every sample point, and several arrays over them, are kept in memory


def _check_sample_count(flag: str, n: int) -> None:
    if n < 1:
        raise ValueError(f"{flag} must be >= 1, got {n}")
    if n > MAX_SAMPLES:
        raise ValueError(f"{flag} must be <= {MAX_SAMPLES}, got {n}")


def _cmd_verify(args) -> int:
    if not (math.isfinite(args.tol) and args.tol >= 0.0):
        raise ValueError(f"--tol must be a finite number >= 0, got {args.tol!r}")
    _check_sample_count("--samples", args.samples)
    kind, payload, _, name = _resolve_system(args, allow_raw=True)
    if kind == "raw":
        field, domain = payload
    else:
        field, domain = matrix_field_from_spec(payload), payload.domain
    report = verify_structure(
        field, domain, n_samples=args.samples, tol=args.tol, seed=args.seed, scheme=args.scheme
    )
    doc = {"system": name}
    doc.update(report.to_dict())
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_casimir(args) -> int:
    _, spec, _, name = _resolve_system(args)
    point = _parse_point(args.point)
    value = casimir_value(spec, args.k, point)
    gradient = casimir_gradient(spec, args.k, point)
    _emit(
        {
            "system": name,
            "k": args.k,
            "point": list(point),
            "value": value,
            "gradient": [float(g) for g in gradient],
            "annihilation_residual": annihilation_residual(spec, args.k, point, gradient),
        }
    )
    return 0


def _cmd_darboux(args) -> int:
    _check_sample_count("--check-samples", args.check_samples)
    _, spec, _, name = _resolve_system(args)
    chart = build_chart(spec, args.k, seed=args.seed)
    report = canonical_check(chart, n_samples=args.check_samples, seed=args.seed)
    doc = {
        "system": name,
        "k": chart.k,
        "sign_branch": list(chart.sign_branch),
        "image_box": [list(iv) for iv in chart.image_box],
        "canonical_check": report.to_dict(),
    }
    if args.point:
        x = _parse_point(args.point)
        y = forward_map(chart, x)
        doc["point"] = {
            "x": list(x),
            "y": [float(v) for v in y],
            "x_of_y": [float(v) for v in inverse_map(chart, y)],
            "factor": reparam_factor(chart, y),
        }
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_simulate(args) -> int:
    for flag, value in (("--t-end", args.t_end), ("--dt", args.dt)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value!r}")
    _, spec, default_h, name = _resolve_system(args)
    if args.hamiltonian:
        h_expr = ex.parse(args.hamiltonian)
    elif default_h is not None:
        h_expr = default_h
    else:
        raise ValueError("no Hamiltonian: pass --hamiltonian or put one in the spec file")
    x0 = _parse_point(args.x0)
    if args.reduced:
        chart = build_chart(spec, args.k, seed=args.seed)
        y0 = forward_map(chart, x0)
        traj = integrate_reduced(chart, h_expr, y0, args.t_end, args.dt, args.method)
        try:  # one array call, equal row for row to the per-row maps
            with ex.batch_arithmetic():
                states_x = inverse_map(chart, np.ascontiguousarray(traj.states.T)).T
        except Exception:  # a fault or an error anywhere: the per-row maps raise it as before
            states_x = np.array([inverse_map(chart, y) for y in traj.states])
    else:
        traj = integrate(
            spec, h_expr, x0, args.t_end, args.dt, args.method,
            casimir_k=args.k if args.k else "auto",
        )
        states_x = traj.states
    _write_trajectory_csv(args.out, traj, states_x)
    drift = invariant_drift(traj)
    _emit(
        {
            "system": name,
            "out": args.out,
            "rows": len(traj),
            "method": traj.method,
            "reduced": bool(args.reduced),
            "casimir_k": traj.casimir_k,
            "max_abs_dH": drift.max_abs_dH,
            "max_abs_dC": drift.max_abs_dC,
        }
    )
    return 0


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--system", choices=BUILTIN_NAMES, help="built-in system name")
    group.add_argument("--spec", help="path to a JSON system-spec file")
    parser.add_argument("--I", help="moments of inertia i1,i2,i3 (euler-top only)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poisson3d",
        description="Construct, verify and globally reduce a family of 3-D Poisson structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="sampled Jacobi-identity verification")
    _add_system_args(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scheme", choices=("analytic", "fd", "auto"), default="auto")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("casimir", help="Casimir value, gradient and annihilation residual")
    _add_system_args(p)
    p.add_argument("--k", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--point", required=True, help="x1,x2,x3")
    p.set_defaults(fn=_cmd_casimir)

    p = sub.add_parser("darboux", help="build the global chart and check the canonical form")
    _add_system_args(p)
    p.add_argument("--k", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--check-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point", default=None, help="report y(x), x(y) and the factor at x1,x2,x3")
    p.set_defaults(fn=_cmd_darboux)

    p = sub.add_parser("simulate", help="integrate the dynamics and write a CSV trajectory")
    _add_system_args(p)
    p.add_argument("--x0", required=True, help="initial state x1,x2,x3")
    p.add_argument("--t-end", type=float, required=True, dest="t_end",
                   help="final time (final tau with --reduced; may be negative there)")
    p.add_argument("--dt", type=float, required=True, help="step size (dtau with --reduced)")
    p.add_argument("--method", choices=("rk4", "midpoint"), default="rk4")
    p.add_argument("--hamiltonian", default=None, help="expression in x1,x2,x3")
    p.add_argument("--reduced", action="store_true", help="integrate in Darboux coordinates")
    p.add_argument("--k", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("list", help="print built-in system names")
    p.set_defaults(fn=_cmd_list)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _seed_default()
        return args.fn(args)
    except (PoissonError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
