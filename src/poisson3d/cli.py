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
from operator import itemgetter

import numpy as np

from . import expr as ex
from .builtin_systems import BUILTIN_NAMES, build_system
from .errors import PoissonError
from .family import make_family_spec, make_kappa
from .scalar_fields import DomainBox, build_scalar_fields

# A module that only some commands run is imported by the handler or branch that runs it (D21).

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
    point = tuple(float(p) for p in parts)
    if not all(math.isfinite(v) for v in point):
        raise ValueError(f"expected three finite numbers, got {text!r}")
    return point


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def _pair(value, what: str) -> tuple[float, float]:
    # JSON numbers only: a bool, a numeric string or an integer too large for a float is not one
    try:
        if isinstance(value, list) and len(value) == 2 and {type(v) for v in value} <= {int, float}:
            return float(value[0]), float(value[1])
    except OverflowError:
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
        try:
            doc = _object(json.load(fh), "the spec file")
        except RecursionError:  # json's decoder recurses once per level of nesting
            raise ValueError("the spec file is nested too deeply to parse") from None
    name = doc.get("name", os.path.basename(path))
    if not isinstance(name, str):
        raise ValueError(f"'name' must be a string, got {name!r}")
    hamiltonian = _expr(doc, "hamiltonian", required=False)
    domain = _load_domain(doc.get("domain", {}))
    if "matrix" in doc:
        from .verification import MatrixField3

        entries = _object(doc["matrix"], "matrix")
        field = MatrixField3(*(_expr(entries, key) for key in ("j12", "j23", "j31")))
        return "raw", (field, domain), hamiltonian, name
    axes = doc.get("axes")
    if not (isinstance(axes, list) and len(axes) == 3):
        raise ValueError("spec file needs either a 'matrix' object or three 'axes'")
    triples = []
    for n, axis in enumerate(axes):
        try:
            axis = _object(axis, f"axes[{n}]")
            triples.append((_expr(axis, "phi"), _expr(axis, "psi"), _expr(axis, "zeta", required=False)))
        except (ValueError, KeyError, PoissonError):
            build_scalar_fields(triples, domain.intervals[:n])  # a failing axis before this one raises first
            raise
    fields = build_scalar_fields(triples, domain.intervals)
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


_CSV_ROW = "%.17g,%s,%.17g,%.17g,%.17g,%s,%s\n"  # t,tau,x1,x2,x3,H,C


def _formatted(col) -> list[str]:
    """'%.17g' % v for each v of a float64 column, each distinct bit pattern formatted once.

    Bit patterns, not float equality, so -0.0 and 0.0 keep their own text.
    """
    bits, where = np.unique(col.view(np.uint64), return_inverse=True)
    return np.array(["%.17g" % v for v in bits.view(np.float64).tolist()], dtype=object)[where].tolist()


def _write_trajectory_csv(path: str, traj) -> None:
    """CSV with header t,tau,x1,x2,x3,H,C; rows stably sorted by the t column, x mapped back for reduced runs.

    Every number is written as %.17g, which CPython formats as format(v, ".17g") does.  The
    invariants H and C repeat along a run, so these columns and tau format each distinct value once.
    """
    xs = traj.states if traj.states_x is None else traj.states_x
    tau, h, c = (_formatted(col) if col is not None else [""] * len(traj) for col in (traj.tau, traj.H, traj.C))
    rows = list(zip(traj.t.tolist(), tau, *xs.T.tolist(), h, c))
    rows.sort(key=itemgetter(0))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t,tau,x1,x2,x3,H,C\n")
        fh.writelines(_CSV_ROW % row for row in rows)


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
    from .verification import matrix_field_from_spec, verify_structure

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
    from .casimir import annihilation_residual, casimir_gradient, casimir_value

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
    from .darboux import build_chart, canonical_check, forward_map, inverse_map, reparam_factor

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
    from .dynamics import integrate, integrate_reduced, invariant_drift

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
        from .darboux import build_chart, forward_map

        chart = build_chart(spec, args.k, seed=args.seed)
        y0 = forward_map(chart, x0)
        traj = integrate_reduced(chart, h_expr, y0, args.t_end, args.dt, args.method)
    else:
        traj = integrate(
            spec, h_expr, x0, args.t_end, args.dt, args.method,
            casimir_k=args.k if args.k else "auto",
        )
    _write_trajectory_csv(args.out, traj)
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


def _verify_options(p: argparse.ArgumentParser) -> None:
    _add_system_args(p)
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--scheme", choices=("analytic", "fd", "auto"), default="auto")


def _casimir_options(p: argparse.ArgumentParser) -> None:
    _add_system_args(p)
    p.add_argument("--k", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--point", required=True, help="x1,x2,x3")


def _darboux_options(p: argparse.ArgumentParser) -> None:
    _add_system_args(p)
    p.add_argument("--k", type=int, choices=(1, 2, 3), default=None)
    p.add_argument("--check-samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--point", default=None, help="report y(x), x(y) and the factor at x1,x2,x3")


def _simulate_options(p: argparse.ArgumentParser) -> None:
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


COMMANDS = {  # name: (help, handler, add_options), in the order the usage lists them
    "verify": ("sampled Jacobi-identity verification", _cmd_verify, _verify_options),
    "casimir": ("Casimir value, gradient and annihilation residual", _cmd_casimir, _casimir_options),
    "darboux": ("build the global chart and check the canonical form", _cmd_darboux, _darboux_options),
    "simulate": ("integrate the dynamics and write a CSV trajectory", _cmd_simulate, _simulate_options),
    "list": ("print built-in system names", _cmd_list, lambda p: None),
}


def _command_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """parser with the options and the handler of the named command."""
    _, handler, add_options = COMMANDS[name]
    add_options(parser)
    parser.set_defaults(fn=handler)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI's parser with every subcommand, or with the named one alone (docs/decisions.md, D17).

    A parser with one subcommand still lists all five in its usage, so its
    texts are the full parser's for any argv that starts with that name.
    """
    parser = argparse.ArgumentParser(
        prog="poisson3d",
        description="Construct, verify and globally reduce a family of 3-D Poisson structures.",
    )
    # no metavar on the full parser: its errors name the argument "command", as argparse does
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (text, _, _) in COMMANDS.items():
        if command in (None, name):
            _command_options(sub.add_parser(name, help=text), name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in COMMANDS:
        # the named command's parser alone, the subparser the full parser would hand argv[1:] to;
        # leftover words get build_parser(name), whose parse_args raises the full parser's error
        parser = _command_options(argparse.ArgumentParser(prog=f"poisson3d {argv[0]}"), argv[0])
        args, leftover = parser.parse_known_args(argv[1:])
        if leftover:
            args = build_parser(argv[0]).parse_args(argv)
    else:
        args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed") and args.seed is None:
            args.seed = _seed_default()
        return args.fn(args)
    except (PoissonError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
