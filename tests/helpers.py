"""Shared generators, finite-difference oracles and child-process runners for the test suite."""

from __future__ import annotations

import ast
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

from poisson3d import expr as ex

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

EPS3 = float.fromhex("0x1.0p-52") ** (1 / 3)  # cbrt machine epsilon


def central_diff(f, x: float, h: float) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


_SMALL_CHI = re.compile(r"^chi_([123])([123]) = (\S+) at (\([^)]*\)); chart hypothesis fails$")


def small_chi_claim_problem(spec, message: str):
    """Why a chart rejection naming a small chi_ij does not hold, or None when it does.

    The named point must lie in the domain, and chi_ij there, computed
    point by point from psi and kappa, must be the named value and sit at
    or below the denominator threshold 1e-12 (1 + |psi_i| + |psi_j|).
    """
    match = _SMALL_CHI.match(message)
    if match is None:
        return f"not a small-chi rejection: {message!r}"
    i, j, x = int(match.group(1)), int(match.group(2)), ast.literal_eval(match.group(4))
    if not spec.domain.contains(x):
        return f"{x} is outside the domain"
    psi_i, psi_j = spec.psi(i, x[i - 1]), spec.psi(j, x[j - 1])
    value = psi_i - psi_j + spec.kappa.entry(i, j)
    if repr(value) != match.group(3) or abs(value) > 1e-12 * (1.0 + abs(psi_i) + abs(psi_j)):
        return f"chi_{i}{j} at {x} is {value!r}, named {match.group(3)}"
    return None


# ---------------------------------------------------------------------------
# Grammar-driven expression fuzzing (deterministic via random.Random)

_SMOOTH_FNS = ("exp", "ln", "sin", "cos", "sqrt")
_ALL_FNS = _SMOOTH_FNS + ("abs", "sign")


def gen_expr(rng: random.Random, depth: int, variables=("x1", "x2", "x3"), smooth_only=False):
    """Random expression tree of bounded depth over the given variables."""
    if depth <= 0 or rng.random() < 0.25:
        if rng.random() < 0.5:
            return ex.Var(rng.choice(variables))
        if rng.random() < 0.3:
            return ex.Lit(float(rng.randint(0, 9)))
        return ex.Lit(round(rng.uniform(0.0, 8.0), 3))
    r = rng.random()
    if r < 0.55:
        op = rng.choice("+-*/")
        return ex.Bin(op, gen_expr(rng, depth - 1, variables, smooth_only),
                      gen_expr(rng, depth - 1, variables, smooth_only))
    if r < 0.70:
        # keep exponents small literals so values stay representable
        exponent = ex.Lit(float(rng.choice([2, 3, 2, 2, -1, -2, 0.5] if not smooth_only else [2, 3, 2, -1, -2])))
        return ex.Bin("^", gen_expr(rng, depth - 1, variables, smooth_only), exponent)
    if r < 0.80:
        return ex.Neg(gen_expr(rng, depth - 1, variables, smooth_only))
    fn = rng.choice(_SMOOTH_FNS if smooth_only else _ALL_FNS)
    return ex.Call(fn, gen_expr(rng, depth - 1, variables, smooth_only))


def gen_expr_source(rng: random.Random, depth: int = 6, variables=("x1", "x2", "x3")) -> str:
    return ex.to_source(gen_expr(rng, rng.randint(1, depth), variables))


# ---------------------------------------------------------------------------
# Derivative spot-check with an FD oracle that certifies its own validity.


def fd_derivative_if_trustworthy(f, x: float):
    """Central difference at x, or None where the stencil is unreliable.

    Two step sizes must agree closely; that rejects points near kinks,
    domain edges, or very high curvature without consulting the symbolic
    derivative under test.
    """
    h = EPS3 * max(1.0, abs(x)) * 8.0
    try:
        d1 = central_diff(f, x, h)
        d2 = central_diff(f, x, h / 2.0)
    except Exception:
        return None
    if not (math.isfinite(d1) and math.isfinite(d2)):
        return None
    if abs(d1 - d2) > 1e-7 * max(1.0, abs(d1)):
        return None
    if abs(d2) > 1e8:
        return None
    return d2


# ---------------------------------------------------------------------------
# Python (the CLI or a script) in a child process, independent of the
# caller's working directory.


def run_python_subprocess(args, env_extra=None, cwd=None):
    """Run `python *args` in a fresh interpreter.

    The child gets the absolute `src` directory first on PYTHONPATH (a
    relative entry inherited from the caller would not resolve from the
    child's working directory) and no POISSON3D_SEED unless `env_extra`
    sets one.  It starts in `cwd`, or the repository root by default.
    A nonzero exit fails the calling test with the child's stderr in the
    message, so a broken child environment reads as such.
    """
    env = dict(os.environ)
    env.pop("POISSON3D_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC_DIR), env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True, cwd=str(cwd or REPO_ROOT), env=env,
    )
    assert proc.returncode == 0, (
        f"python {' '.join(args)} exited {proc.returncode}; "
        f"stderr:\n{proc.stderr.decode(errors='replace')}"
    )
    return proc


def run_cli_subprocess(argv, env_extra=None, cwd=None):
    """Run `python -m poisson3d *argv` in a fresh interpreter (see run_python_subprocess)."""
    return run_python_subprocess(["-m", "poisson3d", *argv], env_extra, cwd)
