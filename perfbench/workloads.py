"""Workload definitions: seeded inputs, the command list, and output checks.

Each workload is a fixed list of CLI commands (one "pass").  The benchmark
repeats the pass in a closed loop: the next command starts when the previous
one has returned.  Everything here is a pure function of the benchmark seed:
two runs with the same seed write the same input files and issue the same
commands, apart from the path of the work directory.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import os
import random
import re
from dataclasses import dataclass, replace
from time import perf_counter

WORKLOADS = ("sampled-checks", "long-trajectory", "many-specs")

# sampled-checks: per-command sizes large enough that set-up is a few percent
VERIFY_SAMPLES = 5000
CANONICAL_SAMPLES = 1500

# long-trajectory: the curved orbit of the wide-box Halphen system
WIDE_BOX = ((-4.0, 6.0),) * 3
WIDE_H = "(x1^2 + x2^2 + x3^2)/2"
X0 = (1.0, 2.0, 4.0)
X0_JITTER = 0.02  # larger offsets reach the box edge before t = 20
T_END = 20.0
RK4_DT = 0.01  # 2000 steps
MIDPOINT_DT = 0.005  # 4000 steps
# the reduced run goes backwards in tau: forward from x0 the chart orbit can
# reach the triple point x1 = x2 = x3 (or the box edge, see README.md)
REDUCED_TAU = -0.5
REDUCED_DTAU = 0.0004  # 1250 steps

# many-specs: small sample counts, so per-spec set-up dominates
N_SPECS = 100
SPEC_VERIFY_SAMPLES = 200
SPEC_CANONICAL_SAMPLES = 100

# invariant sanity bounds, met with a wide margin on every seed tried
MAX_DC = 1e-8
MAX_DH = 1e-3

# the chart hypothesis as darboux.build_chart states it: chi_ij is sampled at
# CHART_SAMPLES points and must clear 1e-12 (1 + |psi_i| + |psi_j|) and, on a
# plain box, keep one sign
CHART_SAMPLES = 512
CHI_FLOOR = 1e-12


@dataclass(frozen=True)
class Command:
    label: str  # stable name, used as the reference key
    argv: tuple[str, ...]
    kind: str  # "verify" | "darboux" | "simulate"
    units: int  # points, steps or specs this command contributes
    samples: int | None = None  # sample count the report must state
    out: str | None = None  # CSV path for simulate
    may_reject: bool = False  # chart hypothesis may rightly fail (exit 2)
    must_pass: bool = True  # verdict must be "pass"


def _spec_doc(spec, hamiltonian: str | None = None) -> dict:
    from poisson3d import expr as ex

    def axis(fld):
        doc = {"phi": ex.to_source(fld.phi), "psi": ex.to_source(fld.psi)}
        if fld.zeta is not None:
            doc["zeta"] = ex.to_source(fld.zeta)
        return doc

    domain = {"box": [list(iv) for iv in spec.domain.intervals]}
    if spec.domain.predicate is not None:
        domain["predicate"] = ex.to_source(spec.domain.predicate)
    doc = {
        "name": spec.name,
        "eta": ex.to_source(spec.eta_expr),
        "axes": [axis(f) for f in spec.fields],
        "kappa": [spec.kappa.k12, spec.kappa.k23],
        "domain": domain,
    }
    if hamiltonian is not None:
        doc["hamiltonian"] = hamiltonian
    return doc


def _roundtrip_errors(spec, path: str, seed: int) -> list[str]:
    """The spec file must reload to entries equal to the in-memory spec."""
    from poisson3d.cli import load_spec_file
    from poisson3d.family import structure_matrix_at

    _, loaded, _, _ = load_spec_file(path)
    errors = []
    for x in spec.domain.sample(16, seed):
        want = structure_matrix_at(spec, x).entries()
        got = structure_matrix_at(loaded, x).entries()
        if want != got:
            errors.append(f"{os.path.basename(path)}: entries at {tuple(x)} reload as {got}, not {want}")
            break
    return errors


def generate(workload: str, seed: int, workdir: str) -> list[str]:
    """Write the workload's input files; returns round-trip check errors."""
    os.makedirs(workdir, exist_ok=True)
    specs = []
    if workload == "long-trajectory":
        from poisson3d.builtin_systems import default_halphen_domain, halphen_structure

        spec = halphen_structure(default_halphen_domain(WIDE_BOX))
        specs.append((spec, "halphen-wide.json", WIDE_H))
    elif workload == "many-specs":
        from poisson3d.testing import random_family_spec

        for i in range(N_SPECS):
            specs.append((random_family_spec(i, seed), f"spec{i:02d}.json", None))
    errors = []
    for spec, name, hamiltonian in specs:
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_spec_doc(spec, hamiltonian), fh, indent=1)
        errors += _roundtrip_errors(spec, path, seed)
    return errors


def _x0(seed: int) -> str:
    rng = random.Random(seed)
    return ",".join(repr(v + rng.uniform(-X0_JITTER, X0_JITTER)) for v in X0)


def plan(workload: str, seed: int, workdir: str) -> tuple[Command, list[Command]]:
    """(warm-up command, the commands of one pass)."""
    s = str(seed)
    if workload == "sampled-checks":
        cmds = []
        for system in ("halphen", "euler-top"):
            for scheme in ("analytic", "fd"):
                cmds.append(Command(
                    f"verify {system} {scheme}",
                    ("verify", "--system", system, "--samples", str(VERIFY_SAMPLES),
                     "--scheme", scheme, "--seed", s),
                    "verify", VERIFY_SAMPLES, VERIFY_SAMPLES, must_pass=scheme == "analytic",
                ))
        for system in ("halphen", "euler-top"):
            # near halphen's coincidence planes the canonical deviation can
            # exceed its tolerance on some seeds, like the fd residual
            cmds.append(Command(
                f"darboux {system}",
                ("darboux", "--system", system, "--check-samples", str(CANONICAL_SAMPLES), "--seed", s),
                "darboux", CANONICAL_SAMPLES, CANONICAL_SAMPLES, must_pass=system != "halphen",
            ))
        warm = Command("warm-up", ("verify", "--system", "halphen", "--samples", "200", "--seed", s),
                       "verify", 200, 200)
        return warm, cmds
    if workload == "long-trajectory":
        spec = os.path.join(workdir, "halphen-wide.json")
        x0 = _x0(seed)
        base = ("simulate", "--spec", spec, "--x0", x0, "--k", "3", "--seed", s)

        def sim(label, extra, steps):
            out = os.path.join(workdir, f"{label.replace(' ', '-')}.csv")
            return Command(label, base + extra + ("--out", out), "simulate", steps, out=out)

        cmds = [
            sim("rk4", ("--t-end", repr(T_END), "--dt", repr(RK4_DT)), round(T_END / RK4_DT)),
            sim("midpoint", ("--t-end", repr(T_END), "--dt", repr(MIDPOINT_DT), "--method", "midpoint"),
                round(T_END / MIDPOINT_DT)),
            sim("reduced", ("--t-end", repr(REDUCED_TAU), "--dt", repr(REDUCED_DTAU), "--reduced"),
                round(abs(REDUCED_TAU) / REDUCED_DTAU)),
        ]
        warm = sim("warm-up", ("--t-end", "0.5", "--dt", repr(RK4_DT)), round(0.5 / RK4_DT))
        return warm, cmds
    if workload == "many-specs":
        cmds = []
        for i in range(N_SPECS):
            path = os.path.join(workdir, f"spec{i:02d}.json")
            cmds.append(Command(f"spec{i:02d} verify",
                                ("verify", "--spec", path, "--samples", str(SPEC_VERIFY_SAMPLES), "--seed", s),
                                "verify", 0, SPEC_VERIFY_SAMPLES))
            # one spec is "loaded, verified and charted" once its darboux returns
            cmds.append(Command(f"spec{i:02d} darboux",
                                ("darboux", "--spec", path, "--check-samples", str(SPEC_CANONICAL_SAMPLES),
                                 "--seed", s),
                                "darboux", 1, SPEC_CANONICAL_SAMPLES, may_reject=True))
        return replace(cmds[0], label="warm-up"), cmds
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# Running and checking one command


def run_command(main, cmd: Command):
    """Run main(argv) in-process; returns (seconds, rc, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        rc = main(list(cmd.argv))
        seconds = perf_counter() - t0
    return seconds, rc, out.getvalue(), err.getvalue()


def _last_csv_row(path: str) -> list[float]:
    with open(path, "rb") as fh:
        fh.seek(max(0, os.path.getsize(path) - 4096))
        line = fh.read().decode().rstrip("\n").rsplit("\n", 1)[-1]
    t, _tau, x1, x2, x3, h, _c = line.split(",")
    return [float(v) for v in (t, x1, x2, x3, h)]


_SMALL_CHI = re.compile(r"chi_([123])([123]) = (\S+) at (\([^)]*\)); chart hypothesis fails")
_SIGN_CHANGE = re.compile(r"chi_([123])([123]) changes sign on the box \(seen near (\([^)]*\))\)")


def _rejection_problem(cmd: Command, stderr: str) -> str | None:
    """Why a chart rejection does not hold, or None when it does.

    The claim in the message is checked on the spec file itself, with chi
    computed here from psi and kappa, so a rejection that skips a spec's
    canonical check fails on every seed, not only on the reference seed.
    At a reported point of the domain chi must sit at or below the
    threshold; a reported sign change needs a plain box on which chi takes
    both signs at the reported point and the chart's sample points.
    """
    from poisson3d.cli import load_spec_file

    small, flip = _SMALL_CHI.search(stderr), _SIGN_CHANGE.search(stderr)
    if small is None and flip is None:
        return "exit 2 without a chart-hypothesis rejection"
    match = small or flip
    i, j = int(match.group(1)), int(match.group(2))
    x = ast.literal_eval(match.group(4 if small else 3))
    argv = cmd.argv
    _, spec, _, _ = load_spec_file(argv[argv.index("--spec") + 1])

    def chi(p) -> float:
        return spec.psi(i, float(p[i - 1])) - spec.psi(j, float(p[j - 1])) + spec.kappa.entry(i, j)

    if not spec.domain.contains(x):
        return f"rejection point {x} is outside the domain"
    if small:
        value = chi(x)
        threshold = CHI_FLOOR * (1.0 + abs(spec.psi(i, x[i - 1])) + abs(spec.psi(j, x[j - 1])))
        if abs(value) > threshold:
            return f"rejection claims chi_{i}{j} = {match.group(3)} at {x}; it is {value!r}, threshold {threshold!r}"
        return None
    if spec.domain.predicate is not None:
        return "sign-change rejection on a domain with a predicate"
    seed = int(argv[argv.index("--seed") + 1])
    sign = math.copysign(1.0, chi(x))
    if all(math.copysign(1.0, chi(p)) == sign for p in spec.domain.sample(CHART_SAMPLES, seed)):
        return f"rejection claims chi_{i}{j} changes sign near {x}; it has one sign on the chart samples"
    return None


def summarize(cmd: Command, rc: int, stdout: str, stderr: str) -> dict:
    """The comparable facts of one command's outcome (see ROUNDOFF_KEYS)."""
    rec = {"rc": rc}
    if rc == 2:
        problem = _rejection_problem(cmd, stderr) if cmd.may_reject else "exit 2 (bad input)"
        rec["rejected"] = problem is None
        if problem is not None:
            rec["rejection_problem"] = problem
        return rec
    doc = json.loads(stdout)
    if cmd.kind == "verify":
        for key in ("samples", "verdict", "worst_point", "derivative_scheme", "max_abs_residual"):
            rec[key] = doc[key]
    elif cmd.kind == "darboux":
        check = doc["canonical_check"]
        rec.update(k=doc["k"], sign_branch=doc["sign_branch"], image_box=doc["image_box"],
                   samples=check["samples"], verdict=check["verdict"],
                   worst_point=check["worst_point"], max_deviation=check["max_deviation"])
    else:
        for key in ("rows", "method", "reduced", "casimir_k", "max_abs_dH", "max_abs_dC"):
            rec[key] = doc[key]
        rec["last_row"] = _last_csv_row(cmd.out)
    return rec


# floating-point results that a change of evaluation order may move by
# roundoff; every other key must match the reference exactly
ROUNDOFF_KEYS = ("max_abs_residual", "max_deviation", "image_box", "max_abs_dH", "max_abs_dC", "last_row")
ABS_TOL = 1e-11
REL_TOL = 1e-6


def _close(got, want) -> bool:
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    return abs(got - want) <= ABS_TOL + REL_TOL * abs(want)


def check(cmd: Command, rec: dict, reference: dict | None) -> list[str]:
    """Problems with one outcome: seed-independent rules, then the reference."""
    problems = []
    rc = rec["rc"]
    if rc == 2:
        if not rec["rejected"]:
            problems.append(rec["rejection_problem"])
    elif cmd.kind == "simulate":
        if rc != 0:
            problems.append(f"exit {rc}")
        if rec["rows"] != cmd.units + 1:
            problems.append(f"{rec['rows']} rows, expected {cmd.units + 1}")
        if not (rec["max_abs_dC"] <= MAX_DC and rec["max_abs_dH"] <= MAX_DH):
            problems.append(f"invariant drift dH={rec['max_abs_dH']} dC={rec['max_abs_dC']}")
        if not all(math.isfinite(v) for v in rec["last_row"]):
            problems.append("non-finite final state")
    else:
        if rc != (0 if rec["verdict"] == "pass" else 1):
            problems.append(f"exit {rc} with verdict {rec['verdict']}")
        if cmd.must_pass and rec["verdict"] != "pass":
            problems.append(f"verdict {rec['verdict']}")
        if rec["samples"] != cmd.samples:
            problems.append(f"{rec['samples']} samples, expected {cmd.samples}")
    if reference is not None:
        want = reference.get(cmd.label)
        if want is None:
            problems.append("no reference outcome")
        else:
            for key in sorted(set(want) | set(rec)):
                if key not in want or key not in rec:
                    problems.append(f"{key}: present in only one of outcome and reference")
                elif key in ROUNDOFF_KEYS:
                    if not _close(rec[key], want[key]):
                        problems.append(f"{key} = {rec[key]!r}, reference {want[key]!r}")
                elif rec[key] != want[key]:
                    problems.append(f"{key} = {rec[key]!r}, reference {want[key]!r}")
    return problems


def load_reference(seed: int, workload: str) -> dict | None:
    """Expected outcome per command label, when the seed is the recorded one."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["workloads"][workload] if doc["seed"] == seed else None
