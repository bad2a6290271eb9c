import importlib.util
import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from poisson3d.cli import main
from poisson3d.testing import random_family_spec
from helpers import run_cli_subprocess

HALPHEN_WIDE_SPEC = {
    "name": "halphen-wide",
    "eta": "1 / (2*(x1 - x2)*(x2 - x3)*(x3 - x1))",
    "axes": [
        {"phi": "1", "psi": "u", "zeta": "u"},
        {"phi": "1", "psi": "u", "zeta": "u"},
        {"phi": "1", "psi": "u", "zeta": "u"},
    ],
    "kappa": [0.0, 0.0],
    "domain": {
        "box": [[0.0, 5.0], [0.0, 5.0], [0.0, 5.0]],
        "predicate": "(x1 - x2)*(x2 - x3)*(x3 - x1)",
    },
    "hamiltonian": "x1 + x2 + x3",
}

BROKEN_SPEC = {
    "name": "broken",
    "matrix": {"j12": "x1", "j23": "x2", "j31": "x3"},
    "domain": {"box": [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]},
}


@pytest.fixture()
def wide_spec_file(tmp_path):
    path = tmp_path / "halphen_wide.json"
    path.write_text(json.dumps(HALPHEN_WIDE_SPEC))
    return str(path)


@pytest.fixture()
def broken_spec_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN_SPEC))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _ = run_cli(capsys, "list")
    assert code == 0
    assert out.splitlines() == ["halphen", "circle-maps", "euler-top"]


def test_verify_halphen_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--system", "halphen", "--samples", "1000", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "pass"
    assert doc["max_abs_residual"] <= 1e-6
    assert doc["samples"] == 1000
    assert doc["seed"] == 42


def test_verify_broken_raw_field_fails(capsys, broken_spec_file):
    code, out, _ = run_cli(capsys, "verify", "--spec", broken_spec_file)
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "fail"
    assert doc["max_abs_residual"] >= 1.0


def test_verify_rejects_bad_scheme_request(capsys, broken_spec_file):
    # raw expression entries do allow analytic; force fd and then ask a
    # family command for the raw file to hit the error path
    code, _, err = run_cli(capsys, "casimir", "--spec", broken_spec_file, "--k", "3", "--point", "1,1,1")
    assert code == 2
    assert "family spec" in err


def test_casimir_halphen_point(capsys):
    code, out, _ = run_cli(capsys, "casimir", "--system", "halphen", "--k", "3", "--point", "1,2,4")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 2.0
    np.testing.assert_allclose(doc["gradient"], [2.0, -3.0, 1.0], rtol=1e-12)
    assert abs(doc["annihilation_residual"]) <= 1e-12


def test_casimir_undefined_point_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "casimir", "--system", "halphen", "--k", "3", "--point", "0.5,0.5,0.9")
    assert code == 2
    assert "undefined" in err


def test_darboux_report_with_point(capsys):
    code, out, _ = run_cli(
        capsys, "darboux", "--system", "halphen", "--k", "3",
        "--check-samples", "500", "--point", "0.1,0.5,0.9", "--seed", "42",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] == 3
    assert doc["canonical_check"]["verdict"] == "pass"
    point = doc["point"]
    np.testing.assert_allclose(point["x_of_y"], point["x"], atol=1e-12)
    y1, y2, y3 = point["y"]
    assert point["factor"] == pytest.approx(1.0 / (2.0 * (y1 - y2) ** 2 * y3 * (1.0 - y3)), rel=1e-10)


def test_darboux_hypothesis_violation_is_exit_2(capsys, tmp_path):
    doc = dict(HALPHEN_WIDE_SPEC)
    doc = json.loads(json.dumps(HALPHEN_WIDE_SPEC))
    del doc["domain"]["predicate"]
    doc["eta"] = "1"
    path = tmp_path / "no_predicate.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "darboux", "--spec", str(path), "--k", "3")
    assert code == 2
    assert "hypothesis" in err or "sign" in err


def test_simulate_writes_csv(capsys, tmp_path, wide_spec_file):
    out_csv = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--spec", wide_spec_file, "--x0", "1,2,4",
        "--t-end", "1.0", "--dt", "0.001", "--k", "3", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["rows"] == 1001
    assert summary["max_abs_dH"] <= 1e-10
    assert summary["max_abs_dC"] <= 1e-8
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,tau,x1,x2,x3,H,C"
    assert len(lines) == 1002
    first = lines[1].split(",")
    assert first[1] == ""  # no tau column values for a direct run
    assert float(first[2]) == 1.0 and float(first[6]) == 2.0
    ts = [float(line.split(",")[0]) for line in lines[1:]]
    assert ts == sorted(ts)


def test_simulate_reduced_csv(capsys, tmp_path, wide_spec_file):
    out_csv = tmp_path / "reduced.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--spec", wide_spec_file, "--x0", "1,2,4",
        "--t-end=-0.04", "--dt", "0.0001", "--reduced", "--k", "3", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["reduced"] is True
    lines = out_csv.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    ts = [float(r[0]) for r in rows]
    assert ts == sorted(ts)  # rows are in time order even though tau ran negative
    assert all(r[1] != "" for r in rows)
    cs = {r[6] for r in rows}
    assert len(cs) == 1  # the Casimir column is exactly constant


def test_simulate_domain_exit_is_exit_2(capsys, tmp_path):
    out_csv = tmp_path / "exit.csv"
    code, _, err = run_cli(
        capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9",
        "--t-end", "1.0", "--dt", "0.001", "--out", str(out_csv),
    )
    assert code == 2
    assert "left the domain" in err


def test_simulate_short_run_on_builtin(capsys, tmp_path):
    out_csv = tmp_path / "short.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9",
        "--t-end", "0.02", "--dt", "0.001", "--out", str(out_csv),
    )
    assert code == 0
    assert json.loads(out)["rows"] == 21


def test_bad_inputs_exit_2(capsys, tmp_path, wide_spec_file):
    code, _, err = run_cli(capsys, "verify", "--spec", str(tmp_path / "missing.json"))
    assert code == 2
    code, _, err = run_cli(capsys, "casimir", "--system", "halphen", "--k", "3", "--point", "1,2")
    assert code == 2
    code, _, err = run_cli(
        capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9",
        "--t-end", "1.0", "--dt", "-0.1", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    for flag, value in (("--tol", "nan"), ("--tol", "-1")):
        code, out, err = run_cli(capsys, "verify", "--system", "halphen", "--samples", "10", flag, value)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith("error: --tol ")
    for t_end, dt, flag in (("inf", "0.1", "--t-end"), ("1.0", "nan", "--dt")):
        code, out, err = run_cli(
            capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9",
            "--t-end", t_end, "--dt", dt, "--out", str(tmp_path / "x.csv"),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag} ")
    # sample counts below 1 name their flag, as --tol does
    for argv in (("verify", "--system", "halphen", "--samples", "0"),
                 ("darboux", "--system", "halphen", "--check-samples", "0")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[3]} must be >= 1, got 0\n"
    # and so do counts above the cap, before any point is drawn
    for argv in (("verify", "--system", "halphen", "--samples", "1000001"),
                 ("darboux", "--system", "halphen", "--check-samples", "10000000000000")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {argv[3]} must be <= 1000000, got {argv[4]}\n"
    # step counts past the cap: the first ratio overflows, the second would never finish
    for t_end, dt in (("1e308", "1e-308"), ("0.5", "1e-300")):
        for extra in ((), ("--reduced",)):
            code, out, err = run_cli(
                capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9",
                "--t-end", t_end, "--dt", dt, *extra, "--out", str(tmp_path / "x.csv"),
            )
            assert (code, out) == (2, "")
            assert len(err.splitlines()) == 1 and err.startswith("error: ")
    # --I belongs to euler-top; elsewhere it is named, not ignored
    for source in (("--system", "halphen"), ("--system", "circle-maps"), ("--spec", wide_spec_file)):
        code, out, err = run_cli(capsys, "verify", *source, "--I", "1,2,3", "--samples", "10")
        assert (code, out, err) == (2, "", "error: --I applies to --system euler-top only\n")


def test_non_finite_literal_is_bad_input(capsys, tmp_path):
    # 1e999 overflows to inf when read; the parser names it instead of compiling it
    code, out, err = run_cli(
        capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9", "--hamiltonian", "x1*1e999",
        "--t-end", "1.0", "--dt", "0.1", "--out", str(tmp_path / "x.csv"),
    )
    assert (code, out) == (2, "")
    assert err == "error: numeric literal '1e999' overflows to inf (offset 3)\n"
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(_edited(BROKEN_SPEC, ("matrix", "j23"), "x3 + 1/(x1*1e999)")))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err == "error: numeric literal '1e999' overflows to inf (offset 11)\n"


def _edited(doc, path, value):
    """A deep copy of doc with the entry at path (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


MALFORMED_SPECS = {
    "top-level array": [HALPHEN_WIDE_SPEC],
    "domain list": _edited(HALPHEN_WIDE_SPEC, ("domain",), [[0.0, 5.0]] * 3),
    "domain null": _edited(HALPHEN_WIDE_SPEC, ("domain",), None),
    "box entry null": _edited(HALPHEN_WIDE_SPEC, ("domain", "box", 1), None),
    "box bound null": _edited(HALPHEN_WIDE_SPEC, ("domain", "box", 1, 0), None),
    "kappa null": _edited(HALPHEN_WIDE_SPEC, ("kappa",), None),
    "kappa short": _edited(HALPHEN_WIDE_SPEC, ("kappa",), [1]),
    "axes entry string": _edited(HALPHEN_WIDE_SPEC, ("axes", 1), "u"),
    "axes entry list": _edited(HALPHEN_WIDE_SPEC, ("axes", 2), ["1", "u", "u"]),
    "matrix list": _edited(BROKEN_SPEC, ("matrix",), ["x1", "x2", "x3"]),
    "matrix string": _edited(BROKEN_SPEC, ("matrix",), "x1"),
    "eta number": _edited(HALPHEN_WIDE_SPEC, ("eta",), 2),
    "hamiltonian number": _edited(HALPHEN_WIDE_SPEC, ("hamiltonian",), 1.5),
    "predicate number": _edited(HALPHEN_WIDE_SPEC, ("domain", "predicate"), 3),
    "phi number": _edited(HALPHEN_WIDE_SPEC, ("axes", 0, "phi"), 1),
    "psi number": _edited(HALPHEN_WIDE_SPEC, ("axes", 0, "psi"), 2),
    "zeta number": _edited(HALPHEN_WIDE_SPEC, ("axes", 0, "zeta"), 3),
    "matrix entry number": _edited(BROKEN_SPEC, ("matrix", "j23"), 4),
    "box bound infinite": _edited(HALPHEN_WIDE_SPEC, ("domain", "box"), [[1, math.inf], [1, 2], [1, 2]]),
    "box bound nan": _edited(HALPHEN_WIDE_SPEC, ("domain", "box"), [[math.nan, 2], [1, 2], [1, 2]]),
    "box width overflow": _edited(HALPHEN_WIDE_SPEC, ("domain", "box"), [[-1e308, 1e308], [1, 2], [1, 2]]),
    "kappa overflow": _edited(HALPHEN_WIDE_SPEC, ("kappa",), [1e308, 1e308]),
    # too deep for Python's compile of the generated source
    "eta 199-term sum": _edited(HALPHEN_WIDE_SPEC, ("eta",), "+".join(["x1*x2"] * 199)),
    # too deep for the parser's recursion
    "eta 250 parentheses": _edited(HALPHEN_WIDE_SPEC, ("eta",), "(" * 250 + "x1" + ")" * 250),
    "eta 5000 minuses": _edited(HALPHEN_WIDE_SPEC, ("eta",), "-" * 5000 + "x1"),
    "hamiltonian 3000 parentheses": _edited(HALPHEN_WIDE_SPEC, ("hamiltonian",), "(" * 3000 + "x1" + ")" * 3000),
    # too deep for the recursive tree walkers
    "eta 1500-term sum": _edited(HALPHEN_WIDE_SPEC, ("eta",), "+".join(["x1*x2"] * 1500)),
}
# the exact error, for documents whose message the test pins
MALFORMED_ERRORS = {
    "box bound infinite": "error: need three intervals lo < hi with finite bounds and width, "
                          "got ((1.0, inf), (1.0, 2.0), (1.0, 2.0))\n",
    "box bound nan": "error: need three intervals lo < hi with finite bounds and width, "
                     "got ((nan, 2.0), (1.0, 2.0), (1.0, 2.0))\n",
    "box width overflow": "error: need three intervals lo < hi with finite bounds and width, "
                          "got ((-1e+308, 1e+308), (1.0, 2.0), (1.0, 2.0))\n",
    "kappa overflow": "error: kappa constants and kappa_31 = -(k12 + k23) must be finite, got (1e+308, 1e+308)\n",
    "eta 199-term sum": "error: expression is nested too deeply (offset 0)\n",
    "eta 1500-term sum": "error: expression is nested too deeply (offset 0)\n",
}


@pytest.mark.parametrize("name", list(MALFORMED_SPECS), ids=list(MALFORMED_SPECS))
def test_malformed_spec_file_is_bad_input(capsys, tmp_path, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_SPECS[name]))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    if name in MALFORMED_ERRORS:
        assert err == MALFORMED_ERRORS[name]


def test_deep_expressions_name_their_depth(capsys, tmp_path):
    for name in ("eta 250 parentheses", "eta 5000 minuses", "hamiltonian 3000 parentheses"):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(MALFORMED_SPECS[name]))
        code, _, err = run_cli(capsys, "verify", "--spec", str(path))
        assert code == 2 and err.startswith("error: expression is nested too deeply (offset "), name
    code, _, err = run_cli(capsys, "simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9", "--t-end", "0.1",
                           "--dt", "0.1", "--hamiltonian", "(" * 3000 + "x1" + ")" * 3000,
                           "--out", str(tmp_path / "x.csv"))
    assert code == 2 and err.startswith("error: expression is nested too deeply (offset ")
    # a 150-term sum is within both limits
    path = tmp_path / "sum.json"
    path.write_text(json.dumps(_identity_spec("+".join(["x2*x3"] * 150))))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--samples", "20")
    assert code == 0 and json.loads(out)["verdict"] == "pass"


def test_zero_set_rejection_passes_the_benchmark_validator(capsys, tmp_path, monkeypatch):
    # chi_23 of this plain box vanishes on a corner that the chart's 512 samples miss
    loader = importlib.util.spec_from_file_location(
        "perfbench_workloads", Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(loader)
    monkeypatch.setitem(sys.modules, loader.name, workloads)  # its dataclasses look their module up
    loader.loader.exec_module(workloads)
    path = tmp_path / "random-42-9.json"
    path.write_text(json.dumps(workloads._spec_doc(random_family_spec(9, 42))))
    argv = ("darboux", "--spec", str(path), "--k", "1", "--seed", "42")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith("; chart hypothesis fails\n")
    command = workloads.Command("random-42-9", argv, "darboux", 1, may_reject=True)
    assert workloads._rejection_problem(command, err) is None


def _identity_spec(eta: str) -> dict:
    axis = {"phi": "1", "psi": "u", "zeta": "u"}
    return {"eta": eta, "axes": [axis, axis, axis], "kappa": [0.0, 0.0],
            "domain": {"box": [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]}}


@pytest.mark.parametrize("command", [("verify", "--samples", "50"), ("darboux", "--check-samples", "50")])
def test_eta_sign_change_on_plain_box_is_bad_input(capsys, tmp_path, command):
    # eta = x1 - 0.5 vanishes on the plane x1 = 0.5 inside the box, although no sample hits it
    path = tmp_path / "sign.json"
    path.write_text(json.dumps(_identity_spec("x1 - 0.5")))
    code, out, err = run_cli(capsys, command[0], "--spec", str(path), *command[1:])
    assert (code, out) == (2, "")
    prefix = "error: eta changes sign on the box (seen near ("
    assert err.startswith(prefix) and err.endswith("); it must vanish somewhere inside\n")
    x1, x2, x3 = (float(v) for v in err[len(prefix):].split(")")[0].split(", "))
    # the first sample (seed 0) has x1 = 0.1387..., where eta < 0; the named point is on the other side
    assert 0.5 < x1 <= 1.0 and 2.0 <= x2 <= 3.0 and 4.0 <= x3 <= 5.0


def test_eta_vanishing_message_names_floats(capsys, tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(_identity_spec("x1 - x1")))
    code, out, err = run_cli(capsys, "verify", "--spec", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: eta vanishes at sampled point (0.13870941014555427, 2.1296456182997474, 4.47141042966848)\n"
    )


def test_random_argv_exit_codes(capsys, tmp_path, wide_spec_file, broken_spec_file):
    """Changes of a valid argv exit with 0, 1 or 2 and never show a traceback.

    Every single-option change is run, then random pairs of changes up to
    200 runs in all.
    """
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    numbers = ("nan", "inf", "-1", "0", "abc", "0.5", "2")
    points = ("nan,1,2", "inf,0,1", "1,2", "abc", "0.5,0.5,0.9", "1,2,4", None)
    systems = (
        ("--system", "circle-maps"), ("--system", "euler-top"), ("--system", "bogus"),
        ("--spec", wide_spec_file), ("--spec", broken_spec_file), ("--spec", str(bad_json)),
        ("--spec", str(tmp_path / "missing.json")), ("--system", "euler-top", "--I", "1,1,3"),
        ("--system", "euler-top", "--I", "nan,1,2"), (),
    )
    halphen = ("--system", "halphen")
    # option -> (value in the valid argv, alternatives); None leaves the option out
    grammar = {
        "list": {},
        "verify": {
            "system": (halphen, systems), "--samples": ("3", numbers), "--tol": ("1e-6", numbers),
            "--seed": ("7", numbers), "--scheme": ("auto", ("analytic", "fd", "exact")),
        },
        "casimir": {
            "system": (halphen, systems), "--k": ("3", ("1", "2", "4", "nan", None)),
            "--point": ("0.5,0.7,0.9", points),
        },
        "darboux": {
            "system": (halphen, systems), "--k": (None, ("1", "2", "3", "0")),
            "--check-samples": ("3", numbers), "--seed": ("7", numbers), "--point": (None, points),
        },
        "simulate": {
            "system": (halphen, systems), "--x0": ("0.5,0.7,0.9", points),
            "--t-end": ("0.5", numbers + (None,)), "--dt": ("0.1", numbers + (None,)),
            "--method": ("rk4", ("midpoint", "euler")), "--hamiltonian": (None, ("x1*x2", "x1 +", "ln(x1)")),
            "--reduced": (False, (True,)), "--k": (None, ("1", "2", "3")), "--seed": (None, numbers),
            "--out": (str(tmp_path / "fuzz.csv"), (None,)),
        },
    }

    def argv_of(command, changes):
        argv = [command]
        for option, (valid, _) in grammar[command].items():
            value = changes.get(option, valid)
            if option == "system":
                argv += value
            elif value is True:
                argv.append(option)
            elif value not in (None, False):
                argv += [option, value]
        return argv

    cases = [argv_of(command, {}) for command in grammar]
    for command, options in grammar.items():
        for option, (_, alternatives) in options.items():
            cases += [argv_of(command, {option: alt}) for alt in alternatives]
    rng = random.Random(0)
    commands = [c for c in grammar if len(grammar[c]) >= 2]
    while len(cases) < 200:
        command = rng.choice(commands)
        options = rng.sample(sorted(grammar[command]), 2)
        cases.append(argv_of(command, {o: rng.choice(grammar[command][o][1]) for o in options}))

    for argv in cases:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
        err = capsys.readouterr().err
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv


def test_verify_fd_scheme_flag(capsys, tmp_path):
    spec_doc = json.loads(json.dumps(HALPHEN_WIDE_SPEC))
    spec_doc["domain"]["box"] = [[0.05, 0.45], [0.55, 0.95], [1.05, 1.45]]
    path = tmp_path / "ordered.json"
    path.write_text(json.dumps(spec_doc))
    code, out, _ = run_cli(capsys, "verify", "--spec", str(path), "--scheme", "fd", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["derivative_scheme"] == "fd"
    assert doc["verdict"] == "pass"


def test_casimir_from_family_spec_file(capsys, wide_spec_file):
    code, out, _ = run_cli(capsys, "casimir", "--spec", wide_spec_file, "--k", "3", "--point", "1,2,4")
    assert code == 0
    assert json.loads(out)["value"] == 2.0


def test_darboux_auto_k(capsys):
    code, out, _ = run_cli(capsys, "darboux", "--system", "euler-top", "--check-samples", "200")
    assert code == 0
    doc = json.loads(out)
    assert doc["k"] in (1, 3)  # chi31 changes sign on the octant box, so k=2 is out
    assert doc["canonical_check"]["verdict"] == "pass"


def test_simulate_hamiltonian_flag_and_midpoint(capsys, tmp_path, wide_spec_file):
    out_csv = tmp_path / "quad.csv"
    code, out, _ = run_cli(
        capsys, "simulate", "--spec", wide_spec_file, "--x0", "1,2,4",
        "--t-end", "0.5", "--dt", "0.001", "--method", "midpoint",
        "--hamiltonian", "(x1^2 + x2^2 + x3^2)/2", "--k", "3", "--out", str(out_csv),
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["method"] == "midpoint"
    header, first = out_csv.read_text().splitlines()[:2]
    assert float(first.split(",")[5]) == pytest.approx(0.5 * (1 + 4 + 16))


def test_simulate_without_hamiltonian_is_exit_2(capsys, tmp_path):
    doc = json.loads(json.dumps(HALPHEN_WIDE_SPEC))
    del doc["hamiltonian"]
    path = tmp_path / "no_h.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(
        capsys, "simulate", "--spec", str(path), "--x0", "1,2,4",
        "--t-end", "0.1", "--dt", "0.001", "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "Hamiltonian" in err


def test_euler_top_inertia_flag(capsys):
    code, out, _ = run_cli(capsys, "casimir", "--system", "euler-top", "--I", "1,2,3", "--k", "3", "--point", "1,1,1")
    assert code == 0
    assert json.loads(out)["value"] == pytest.approx(-7.0 / 15.0, rel=1e-13)
    code, _, err = run_cli(capsys, "casimir", "--system", "euler-top", "--I", "1,1,3", "--k", "3", "--point", "1,1,1")
    assert code == 2


def test_spec_file_axis_without_zeta(capsys, tmp_path):
    doc = json.loads(json.dumps(HALPHEN_WIDE_SPEC))
    for axis in doc["axes"]:
        del axis["zeta"]
    path = tmp_path / "no_zeta.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "casimir", "--spec", str(path), "--k", "3", "--point", "1,2,4")
    assert code == 0
    assert json.loads(out)["value"] == 2.0


def test_seed_env_override():
    base = run_cli_subprocess(["verify", "--system", "halphen", "--samples", "50"])
    assert base.returncode == 0
    assert json.loads(base.stdout)["seed"] == 42
    enved = run_cli_subprocess(["verify", "--system", "halphen", "--samples", "50"], {"POISSON3D_SEED": "7"})
    assert json.loads(enved.stdout)["seed"] == 7
    explicit = run_cli_subprocess(
        ["verify", "--system", "halphen", "--samples", "50", "--seed", "9"], {"POISSON3D_SEED": "7"}
    )
    assert json.loads(explicit.stdout)["seed"] == 9


def test_seed_env_non_integer_is_bad_input(capsys, monkeypatch):
    monkeypatch.setenv("POISSON3D_SEED", "abc")
    code, out, err = run_cli(capsys, "verify", "--system", "halphen", "--samples", "50")
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["error: POISSON3D_SEED must be an integer, got 'abc'"]
    # an explicit --seed never consults the environment
    code, out, _ = run_cli(capsys, "verify", "--system", "halphen", "--samples", "50", "--seed", "9")
    assert code == 0
    assert json.loads(out)["seed"] == 9


def test_byte_identical_reruns(tmp_path, wide_spec_file):
    argv = ["verify", "--system", "halphen", "--samples", "300", "--seed", "42"]
    a = run_cli_subprocess(argv)
    b = run_cli_subprocess(argv)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    csv_a, csv_b = tmp_path / "a.csv", tmp_path / "b.csv"
    sim = ["simulate", "--spec", wide_spec_file, "--x0", "1,2,4", "--t-end", "0.2",
           "--dt", "0.001", "--k", "3"]
    ra = run_cli_subprocess(sim + ["--out", str(csv_a)])
    rb = run_cli_subprocess(sim + ["--out", str(csv_b)])
    assert ra.returncode == rb.returncode == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    assert ra.stdout.replace(str(csv_a).encode(), b"X") == rb.stdout.replace(str(csv_b).encode(), b"X")
