import argparse
import importlib.util
import json
import math
import random
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from poisson3d import cli
from poisson3d.cli import COMMANDS, build_parser, main
from poisson3d.testing import random_family_spec
from helpers import HALPHEN_WIDE_SPEC, run_cli_subprocess

BROKEN_SPEC = {
    "name": "broken",
    "matrix": {"j12": "x1", "j23": "x2", "j31": "x3"},
    "domain": {"box": [[1.0, 2.0], [1.0, 2.0], [1.0, 2.0]]},
}


# eta * chi_ij * phi_k overflows on the whole box: the reparametrization factor and J are infinite
BIG_AXIS = {"phi": "1e10", "psi": "1e10*u", "zeta": "u/1e10"}
BIG_SPEC = {
    "name": "big",
    "eta": "1e300",
    "axes": [BIG_AXIS, BIG_AXIS, BIG_AXIS],
    "kappa": [0, 0],
    "domain": {"box": [[1, 2], [3, 4], [5, 6]]},
    "hamiltonian": "x1 + x2 + x3",
}
# on halphen, eta underflows to 0.0 at the first point and to a subnormal at the second
HUGE_POINTS = ("0.1,0.5,1e155", "0.1,0.5,1.1e154")


@pytest.fixture()
def big_spec_file(tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps(BIG_SPEC))
    return str(path)


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


# every kind of argparse exit: each help, no argument, a bad or abbreviated command,
# unrecognized and missing arguments, a bad choice, a bad type, exclusive options
_ARGPARSE_CASES = [
    [], ["-h"], ["--help"], ["--bogus"], ["bogus"], ["ver"],
    ["verify", "-h"], ["casimir", "-h"], ["darboux", "-h"], ["simulate", "-h"], ["list", "-h"],
    ["verify"], ["casimir", "--system", "halphen"], ["simulate", "--system", "halphen"],
    ["verify", "--system", "halphen", "extra"], ["list", "extra"], ["darboux", "--system", "halphen", "--bogus"],
    ["verify", "--system", "nope"], ["verify", "--system", "halphen", "--scheme", "bad"],
    ["casimir", "--system", "halphen", "--k", "4", "--point", "0,0,0"],
    ["verify", "--system", "halphen", "--spec", "x.json"], ["verify", "--samples", "abc", "--system", "halphen"],
    # argv forms the command's own parser could read otherwise: "--", an option-like value, the "=" form,
    # an abbreviation, a negative number, a repeated option, an ambiguous prefix
    ["verify", "--system", "halphen", "--", "extra"], ["verify", "--system", "halphen", "--", "--seed", "1"],
    ["darboux", "--", "--system", "halphen"], ["verify", "--spec", "--seed", "1"],
    ["verify", "--system", "halphen", "--seed=x"], ["verify", "--system", "halphen", "--seed=42", "extra"],
    ["verify", "--system", "halphen", "--samp", "x"], ["verify", "--s", "halphen"],
    ["simulate", "--system", "halphen", "--t-end", "-0.5"], ["simulate", "--system", "halphen", "--t-end", "-x"],
    ["darboux", "--system", "halphen", "--system", "nope"],
    ["verify", "--samples", "5", "--samples", "x", "--system", "halphen"],
    # leftover words after a well-formed command, for each command
    ["verify", "--system", "halphen", "--samples", "10", "extra", "words"],
    ["casimir", "--system", "halphen", "--k", "1", "--point", "1,2,3", "extra"],
    ["darboux", "--system", "halphen", "--check-samples", "10", "extra"],
    ["simulate", "--system", "halphen", "--x0", "1,2,3", "--t-end", "1", "--dt", "0.1", "--out", "t.csv", "extra"],
    ["list", "extra", "--bogus"],
]

# well-formed argv in the same forms: the command's parser reads what the full parser reads
_WELL_FORMED_CASES = [
    ["verify", "--system", "halphen", "--seed=42"], ["verify", "--system", "halphen", "--samp", "10"],
    ["verify", "--sys", "halphen", "--samples", "5", "--samples", "7", "--seed", "3"],
    ["verify", "--system", "halphen", "--system", "euler-top", "--scheme=fd"],
    ["simulate", "--system", "halphen", "--x0=1,2,3", "--t-end", "-0.5", "--dt=-1e-3", "--out", "t.csv"],
    ["casimir", "--system", "halphen", "--k", "1", "--point=-1,2,3"], ["list"],
]


def _exit_and_output(capsys, call):
    with pytest.raises(SystemExit) as stop:
        call()
    captured = capsys.readouterr()
    return stop.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", _ARGPARSE_CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_main_exits_as_the_full_parser_does(capsys, argv):
    # main builds the named command's parser alone; its exit code, help, usage and errors stay the full parser's
    expected = _exit_and_output(capsys, lambda: build_parser().parse_args(argv))
    assert _exit_and_output(capsys, lambda: main(argv)) == expected


@pytest.mark.parametrize("argv", _WELL_FORMED_CASES, ids=" ".join)
def test_main_reads_well_formed_argv_as_the_full_parser_does(monkeypatch, argv):
    seen = []
    text, _, add_options = COMMANDS[argv[0]]
    monkeypatch.setitem(COMMANDS, argv[0], (text, lambda args: seen.append(vars(args)) or 0, add_options))
    assert main(argv) == 0
    seen[0].pop("command", None)  # the subparsers' dest, which no handler reads
    want = vars(build_parser().parse_args(argv))
    assert want.pop("command") == argv[0]
    if "seed" in want and want["seed"] is None:
        want["seed"] = cli._seed_default()
    assert seen == [want]


@pytest.fixture()
def parser_progs(monkeypatch):
    """The prog of every argparse.ArgumentParser built, in order."""
    progs = []
    original = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return progs


def test_a_command_builds_its_own_parser_alone(capsys, parser_progs):
    assert main(["list"]) == 0
    assert main(["verify", "--system", "halphen", "--samples", "10"]) == 0
    assert parser_progs == ["poisson3d list", "poisson3d verify"]
    # leftover words: build_parser(name), the top parser and the one subparser, raises the full parser's error
    parser_progs.clear()
    assert _exit_and_output(capsys, lambda: main(["list", "extra"]))[0] == 2
    assert parser_progs == ["poisson3d list", "poisson3d", "poisson3d list"]
    # any other first word: the full parser
    parser_progs.clear()
    assert _exit_and_output(capsys, lambda: main(["-h"]))[0] == 0
    assert parser_progs == ["poisson3d"] + [f"poisson3d {name}" for name in COMMANDS]


def test_main_keeps_the_full_parsers_texts(capsys):
    assert _exit_and_output(capsys, lambda: main([]))[2].endswith(
        "poisson3d: error: the following arguments are required: command\n"
    )
    assert "poisson3d: error: argument command: invalid choice: 'bogus'" in _exit_and_output(
        capsys, lambda: main(["bogus"])
    )[2]
    code, out, err = _exit_and_output(capsys, lambda: main(["verify", "--system", "halphen", "extra"]))
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        "usage: poisson3d [-h] {verify,casimir,darboux,simulate,list} ...",
        "poisson3d: error: unrecognized arguments: extra",
    ]


def _commands_of(parser):
    (sub,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
    return list(sub.choices)


def test_build_parser_adds_the_named_command_alone():
    assert _commands_of(build_parser()) == list(COMMANDS) == ["verify", "casimir", "darboux", "simulate", "list"]
    for name in COMMANDS:
        assert _commands_of(build_parser(name)) == [name]


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


def test_casimir_names_the_point_where_its_gradient_is_undefined(capsys, tmp_path):
    # axis 1's psi = sqrt(u) is 0 at x1 = 0, outside the box, but its partial 1/(2 sqrt(u)) divides by zero there
    path = tmp_path / "sqrt.json"
    path.write_text(json.dumps({**HALPHEN_WIDE_SPEC, "eta": "1", "kappa": [1.0, 2.0],
                                "axes": [{"phi": "0.5/sqrt(u)", "psi": "sqrt(u)"}] + HALPHEN_WIDE_SPEC["axes"][1:],
                                "domain": {"box": [[0.5, 2.0], [0.0, 1.0], [0.0, 1.0]]}}))
    code, out, err = run_cli(capsys, "casimir", "--spec", str(path), "--k", "3", "--point", "0,0.5,0.2")
    assert (code, out) == (2, "")
    assert err == "error: grad C_3 is undefined at (0.0, 0.5, 0.2): float division by zero\n"


def test_casimir_names_the_point_where_its_annihilation_residual_is_undefined(capsys):
    # eta = 1/(2 (x1-x2)(x2-x3)(x3-x1)) divides by zero at x1 = x2, so J is undefined there; C_1 = chi_31 / chi_23
    # and its gradient are not, as they do not read eta
    code, out, err = run_cli(capsys, "casimir", "--system", "halphen", "--k", "1", "--point", "0.1,0.1,0.3")
    assert (code, out) == (2, "")
    assert err == "error: the annihilation residual of C_1 is undefined at (0.1, 0.1, 0.3): float division by zero\n"


@pytest.mark.parametrize("point", HUGE_POINTS, ids=["1e155", "1.1e154"])
def test_casimir_at_a_point_where_eta_underflows(capsys, point):
    # grad C_3 = (-(x2-x3)/(x1-x2)^2, (x1-x3)/(x1-x2)^2, -1/(x1-x2)) reads no eta: finite where eta underflows
    code, out, _ = run_cli(capsys, "casimir", "--system", "halphen", "--k", "3", "--point", point)
    assert code == 0
    doc = json.loads(out)
    x1, x2, x3 = doc["point"]
    assert doc["value"] == (x2 - x3) / (x1 - x2)
    assert doc["gradient"] == pytest.approx([-(x2 - x3) / (x1 - x2) ** 2, (x1 - x3) / (x1 - x2) ** 2, -1 / (x1 - x2)])


def test_casimir_names_the_point_where_its_value_is_undefined(capsys, tmp_path):
    # axis 1's psi = ln(u) is defined on its interval [0.5, 2] but not at x1 = -1, outside the box
    path = tmp_path / "ln.json"
    path.write_text(json.dumps({**HALPHEN_WIDE_SPEC, "eta": "1", "kappa": [1.0, 2.0],
                                "axes": [{"phi": "1/u", "psi": "ln(u)"}] + HALPHEN_WIDE_SPEC["axes"][1:],
                                "domain": {"box": [[0.5, 2.0], [0.0, 1.0], [0.0, 1.0]]}}))
    code, out, err = run_cli(capsys, "casimir", "--spec", str(path), "--k", "3", "--point=-1,0.5,0.2")
    assert (code, out) == (2, "")
    assert err == "error: C_3 is undefined at (-1.0, 0.5, 0.2): ln of non-positive value -1.0\n"


def test_a_negative_coordinate_takes_the_equals_form(capsys, tmp_path):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({**HALPHEN_WIDE_SPEC, "eta": "1", "kappa": [1.0, 2.0],
                                "domain": {"box": [[-6.0, 6.0], [-6.0, 6.0], [-6.0, 6.0]]}}))
    code, out, _ = run_cli(capsys, "casimir", "--spec", str(path), "--k", "3", "--point=-5,0.5,0.5")
    assert code == 0
    doc = json.loads(out)
    assert doc["point"] == [-5.0, 0.5, 0.5] and doc["value"] == (0.5 - 0.5 + 2.0) / (-5.0 - 0.5 + 1.0)
    with pytest.raises(SystemExit) as exc:  # argparse reads "-5,0.5,0.5" after a space as an option
        main(["casimir", "--spec", str(path), "--k", "3", "--point", "-5,0.5,0.5"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


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


def test_canonical_check_names_the_point_where_its_replay_fails(capsys, tmp_path):
    # the chart's C_k gradient overflows under kappa = (1e300, -1e300), though the structure verifies
    axis = {"phi": "1", "psi": "u", "zeta": "u"}
    path = tmp_path / "huge_kappa.json"
    path.write_text(json.dumps({"eta": "1", "axes": [axis, axis, axis], "kappa": [1e300, -1e300],
                                "domain": {"box": [[0.1, 1], [1.2, 2], [2.5, 3]]}}))
    assert run_cli(capsys, "verify", "--spec", str(path))[0] == 0
    code, out, err = run_cli(capsys, "darboux", "--spec", str(path), "--seed", "1")
    assert (code, out) == (2, "")
    # the first sample point at seed 1, drawn at index 0
    assert err == "error: math range error at (0.3422172876314087, 1.8554706108811623, 2.987643665108491)\n"


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


def test_simulate_ledger_abort_is_exit_2(capsys, tmp_path):
    # on x2 = x3, chi_12 = x1 - x2 decays until the C_3 ledger's denominator guard fails at t = 8.96
    path, out_csv = tmp_path / "flat.json", tmp_path / "ledger.csv"
    path.write_text(json.dumps(dict(_identity_spec("1"), domain={"box": [[-1.0, 1.0]] * 3})))
    code, out, err = run_cli(
        capsys, "simulate", "--spec", str(path), "--x0", "0.9,0.1,0.1", "--hamiltonian", "-(x1 + x2 + x3)",
        "--t-end", "12", "--dt", "0.01", "--k", "3", "--out", str(out_csv),
    )
    assert (code, out) == (2, "") and not out_csv.exists()
    assert err.startswith("error: invariant ledger failed at t = 8.96: chi_12 = ")


def test_simulate_reduced_step_fault_is_exit_2(capsys, tmp_path):
    # the orbit of x1 runs x2 down to 0.7, where a stage's (x2 - 0.7)^0.5 in dH/dx2 faults at tau = 0.1
    path, out_csv = tmp_path / "strip.json", tmp_path / "fault.csv"
    path.write_text(json.dumps(dict(_identity_spec("1"), domain={"box": [[0.0, 0.4], [0.6, 1.0], [-1.0, 1.0]]})))
    code, out, err = run_cli(
        capsys, "simulate", "--spec", str(path), "--x0", "0.2,0.8,0.5", "--hamiltonian", "x1 + (x2 - 0.7)^1.5",
        "--t-end", "0.5", "--dt", "0.001", "--reduced", "--k", "3", "--out", str(out_csv),
    )
    assert (code, out) == (2, "") and not out_csv.exists()
    assert err.startswith("error: reduced step failed at tau = 0.1: negative base ")


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
    # moments whose products, alphas, psi coefficients or eta overflow or underflow, named as such
    for moments in ("1e-200,2e-200,3e-200", "5e-324,1e-323,2e-323", "1e-160,2e-160,3e-160", "1e-154,2e-154,3e-154",
                    "1,2,1e308", "1,1.5,1e308", "1e200,2e200,3e200"):
        code, out, err = run_cli(capsys, "verify", "--system", "euler-top", "--I", moments, "--samples", "10")
        assert (code, out) == (2, "")
        assert err.startswith("error: moments (") and err.endswith(") put a structure constant out of float range\n")
    # the symmetric-top test is relative: distinct large moments reach phi's own check, and near-equal
    # small ones are a symmetric top
    code, out, err = run_cli(capsys, "verify", "--system", "euler-top", "--I", "1e13,2e13,3e13", "--samples", "10")
    assert (code, out) == (2, "") and err.startswith("error: phi must be nonvanishing on the interval: ")
    for moments in ("1e-3,1.00000000000001e-3,2e-3", "1,1.0000000000001,2", "1,1,3"):
        code, out, err = run_cli(capsys, "verify", "--system", "euler-top", "--I", moments, "--samples", "10")
        assert (code, out) == (2, "") and err.endswith(") are not pairwise distinct (symmetric top)\n")


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


HUGE = 10**400  # a JSON integer that float() cannot take


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
    "name number": _edited(HALPHEN_WIDE_SPEC, ("name",), 5),
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
    # JSON numbers only: an integer too large for a float, a boolean or a numeric string is not a number
    "kappa huge integer": _edited(HALPHEN_WIDE_SPEC, ("kappa",), [HUGE, 1]),
    "box bound huge integer": _edited(HALPHEN_WIDE_SPEC, ("domain", "box", 1, 1), HUGE),
    "kappa boolean": _edited(HALPHEN_WIDE_SPEC, ("kappa",), [True, 1]),
    "kappa strings": _edited(HALPHEN_WIDE_SPEC, ("kappa",), ["1.5", " 2 "]),
    "box bound strings": _edited(HALPHEN_WIDE_SPEC, ("domain", "box", 0), ["0", "1"]),
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
    "kappa huge integer": f"error: kappa must be a pair of numbers, got [{HUGE}, 1]\n",
    "box bound huge integer": f"error: domain.box entry must be a pair of numbers, got [0.0, {HUGE}]\n",
    "name number": "error: 'name' must be a string, got 5\n",
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


def test_deeply_nested_json_is_bad_input(capsys, tmp_path):
    # json's decoder recurses once per level: too deep a file is bad input, not a failed check
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    for argv in (("verify", "--samples", "5"), ("darboux",)):
        code, out, err = run_cli(capsys, *argv, "--spec", str(path))
        assert (code, out, err) == (2, "", "error: the spec file is nested too deeply to parse\n"), argv


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


@pytest.mark.parametrize("command", [("verify",), ("darboux",), ("casimir", "--k", "3", "--point", "0.5,2.5,4.5")])
def test_eta_certificate_names_eta_and_the_point_where_it_cannot_evaluate(capsys, tmp_path, command):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(_identity_spec("1e300*1e300")))
    code, out, err = run_cli(capsys, command[0], "--spec", str(path), *command[1:])
    assert (code, out) == (2, "")
    assert err == (
        "error: eta must be nonvanishing on the domain: evaluation failed: non-finite result inf"
        " (x = (0.13870941014555427, 2.1296456182997474, 4.47141042966848))\n"
    )


def _no_constant(name: str):
    raise ValueError(f"{name} is not JSON")


def test_random_argv_exit_codes(capsys, tmp_path, wide_spec_file, broken_spec_file, big_spec_file):
    """Changes of a valid argv exit with 0, 1 or 2 and never show a traceback.

    Every single-option change is run, then random pairs of changes up to
    200 runs in all.  The JSON of every run that exits 0 or 1 is strict: no
    NaN and no Infinity.
    """
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    numbers = ("nan", "inf", "-1", "0", "abc", "0.5", "2")
    points = ("nan,1,2", "inf,0,1", "1,2", "abc", "0.5,0.5,0.9", "1,2,4", *HUGE_POINTS, None)
    systems = (
        ("--system", "circle-maps"), ("--system", "euler-top"), ("--system", "bogus"),
        ("--spec", wide_spec_file), ("--spec", broken_spec_file), ("--spec", str(bad_json)),
        ("--spec", big_spec_file),
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
        out, err = capsys.readouterr()
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err, argv
        if code in (0, 1) and argv[0] != "list":
            json.loads(out, parse_constant=_no_constant)


@pytest.mark.parametrize("argv, message", [
    (("darboux", "--spec", "BIG", "--check-samples", "20"), "reparametrization factor inf is not finite at y = ("),
    (("darboux", "--spec", "BIG", "--check-samples", "20", "--point", "1.5,3.5,5.5"),
     "reparametrization factor inf is not finite at y = ("),
    (("simulate", "--spec", "BIG", "--x0", "1.5,3.5,5.5", "--t-end", "0.01", "--dt", "0.001", "--reduced"),
     "reparametrization factor "),
    (("casimir", "--spec", "BIG", "--k", "3", "--point", "1.5,3.5,5.5"),
     "the annihilation residual of C_3 is not finite at (1.5, 3.5, 5.5)\n"),
    (("casimir", "--system", "halphen", "--k", "3", "--point", "0.1,0.5,1e308"),
     "grad C_3 is undefined at (0.1, 0.5, 1e+308): non-finite result inf\n"),
    (("casimir", "--system", "halphen", "--k", "1", "--point", "1e308,0.5,0.1"),
     "grad C_1 is undefined at (1e+308, 0.5, 0.1): non-finite result inf\n"),
    (("verify", "--spec", "BIG", "--samples", "20"), "non-finite result -inf in j12 at ("),
    (("verify", "--spec", "BIG", "--samples", "20", "--scheme", "fd"), "non-finite result -inf in j12 at ("),
    (("casimir", "--system", "halphen", "--k", "3", "--point", "0.1,0.5,nan"),
     "expected three finite numbers, got '0.1,0.5,nan'\n"),
], ids=["darboux", "darboux-point", "simulate-reduced", "casimir-big", "casimir-grad-1e308", "casimir-grad-k1-1e308",
        "verify", "verify-fd", "casimir-nan-point"])
def test_values_that_are_not_finite_are_bad_input(capsys, tmp_path, big_spec_file, argv, message):
    argv = [big_spec_file if a == "BIG" else a for a in argv]
    if argv[0] == "simulate":
        argv += ["--out", str(tmp_path / "big.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out, caught) == (2, "", [])
    assert err.startswith("error: " + message) and err.count("\n") == 1, err


def _steep_spec(tmp_path):
    # J31 stays below 1e307, its partial in x1 reaches 1e309: the first term read past the entries
    path = tmp_path / "steep.json"
    path.write_text(json.dumps({
        "matrix": {"j12": "x3", "j23": "x1", "j31": "1e307*sin(100*x1)"},
        "domain": {"box": [[0.1, 1.0], [0.1, 1.0], [0.1, 1.0]]},
    }))
    return str(path)


def test_verify_names_the_partial_that_is_not_finite(capsys, tmp_path):
    code, out, err = run_cli(capsys, "verify", "--spec", _steep_spec(tmp_path), "--samples", "20")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: non-finite result -?inf in d1j31 at \(\S+, \S+, \S+\)\n", err), err


def test_verify_fd_names_the_partial_that_is_not_finite(capsys, tmp_path):
    # the central difference of d1j31 overflows to -inf without raising; the partial is named all the same
    code, out, err = run_cli(capsys, "verify", "--spec", _steep_spec(tmp_path), "--samples", "20", "--scheme", "fd")
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: non-finite result -?inf in d1j31 at \(\S+, \S+, \S+\)\n", err), err


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


def _per_value_csv(traj, states_x, fmt=lambda v: format(float(v), ".17g")) -> str:
    """The trajectory CSV formatted value by value with fmt, by default format(v, ".17g"), rows stably sorted by t."""
    rows = sorted(
        (
            (float(traj.t[m]), fmt(traj.tau[m]) if traj.tau is not None else "", states_x[m],
             float(traj.H[m]), fmt(traj.C[m]) if traj.C is not None else "")
            for m in range(len(traj))
        ),
        key=lambda r: r[0],
    )
    lines = [",".join([fmt(t), tau, fmt(x[0]), fmt(x[1]), fmt(x[2]), fmt(h), c]) for t, tau, x, h, c in rows]
    return "t,tau,x1,x2,x3,H,C\n" + "".join(line + "\n" for line in lines)


def test_trajectory_csv_is_the_per_value_format(tmp_path):
    from poisson3d import expr as ex
    from poisson3d.cli import _write_trajectory_csv
    from poisson3d.darboux import build_chart, forward_map, inverse_map
    from poisson3d.dynamics import Trajectory, integrate, integrate_reduced
    from conftest import WIDE_BOX, make_halphen

    tiny, huge = 5e-324, 1e300
    odd = Trajectory(
        np.array([1.0, 0.0, 1.0, -0.0, 3.0]),  # ties, -0.0 among them, keep their order
        np.array([-0.0, tiny, 2.0, -huge, 0.1]),
        np.array([[-0.0, tiny, huge], [1.0, -1.0, 2.0], [0.1, 1 / 3, -tiny], [7.0, 8.0, 9.0], [1e-310, 2.5, -3.0]]),
        np.array([-0.0, 3.0, huge, tiny, -1e-300]),
        np.array([0.0, -0.0, 4.0, tiny, -huge]),
        3, 0.1, "rk4", coords="y",
    )
    spec, h = make_halphen(WIDE_BOX), ex.parse("x1 + x2 + x3")
    direct = integrate(spec, h, (1.0, 2.0, 4.0), 0.5, 0.001, casimir_k=None)  # C column empty
    chart = build_chart(spec, 3)
    reduced = integrate_reduced(chart, h, forward_map(chart, (1.0, 2.0, 4.0)), 0.05, 0.001)
    assert reduced.t[-1] < reduced.t[0]  # a negative factor: the sort reverses the rows
    cases = [
        (odd, odd.states),
        (direct, direct.states),
        (reduced, np.array([inverse_map(chart, y) for y in reduced.states])),
    ]
    for n, (traj, states_x) in enumerate(cases):
        path = tmp_path / f"{n}.csv"
        _write_trajectory_csv(str(path), traj)
        assert path.read_bytes() == _per_value_csv(traj, states_x).encode(), n


# repeats come from a small pool; every column also holds these, -0.0 next to 0.0
_CSV_SPECIALS = [0.0, -0.0, 5e-324, -2.5e-310, 1e308, -1e308]


@st.composite
def _csv_columns(draw, count: int):
    n = len(_CSV_SPECIALS) + draw(st.integers(0, 12))
    pool = draw(st.lists(st.floats(), min_size=1, max_size=3))
    value = st.sampled_from(pool) | st.floats()
    columns = []
    for _ in range(count):
        extra = draw(st.lists(value, min_size=n - len(_CSV_SPECIALS), max_size=n - len(_CSV_SPECIALS)))
        columns.append(np.array(draw(st.permutations(_CSV_SPECIALS + extra)), dtype=float))
    return columns


@settings(max_examples=150, deadline=None)
@given(_csv_columns(10), st.sampled_from(["direct", "direct without C", "reduced"]))
def test_trajectory_csv_writes_each_number_as_percent_17g(tmp_path_factory, cols, shape):
    # a memo keyed on float equality would write -0.0 as 0 (or 0.0 as -0)
    from poisson3d.cli import _write_trajectory_csv
    from poisson3d.dynamics import Trajectory

    t, tau, h, c, *xs = cols
    states, states_x = np.column_stack(xs[:3]), np.column_stack(xs[3:])
    if shape == "reduced":
        traj = Trajectory(t, tau, states, h, c, 3, 0.1, "rk4", coords="y", states_x=states_x)
    else:
        traj = Trajectory(t, None, states, h, c if shape == "direct" else None, 3, 0.1, "rk4")
        states_x = states
    path = tmp_path_factory.mktemp("csv") / "traj.csv"
    _write_trajectory_csv(str(path), traj)
    assert path.read_text() == _per_value_csv(traj, states_x, fmt=lambda v: "%.17g" % v)
