"""Smoke tests: the scripts and the library example documented in the README run against the current API."""

import json

import numpy as np

from poisson3d.builtin_systems import build_system
from poisson3d.family import structure_matrix_at
from helpers import REPO_ROOT, run_python_subprocess

SCRIPTS = REPO_ROOT / "scripts"


def test_darboux_demo_all_checks_pass():
    proc = run_python_subprocess([str(SCRIPTS / "darboux_demo.py"), "--samples", "100"])
    systems = json.loads(proc.stdout)
    assert [s["system"] for s in systems] == ["halphen", "circle-maps", "euler-top"]
    for s in systems:
        assert s["jacobi"]["verdict"] == "pass", s["system"]
        assert s["canonical_check"]["verdict"] == "pass", s["system"]
        # psi' = phi, so J grad C_3 is 0 and the residual is rounding: each term J_ab (grad C_3)_b carries a
        # relative error of a few ulps, from J's three factors, the partial's operations, the product and the sum
        J = structure_matrix_at(build_system(s["system"])[0], s["reference_point"], check_domain=False).as_matrix()
        scale = np.max(np.abs(J) @ np.abs(s["gradient_C3"]))
        assert s["annihilation_residual"] <= 8 * np.finfo(float).eps * scale, s["system"]


def test_drift_study_runs():
    proc = run_python_subprocess([str(SCRIPTS / "drift_study.py")])
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("method = rk4")
    assert sum("|dH|" in line for line in lines) == 8  # four steps for each of two Hamiltonians
    reduced = [line for line in lines if "dtau =" in line]
    assert len(reduced) == 5 and lines[-6].startswith("reduced, chart k = 3")
    ratios = [line.split("ratios t")[1].split("y1") for line in reduced[2:]]
    assert len(ratios) == 3
    for t_ratio, y1_ratio in ratios:
        # rk4 in y, and the recovered t's 4-point Adams-Moulton sum: both 4th order
        assert 15.0 < float(y1_ratio) < 17.0 and 15.0 < float(t_ratio) < 17.0


def test_output_digest_prints_one_stable_digest_per_command():
    argv = [str(SCRIPTS / "output_digest.py"), "--workload", "sampled-checks", "--seed", "3"]
    first = run_python_subprocess(argv).stdout.decode()
    lines = first.splitlines()
    assert [line.split(" ", 1)[1] for line in lines][:2] == ["warm-up", "verify halphen analytic"]
    assert len(lines) == 7 and all(len(line.split(" ", 1)[0]) == 64 for line in lines)
    assert len({line.split(" ", 1)[0] for line in lines}) == 7
    # another work directory, the same digests: the path is not part of them
    assert run_python_subprocess(argv).stdout.decode() == first


def test_output_digest_all_prefixes_each_workload():
    run = lambda workload: run_python_subprocess(
        [str(SCRIPTS / "output_digest.py"), "--workload", workload, "--seed", "3"]
    ).stdout.decode().splitlines()
    lines = run("all")
    workloads = [line.split(" ")[1] for line in lines]
    assert list(dict.fromkeys(workloads)) == ["sampled-checks", "long-trajectory", "many-specs"]
    assert workloads.count("sampled-checks") == 7 and workloads.count("many-specs") == 201
    # each workload's lines are its own run's lines, label prefixed
    assert [line for line in lines if line.split(" ")[1] == "sampled-checks"] == [
        line.replace(" ", " sampled-checks ", 1) for line in run("sampled-checks")
    ]


def test_output_digest_src_names_the_package_it_runs():
    argv = [str(SCRIPTS / "output_digest.py"), "--workload", "sampled-checks", "--seed", "3"]
    default = run_python_subprocess(argv).stdout.decode()
    assert len(default.splitlines()) == 7
    assert run_python_subprocess(argv + ["--src", str(REPO_ROOT / "src")]).stdout.decode() == default


def test_readme_library_example_runs():
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    code = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    # the values its comments give
    code += (
        "assert p3.casimir_value(spec, 3, (1, 2, 4)) == 2.0\n"
        "assert p3.forward_map(chart, (1, 2, 4)).tolist() == [1, 2, -2]\n"
        "drift = p3.invariant_drift(traj)\n"
        "assert drift.max_abs_dH < 1e-12 and drift.max_abs_dC < 1e-12\n"
    )
    run_python_subprocess(["-c", code])
