"""Smoke tests: the scripts documented in the README run against the current API."""

import json

from helpers import REPO_ROOT, run_python_subprocess

SCRIPTS = REPO_ROOT / "scripts"


def test_darboux_demo_all_checks_pass():
    proc = run_python_subprocess([str(SCRIPTS / "darboux_demo.py"), "--samples", "100"])
    systems = json.loads(proc.stdout)
    assert [s["system"] for s in systems] == ["halphen", "circle-maps", "euler-top"]
    for s in systems:
        assert s["jacobi"]["verdict"] == "pass", s["system"]
        assert s["canonical_check"]["verdict"] == "pass", s["system"]


def test_drift_study_runs():
    proc = run_python_subprocess([str(SCRIPTS / "drift_study.py")])
    lines = proc.stdout.decode().splitlines()
    assert lines[0].startswith("method = rk4")
    assert sum("|dH|" in line for line in lines) == 8  # four steps for each of two Hamiltonians


def test_output_digest_prints_one_stable_digest_per_command():
    argv = [str(SCRIPTS / "output_digest.py"), "--workload", "sampled-checks", "--seed", "3"]
    first = run_python_subprocess(argv).stdout.decode()
    lines = first.splitlines()
    assert [line.split(" ", 1)[1] for line in lines][:2] == ["warm-up", "verify halphen analytic"]
    assert len(lines) == 7 and all(len(line.split(" ", 1)[0]) == 64 for line in lines)
    assert len({line.split(" ", 1)[0] for line in lines}) == 7
    # another work directory, the same digests: the path is not part of them
    assert run_python_subprocess(argv).stdout.decode() == first
