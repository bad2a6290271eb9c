"""The package namespace loads modules on first use, and each command imports only the modules it runs.

Both are import-time behaviour, so each check runs in a fresh interpreter.
"""

import json
import sys

import pytest

import poisson3d
from helpers import HALPHEN_WIDE_SPEC, run_python_subprocess

# run one command in this interpreter, then print its exit code and the package's submodules it loaded
_ONE_COMMAND = """
import contextlib, io, json, sys
from poisson3d import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("poisson3d."))]))
"""

BASE = {"cli", "errors", "expr", "plan", "family", "scalar_fields", "builtin_systems"}
SIMULATE = ["--spec", "{spec}", "--x0", "1,2,4", "--out", "{out}", "--k", "3"]
COMMAND_MODULES = {
    "verify --spec": (["verify", "--spec", "{spec}", "--samples", "20"], {"verification"}),
    "verify --system": (["verify", "--system", "halphen", "--samples", "20"], {"verification"}),
    "casimir": (["casimir", "--system", "halphen", "--k", "3", "--point", "0.1,0.5,0.9"], {"casimir"}),
    "darboux": (["darboux", "--spec", "{spec}", "--check-samples", "20"], {"casimir", "darboux", "verification"}),
    "simulate": (["simulate", *SIMULATE, "--t-end", "0.01", "--dt", "0.001"], {"casimir", "dynamics"}),
    "simulate --reduced": (
        ["simulate", *SIMULATE, "--t-end=-0.01", "--dt", "0.001", "--reduced"],
        {"casimir", "darboux", "dynamics", "verification"},
    ),
    "list": (["list"], set()),
}


@pytest.mark.parametrize("command", COMMAND_MODULES)
def test_a_command_imports_only_the_modules_it_runs(tmp_path, command):
    argv, extra = COMMAND_MODULES[command]
    spec = tmp_path / "halphen_wide.json"
    spec.write_text(json.dumps(HALPHEN_WIDE_SPEC))
    argv = [arg.format(spec=spec, out=tmp_path / "traj.csv") for arg in argv]
    code, modules = json.loads(run_python_subprocess(["-c", _ONE_COMMAND, *argv]).stdout)
    assert code == 0
    assert modules == sorted(f"poisson3d.{m}" for m in BASE | extra)


_READ_DARBOUX = """
import json, sys
import poisson3d
loaded = lambda: sorted(m for m in sys.modules if m.startswith("poisson3d."))
before = loaded()
poisson3d.darboux
print(json.dumps([before, loaded()]))
"""


def test_import_poisson3d_loads_no_submodule_until_one_is_read():
    before, after = json.loads(run_python_subprocess(["-c", _READ_DARBOUX]).stdout)
    assert before == []
    closure = {"casimir", "darboux", "errors", "expr", "family", "plan", "scalar_fields", "verification"}
    assert after == sorted(f"poisson3d.{m}" for m in closure)


def test_every_public_name_is_its_modules_object_and_listed():
    listing = dir(poisson3d)
    for name in poisson3d.__all__:
        obj = getattr(poisson3d, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
        assert obj.__module__.startswith("poisson3d.") and name in listing
    assert "__version__" in listing


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from poisson3d import *", namespace)
    assert {name: namespace[name] for name in poisson3d.__all__} == {
        name: getattr(poisson3d, name) for name in poisson3d.__all__
    }


def test_submodules_resolve_and_an_unknown_name_raises():
    from poisson3d import darboux, testing

    assert poisson3d.darboux is darboux and poisson3d.testing is testing
    assert poisson3d.__getattr__("darboux") is darboux  # the path a submodule not yet imported takes
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        poisson3d.not_a_name
