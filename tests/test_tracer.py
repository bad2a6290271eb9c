"""The span tracer behind `perfbench/run.py --trace 1` wraps the package and restores it.

The tracer rebinds the package's public functions, three DomainBox methods
and the callables compile_expr returns (it copies their .source and
.varnames); these tests pin that contract on short CLI commands, also
where the commands import the layers they run on first use.
"""

import importlib.util
import json
from pathlib import Path

from poisson3d import cli
from poisson3d import expr as ex
from poisson3d.scalar_fields import DomainBox
from helpers import HALPHEN_WIDE_SPEC, run_python_subprocess

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
tracer_module = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracer_module)


def _commands(tmp_path):
    return (
        ["verify", "--system", "halphen", "--samples", "50"],
        ["simulate", "--system", "halphen", "--x0", "0.1,0.5,0.9", "--t-end", "0.02", "--dt", "0.001",
         "--out", str(tmp_path / "traj.csv")],
    )


def _traced_pass(tracer, tmp_path, capsys):
    tracer.reset()
    tracer.install()
    try:
        wrapped = [ex.compile_expr, cli.main] + [vars(DomainBox)[name] for name in tracer_module.DOMAIN_METHODS]
        assert all(hasattr(fn, "__wrapped__") for fn in wrapped)
        for argv in _commands(tmp_path):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    return tracer.snapshot()


def test_tracer_counts_repeat_and_uninstall_restores(tmp_path, capsys):
    compile_expr, main = ex.compile_expr, cli.main
    methods = {name: vars(DomainBox)[name] for name in tracer_module.DOMAIN_METHODS}
    tracer = tracer_module.Tracer()

    first = _traced_pass(tracer, tmp_path, capsys)
    second = _traced_pass(tracer, tmp_path, capsys)

    assert first["calls"][tracer_module.EVAL] > 0
    assert first["calls"]["expr.compile_expr"] > 0
    assert first["calls"]["cli.main"] == 2
    assert first["counters"]["steps"] == 20
    assert tracer_module.counts_only(first) == tracer_module.counts_only(second)

    assert ex.compile_expr is compile_expr and cli.main is main
    assert {name: vars(DomainBox)[name] for name in tracer_module.DOMAIN_METHODS} == methods


# a fresh interpreter: casimir, darboux and dynamics are first imported by install(), not by the commands
_FRESH_TRACE = """
import contextlib, importlib.util, io, json, sys
import poisson3d
from poisson3d import cli

lazy = [m for m in ("casimir", "darboux", "dynamics") if f"poisson3d.{m}" in sys.modules]
spec = importlib.util.spec_from_file_location("perfbench_tracer", sys.argv[1])
tracer_module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer_module)
tracer = tracer_module.Tracer()
tracer.install()
try:
    resolved = hasattr(poisson3d.build_chart, "__wrapped__")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [cli.main(argv) for argv in json.loads(sys.argv[2])]
finally:
    tracer.uninstall()
left = [n for n in poisson3d.__all__ if hasattr(getattr(poisson3d, n), "__wrapped__")]
left += [n for n, v in vars(poisson3d).items() if hasattr(v, "__wrapped__")]
print(json.dumps({"lazy": lazy, "resolved": resolved, "codes": codes, "calls": tracer.snapshot()["calls"], "left": left}))
"""


def test_tracer_reaches_layers_the_cli_imports_on_first_use(tmp_path):
    spec = tmp_path / "halphen_wide.json"
    spec.write_text(json.dumps(HALPHEN_WIDE_SPEC))
    commands = [
        ["darboux", "--spec", str(spec), "--check-samples", "20"],
        ["simulate", "--spec", str(spec), "--x0", "1,2,4", "--t-end=-0.01", "--dt", "0.001", "--reduced",
         "--k", "3", "--out", str(tmp_path / "traj.csv")],
    ]
    proc = run_python_subprocess(["-c", _FRESH_TRACE, _SPEC.origin, json.dumps(commands)])
    result = json.loads(proc.stdout)
    assert result["lazy"] == [] and result["codes"] == [0, 0]
    assert result["resolved"]  # the package hands out the tracer's rebinding in darboux
    for layer in ("casimir", "darboux", "dynamics"):
        assert sum(n for name, n in result["calls"].items() if name.split(".")[0] == layer) > 0, layer
    assert result["calls"]["darboux.build_chart"] == 2 and result["calls"]["dynamics.integrate_reduced"] == 1
    assert result["left"] == []
