"""The span tracer behind `perfbench/run.py --trace 1` wraps the package and restores it.

The tracer rebinds the package's public functions, three DomainBox methods
and the callables compile_expr returns (it copies their .source and
.varnames); these tests pin that contract on two short CLI commands.
"""

import importlib.util
from pathlib import Path

from poisson3d import cli
from poisson3d import expr as ex
from poisson3d.scalar_fields import DomainBox

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
