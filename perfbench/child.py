"""One benchmark process: set up, then run the workload in a closed loop.

Started by run.py with the package's source directory on PYTHONPATH and
single-threaded numeric libraries.  Modes:

  setup   import, load inputs, run one warm-up command, report ready, exit
  run     set up, then repeat the workload's pass until --seconds elapse
  trace   set up, then alternate untraced and traced passes

Every command's outcome is checked as it completes; the first outcome of
each command is kept and every later repeat must match it byte for byte.
The host-speed probe of calibration.py runs before each command and once
more after the last one, so every command lies between two probes; the
ready line carries the mean of a probe at start and one after the warm-up.
The last line on stdout is a JSON record for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from calibration import probe  # noqa: E402

START_PROBE_S = probe()  # set-up lies between this probe and the one at ready

import workloads  # noqa: E402


def _emit(doc: dict) -> None:
    sys.__stdout__.write(json.dumps(doc) + "\n")
    sys.__stdout__.flush()


class Runner:
    def __init__(self, workload: str, seed: int, workdir: str):
        from poisson3d import cli

        self.cli = cli  # cli.main is looked up per call, so a traced pass reaches its wrapper
        self.warm, self.commands = workloads.plan(workload, seed, workdir)
        for cmd in self.commands:
            spec = cmd.argv[cmd.argv.index("--spec") + 1] if "--spec" in cmd.argv else None
            if spec is not None and not os.path.isfile(spec):
                raise FileNotFoundError(f"input {spec} is missing")
        self.reference = workloads.load_reference(seed, workload)
        self.first: dict[str, str] = {}  # label -> digest of the first outcome
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def execute(self, cmd) -> float:
        """Run one command and check it; returns its latency in seconds."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            seconds, rc, out, err = workloads.run_command(self.cli.main, cmd)
            problems = []
            digest = hashlib.sha256(f"{rc}\0{out}\0{err}".encode())
            if cmd.out is not None:
                with open(cmd.out, "rb") as fh:
                    digest.update(fh.read())
            digest = digest.hexdigest()
            if cmd.label not in self.first:
                self.first[cmd.label] = digest
                rec = workloads.summarize(cmd, rc, out, err)
                problems = workloads.check(cmd, rec, None if cmd is self.warm else self.reference)
            elif self.first[cmd.label] != digest:
                problems = ["output differs from the first run of the same command"]
        except Exception as exc:  # an operation that raises counts as failed, the loop goes on
            seconds = time.perf_counter() - t0
            problems = [f"raised {type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{cmd.label}: {'; '.join(problems)}")
        return seconds

    def one_pass(self) -> dict:
        latencies, probes = [], []
        for cmd in self.commands:
            probes.append(probe())
            latencies.append(self.execute(cmd))
        probes.append(probe())
        return {
            "seconds": sum(latencies),
            "units": sum(cmd.units for cmd in self.commands),
            "latencies": latencies,
            "probes": probes,
        }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args()

    runner = Runner(args.workload, args.seed, args.workdir)
    runner.execute(runner.warm)
    _emit({"ready": True, "probe_s": (START_PROBE_S + probe()) / 2.0})
    result = {}
    if args.mode == "run":
        start = time.perf_counter()
        passes = []
        # whole passes only, and at least two, so every command repeats
        while len(passes) < 2 or time.perf_counter() - start < args.seconds:
            passes.append(runner.one_pass())
        result["passes"] = passes
    elif args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        start = time.perf_counter()
        untraced, traced = [], []
        while not traced or time.perf_counter() - start < args.seconds:
            untraced.append(runner.one_pass()["seconds"])
            tracer.reset()
            tracer.install()
            try:
                seconds = runner.one_pass()["seconds"]
            finally:
                tracer.uninstall()
            traced.append({"seconds": seconds, "snapshot": tracer.snapshot()})
        result.update(untraced=untraced, traced=traced)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        problems=runner.problems,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    _emit(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
