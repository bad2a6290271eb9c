#!/usr/bin/env python3
"""Record the expected outcome of every benchmark command at the default seed.

  python3 perfbench/make_reference.py

Writes perfbench/reference.json: per workload and command, the exit code,
verdict, worst point, sample count and the roundoff-level figures that
workloads.check compares.  The file is the correctness reference for the
benchmark; regenerate it only when a change is meant to alter these
outcomes, and say so in the change.
"""

import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from poisson3d.cli import DEFAULT_SEED, main as cli_main  # noqa: E402


def main() -> int:
    os.chdir(ROOT)
    workdir = os.path.join(".perfbench", "reference")
    doc = {"seed": DEFAULT_SEED, "workloads": {}}
    try:
        for workload in workloads.WORKLOADS:
            errors = workloads.generate(workload, DEFAULT_SEED, workdir)
            if errors:
                raise SystemExit("\n".join(errors))
            _, commands = workloads.plan(workload, DEFAULT_SEED, workdir)
            outcomes = {}
            for cmd in commands:
                _, rc, out, err = workloads.run_command(cli_main, cmd)
                outcomes[cmd.label] = rec = workloads.summarize(cmd, rc, out, err)
                problems = workloads.check(cmd, rec, None)
                if problems:
                    raise SystemExit(f"{workload} {cmd.label}: {'; '.join(problems)}")
            doc["workloads"][workload] = outcomes
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    # one command per line keeps the file reviewable
    blocks = [
        f"  {json.dumps(w)}: {{\n" + ",\n".join(f"   {json.dumps(k)}: {json.dumps(v)}" for k, v in out.items()) + "\n  }"
        for w, out in doc["workloads"].items()
    ]
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(f'{{"seed": {DEFAULT_SEED}, "workloads": {{\n' + ",\n".join(blocks) + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
