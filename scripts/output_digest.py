#!/usr/bin/env python3
"""Digest every command's output of one benchmark workload, for byte-identity checks.

Writes the workload's seeded inputs, runs its warm-up command and the
commands of one pass through poisson3d.cli.main in this process, and prints
one line per command: the sha256 over its exit code, stdout, stderr and the
CSV it writes (if any), then its label.  The work directory's path is
replaced by a fixed token before hashing, so two checkouts (or two runs in
different directories) print the same lines exactly when every output is
byte-identical.  The workload definitions are imported from
perfbench/workloads.py and nothing under perfbench/ is written.

Usage (from any directory):

  python3 scripts/output_digest.py --workload long-trajectory --seed 42
  python3 scripts/output_digest.py --workload many-specs --seed 7 --src /path/to/other/checkout/src
"""

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(rc: int, stdout: str, stderr: str, csv: bytes | None, workdir: str) -> str:
    h = hashlib.sha256()
    for part in (str(rc), stdout.replace(workdir, "<workdir>"), stderr.replace(workdir, "<workdir>")):
        h.update(part.encode() + b"\0")
    h.update(b"no csv" if csv is None else csv)
    return h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="the poisson3d package's parent directory")
    args = parser.parse_args()
    sys.path[:0] = [os.path.abspath(args.src), os.path.join(ROOT, "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    import workloads
    from poisson3d.cli import main as cli_main

    with tempfile.TemporaryDirectory() as workdir:
        errors = workloads.generate(args.workload, args.seed, workdir)
        if errors:
            sys.exit(f"input round trip failed: {errors[0]}")
        warm, cmds = workloads.plan(args.workload, args.seed, workdir)
        for cmd in (warm, *cmds):
            if cmd.out is not None and os.path.exists(cmd.out):
                os.remove(cmd.out)
            _, rc, stdout, stderr = workloads.run_command(cli_main, cmd)
            csv = None
            if cmd.out is not None and os.path.exists(cmd.out):
                with open(cmd.out, "rb") as fh:
                    csv = fh.read()
            print(digest(rc, stdout, stderr, csv, workdir), cmd.label)


if __name__ == "__main__":
    main()
