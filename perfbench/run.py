#!/usr/bin/env python3
"""The poisson3d benchmark: one workload, end-to-end or traced.

Usage (from the repository root):

  python3 perfbench/run.py --workload sampled-checks --seed 42 --seconds 10 --trace 0

Workloads are described in perfbench/README.md.  The seed makes the inputs;
the same seed gives the same inputs.  Each workload runs in fresh
single-threaded child processes that drive poisson3d.cli.main in-process.

--trace 0 measures the end-to-end metrics with tracing off: the set-up time
of several fresh children, then one child repeating the workload's pass in
a closed loop for --seconds.  Every time it reports is calibrated against
the host-speed probe of calibration.py; the raw figures are in the record
line.  --trace 1 runs two children that alternate
untraced and traced passes and reports the per-layer metrics.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the run environment and the
workload-specific names of the figures.  Exits 2 without a result when the
package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

from calibration import calibrated

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = ".perfbench"  # relative to ROOT; holds inputs, CSVs and traces

SETUP_SAMPLES = 15  # fresh children whose set-up time is measured; the last one also runs
TIME_LIMIT = 170.0  # seconds for the whole run; a child still running then is killed
RATE_NAMES = {"sampled-checks": "points_per_s", "long-trajectory": "steps_per_s", "many-specs": "specs_per_s"}
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


class ChildError(RuntimeError):
    pass


def _spawn(mode: str, workload: str, seed: int, workdir: str, seconds: float,
           deadline: float) -> tuple[float, float, dict]:
    """Start one child; returns (seconds from spawn to ready, its probe at ready, its final record)."""
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode, "--workload", workload,
            "--seed", str(seed), "--workdir", workdir, "--seconds", repr(seconds)]
    with open(os.path.join(workdir, "child-stderr.txt"), "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, stderr=err, text=True)
        timer = threading.Timer(max(0.0, deadline - time.perf_counter()), proc.kill)
        timer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            lines = proc.stdout.read().strip().splitlines()
            proc.wait()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        err.seek(0)
        stderr = err.read()
    if time.perf_counter() >= deadline:
        raise ChildError(f"{mode} child still running {TIME_LIMIT} s after the start")
    if proc.returncode != 0 or not ready.strip() or not lines:
        raise ChildError(f"{mode} child exited {proc.returncode}: {stderr.strip()[-2000:]}")
    ready_doc = json.loads(ready)
    if ready_doc.get("ready") is not True:
        raise ChildError(f"{mode} child sent {ready!r} instead of ready")
    return setup, ready_doc["probe_s"], json.loads(lines[-1])


def _calibrated(p: dict) -> list[float]:
    """A pass's latencies, each calibrated by the mean of the probes around it."""
    probes = p["probes"]
    return [calibrated(lat, (before + after) / 2.0)
            for lat, before, after in zip(p["latencies"], probes, probes[1:])]


def _typical(latencies: list[list[float]]) -> list[float]:
    """Each command's median latency over the passes (one list per pass).

    Taking the per-command median removes stalls of the host, which hit one
    command in one pass.
    """
    return [statistics.median(lat) for lat in zip(*latencies)]


def _tail(latencies: list[list[float]]) -> dict:
    """The p95 of all the run's latencies, or a lower percentile with 10 beyond it.

    With 10 or fewer latencies it is the slowest.  Every command of every
    pass counts, so slowness that recurs across passes shows.  Capping at
    p95 keeps the percentile fixed however many long passes fit into the
    run: on many-specs it sits at the tenth slowest of a pass's 200
    commands, not at the two or three slowest specs of the seed.
    """
    ordered = sorted(lat for p in latencies for lat in p)
    beyond = max(10, len(ordered) // 20)
    rank = len(ordered) - 1 - beyond if len(ordered) > beyond else len(ordered) - 1
    return {"percentile": 100.0 * (rank + 1) / len(ordered), "value": ordered[rank]}


def _environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


def end_to_end(workload: str, seed: int, workdir: str, seconds: float, deadline: float):
    """(metrics, record-line fields, child records, problems) with tracing off."""
    setups, raw_setups, records = [], [], []
    for i in range(SETUP_SAMPLES):
        mode = "run" if i == SETUP_SAMPLES - 1 else "setup"
        setup, probe_s, rec = _spawn(mode, workload, seed, workdir, seconds, deadline)
        setups.append(calibrated(setup, probe_s))
        raw_setups.append(setup)
        records.append(rec)
    passes = records[-1]["passes"]
    latencies = [_calibrated(p) for p in passes]
    typical, tail = _typical(latencies), _tail(latencies)
    wall = sum(typical)
    rate = passes[0]["units"] / wall
    raw_wall = sum(_typical([p["latencies"] for p in passes]))
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "work_per_s": (rate, "1/s"),
        "cmd_p50_s": (statistics.median(typical), "s"),
        "cmd_tail_s": (tail["value"], "s"),
        "peak_rss_mb": (records[-1]["peak_rss_mb"], "MB"),
    }
    detail = {
        RATE_NAMES[workload]: rate,
        "cmd_tail_percentile": tail["percentile"],
        "commands": len(typical) * len(passes),
        "commands_per_pass": len(typical),
        "passes": len(passes),
        "pass_seconds": [p["seconds"] for p in passes],
        "probe_median_s": statistics.median(q for p in passes for q in p["probes"]),
        "raw": {"setup_s": statistics.median(raw_setups),  "wall_s": raw_wall,
                "work_per_s": passes[0]["units"] / raw_wall},
        "setup_samples_s": setups,
    }
    return metrics, detail, records, []


def traced(workload: str, seed: int, workdir: str, seconds: float, deadline: float):
    """(metrics, record-line fields, child records, problems) from two traced children."""
    from tracer import counts_only, per_layer_metrics

    records = [_spawn("trace", workload, seed, workdir, seconds / 2.0, deadline)[2] for _ in range(2)]
    runs = [t for rec in records for t in rec["traced"]]
    problems = []
    first = counts_only(runs[0]["snapshot"])
    if any(counts_only(r["snapshot"]) != first for r in runs[1:]):
        problems.append("per-layer counts differ between traced runs of the same seed")
    per_pass = [per_layer_metrics(r["snapshot"]) for r in runs]
    # counts repeat exactly (checked above); times are medians over the passes
    metrics = {
        name: (statistics.median(m[name][0] for m in per_pass) if unit == "s" else value, unit)
        for name, (value, unit) in per_pass[0].items()
    }
    untraced = [s for rec in records for s in rec["untraced"]]
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["seconds"] for r in runs) / statistics.median(untraced), "ratio")
    trace_path = os.path.join(WORK_ROOT, f"trace-{workload}-seed{seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "passes": [r["snapshot"] for r in runs]}, fh)
    detail = {"traced_passes": len(runs), "untraced_passes": len(untraced), "trace_file": trace_path}
    return metrics, detail, records, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=RATE_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.perf_counter() + TIME_LIMIT
    os.environ.update(THREAD_ENV)  # before numpy is imported, here and in the children

    if not os.path.isfile(os.path.join(SRC, "poisson3d", "cli.py")):
        sys.stderr.write(f"error: no package source at {SRC}; run from a full checkout\n")
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [SRC, HERE]
    import workloads

    env = _environment()
    env["busy_at_start"] = env["loadavg_start"][0] > 0.5 * (env["nproc"] or 1)
    workdir = os.path.join(WORK_ROOT, f"work-{os.getpid()}")
    measure = traced if args.trace else end_to_end
    try:
        problems = workloads.generate(args.workload, args.seed, workdir)
        metrics, detail, records, more = measure(args.workload, args.seed, workdir, args.seconds, deadline)
    except ChildError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    problems += more + [p for r in records for p in r["problems"]]
    env["loadavg_end"] = list(os.getloadavg())
    detail.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  failed_ratio=failed / attempted, problems=problems[:20], environment=env)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
