"""End-to-end benchmark: C source text to assembly text on four workloads.

    python3 benchmarks/e2e/run.py --seed 1982
    python3 benchmarks/e2e/run.py --workload unit-cold --seed 7 \\
        --seconds 20 --trace 0

Without ``--workload`` every workload runs, each in a fresh process, and
both its end-to-end metrics (from the untraced pass) and its per-layer
metrics (from the traced replay that follows) are printed.  With
``--workload`` one workload runs and the last line of standard output is
the JSON object ``{"correct", "attempted", "failed", "metrics"}`` whose
metrics are the end-to-end ones (``--trace 0``) or the per-layer ones
(``--trace 1``) that ``BENCHMARK.json`` declares.

The exit status is 0 when every correctness check passed, 1 when one
failed (the result still prints), and 2 when the benchmark could not run
(no result prints).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from metrics import END_TO_END, PER_LAYER
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
#: The private table cache: built by the first run in a checkout, read
#: by every later one.
TABLE_CACHE = ROOT / ".bench_build" / "e2e" / "tables"

#: Set-up probes per run, besides the workload process's own set-up.
SETUP_PROBES = 2
#: A single-workload run must end within this many seconds.
RUN_LIMIT = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    """The workload processes' environment: this checkout's sources, the
    private table cache, and no inherited ``REPRO_*`` switches."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH")) if part
    )
    env["REPRO_TABLE_CACHE_DIR"] = str(TABLE_CACHE)
    return env


def run_child(arguments, deadline: float) -> dict:
    """Run ``workloads.py`` with *arguments*; its last stdout line."""
    command = [sys.executable, str(HERE / "workloads.py"), *arguments,
               "--spawned-at", repr(time.time())]
    # A session of its own, so a timeout can stop the server and pool
    # workers the workload started along with it.
    process = subprocess.Popen(command, cwd=ROOT, env=child_env(),
                               stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, _ = process.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise BenchmarkError(f"{' '.join(arguments)} ran out of time")
    finally:
        if process.poll() is None:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{' '.join(arguments)} exited with status {process.returncode}"
        )
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> dict:
    """One workload: set-up probes, then the workload process."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = [run_child(common + ["--setup-only"], deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    result = run_child(
        common + ["--seconds", str(seconds), "--trace", str(trace)],
        deadline,
    )
    setups.append(result["setup_s"])
    result["e2e"]["setup_s"] = statistics.median(setups)
    result["samples"]["setup_s"] = len(setups)
    declared = [(END_TO_END, result["e2e"])]
    if trace:
        declared.append((PER_LAYER, result["layers"]))
    for names, values in declared:
        if set(values) != set(names):
            raise BenchmarkError(
                f"{workload} reported {sorted(set(values) ^ set(names))} "
                f"against the declared metrics"
            )
    return result


def provenance(seed: int, cpus: int) -> dict:
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                capture_output=True, text=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain"], cwd=ROOT, check=True,
                capture_output=True, text=True,
            ).stdout.strip())
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "date_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "available_cpus": cpus,
        "python": platform.python_version(),
        "seed": seed,
    }


def print_table(workload: str, result: dict) -> None:
    operations = result["operations"]
    print(f"# {workload}: {operations['count']} timed operations, median "
          f"{operations['p50_s']:.4g} s; {result['attempted']} operations "
          f"and checks attempted, {result['failed']} failed")
    sets = [("end-to-end", END_TO_END, result["e2e"])]
    if result.get("layers") is not None:
        sets.append(("per-layer", PER_LAYER, result["layers"]))
    for title, units, values in sets:
        print(f"#   {title}")
        for name, unit in units.items():
            print(f"    {name:<30} {values[name]:>14.6g} {unit:<10} "
                  f"n={result['samples'].get(name, 0)}")


def metric_block(units: dict, values: dict) -> dict:
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark: source text to assembly."
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1982)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="timed seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: print the per-layer metrics "
                             "of the traced pass instead of the "
                             "end-to-end ones")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"e2e: no compiler sources under {SRC}", file=sys.stderr)
        return 2
    started = time.monotonic()
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    trace = args.trace if args.workload else 1
    try:
        deadline = started + RUN_LIMIT
        run_child(["--prepare"], deadline)
        results = {}
        for workload in workloads:
            if not args.workload:
                deadline = time.monotonic() + RUN_LIMIT
            results[workload] = measure(
                workload, args.seed, args.seconds, trace, deadline
            )
    except (BenchmarkError, ValueError, KeyError) as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 2

    for workload, result in results.items():
        print_table(workload, result)
    cpus = next(iter(results.values()))["cpus"]
    print("# provenance " + json.dumps(provenance(args.seed, cpus)))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    summary = {"correct": failed == 0, "attempted": attempted,
               "failed": failed}
    if args.workload:
        result = results[args.workload]
        summary["metrics"] = (
            metric_block(PER_LAYER, result["layers"]) if trace
            else metric_block(END_TO_END, result["e2e"])
        )
    else:
        summary["metrics"] = {
            workload: {
                "end_to_end": metric_block(END_TO_END, result["e2e"]),
                "per_layer": metric_block(PER_LAYER, result["layers"]),
            }
            for workload, result in results.items()
        }
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
