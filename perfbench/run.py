"""Run one workload once and print its metrics as the last line of stdout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out FILE]

Before any worker starts, starkit and the benchmark are compiled to
bytecode, so that every set-up loads current .pyc files whatever the
checkout's cache held.  With --trace 0 the workload runs untraced in a
fresh single-threaded process (worker.py), which reports the verdict
rate and its peak RSS; four more fresh processes only set up, and
setup_s is the median of the five set-up times.  With --trace 1 one process runs the same rounds,
then a traced set-up and round, and the per-layer metrics come from the
traced part.  --out appends the whole record, with the Python version,
starkit.BACKEND and CORPUS_VERSION, to a JSON-lines file that
compare.py reads.

Exits 1 without a result when a worker fails, for instance when there
is no starkit source next to this directory.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_RUNS = 5
DEADLINE_S = 170


class WorkerError(RuntimeError):
    pass


def load_spec() -> dict:
    """BENCHMARK.json at the repository root: workloads and metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def warm_bytecode() -> None:
    """Bring every .pyc of starkit and of the benchmark up to date.

    Workers never write bytecode, so without this a set-up would load
    cached modules where a .pyc happened to be current and compile the
    rest from source.
    """
    for path in (os.path.join(ROOT, "src", "starkit"), HERE):
        compileall.compile_dir(path, quiet=2)


def spawn(args, deadline: float) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *map(str, args)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {args} ran past the deadline") from None
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise WorkerError(f"worker {args} exited {proc.returncode}: {tail[0]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int,
            deadline: float) -> tuple:
    """Returns (the full worker record, the result line)."""
    if trace:
        full = spawn([workload, seed, seconds, "trace"], deadline)
        metrics = full["layers"]
    else:
        full = spawn([workload, seed, seconds, "run"], deadline)
        setups = [full["setup_s"]] + [
            spawn([workload, seed, seconds, "setup"], deadline)["setup_s"]
            for _ in range(SETUP_RUNS - 1)]
        metrics = {
            "verdicts_per_s": {"value": full["verdicts_per_s"],
                               "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": full["peak_rss_mb"], "unit": "MB"},
        }
        full["setup_runs_s"] = setups
    return full, {"correct": full["correct"], "attempted": full["attempted"],
                  "failed": full["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in load_spec()["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record to this file")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    warm_bytecode()
    try:
        full, result = measure(args.workload, args.seed, args.seconds,
                               args.trace, deadline)
    except (WorkerError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = full["env"]
    print(f"# python {env['python']}, starkit backend {env['backend']}, "
          f"corpus version {env['corpus_version']}")
    for problem in full["problems"]:
        print(f"# check failed: {problem}")
    if full["failures"]:
        print(f"# failed operations: {', '.join(full['failures'])}")
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace, **full,
                  "result": result}
        with open(args.out, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
