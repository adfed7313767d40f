"""One workload process: set-up, timed rounds, checks; prints one JSON line.

    python3 perfbench/worker.py WORKLOAD SEED SECONDS MODE

MODE is `setup` (set up once and stop), `run` (set up, then time whole
rounds of the operation list for SECONDS) or `trace` (as `run`, then
install the tracer, set up again and time one traced round).  run.py
starts it; it takes starkit from src/ next to this directory.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


class Failed:
    """The outcome of an operation that raised."""

    def __init__(self, exc: BaseException):
        self.what = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, Failed) and self.what == other.what


def run_round(ops) -> tuple:
    """Run every operation once; returns (seconds, outputs, failures)."""
    outputs = {}
    failures = 0
    start = time.perf_counter()
    for label, op in ops:
        try:
            outputs[label] = op()
        except Exception as exc:  # a failed operation is counted, not fatal
            outputs[label] = Failed(exc)
            failures += 1
    return time.perf_counter() - start, outputs, failures


def main(argv) -> int:
    name, seed, seconds, mode = argv[0], int(argv[1]), float(argv[2]), argv[3]
    sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

    begin = time.perf_counter()
    import starkit
    from starkit import corpus
    import workloads
    built = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed)
    ops = workload.ops()
    ready = time.perf_counter()
    result = {
        "setup_s": ready - begin,
        "env": {"python": sys.version.split()[0], "backend": starkit.BACKEND,
                "corpus_version": corpus.CORPUS_VERSION},
    }
    if mode == "setup":
        print(json.dumps(result))
        return 0

    rounds = []
    attempted = failed = 0
    problems = []
    previous = None
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        seconds_taken, outputs, failures = run_round(ops)
        if not rounds:
            # the high-water mark of set-up and one round; later rounds
            # raise it by allocator growth (live memory stays flat), so
            # it would depend on how many rounds the run length allows
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds.append(seconds_taken)
        attempted += len(ops)
        failed += failures
        if previous is not None and outputs != previous:
            problems.append("a round's outputs differ from the round before")
        previous = outputs
    ok_outputs = {k: v for k, v in previous.items()
                  if not isinstance(v, Failed)}
    problems += workload.verify(ok_outputs)
    result.update({
        "verdicts_per_s": attempted / sum(rounds),
        "peak_rss_mb": peak_rss_mb,
        "failures": sorted(k for k, v in previous.items()
                           if isinstance(v, Failed)),
    })

    if mode == "trace":
        import spans
        tracer = spans.install()
        t0 = time.perf_counter()
        traced = workloads.WORKLOADS[name](seed)
        traced_ops = traced.ops()
        traced_setup = time.perf_counter() - t0
        traced_round, outputs, failures = run_round(traced_ops)
        attempted += len(traced_ops)
        failed += failures
        problems += traced.verify({k: v for k, v in outputs.items()
                                   if not isinstance(v, Failed)})
        untraced = (ready - built) + statistics.median(rounds)
        result["layers"] = tracer.metrics(
            traced.cli_bytes, (traced_setup + traced_round) / untraced)

    result.update({"attempted": attempted, "failed": failed,
                   "correct": not problems, "problems": problems})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
