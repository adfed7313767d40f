"""Run two checkouts side by side and compare the two sets of runs.

    python3 perfbench/compare.py pair ROOT_A ROOT_B --out-a A.jsonl
                                      --out-b B.jsonl [--seeds 1-10]
                                      [--trace 0|1]
    python3 perfbench/compare.py summary A.jsonl
    python3 perfbench/compare.py diff A.jsonl B.jsonl

`pair` runs each checkout's own perfbench/run.py for every workload in
BENCHMARK.json and every seed, with the run length from BENCHMARK.json,
the two checkouts one right after the other; which goes first
alternates from one (workload, seed) to the next.  A drift of the
machine's speed then falls on both sides of a pair alike.  For two
sets of one commit, give the same root twice or two copies of it.

`summary` prints, per workload and end-to-end metric, the median, the
quartiles and the spread (quartile distance over the median).  `diff`
prints the same for both sets, the share of paired runs (same seed)
that the second set won, and a verdict from the pairs: the change of a
pair is (B - A) / A, signed so that positive is better, and

  within bound    the median change is not worse than -bound
  worse / better  the median change is beyond the bound
  unresolved      the changes' quartile distance is wider than the
                  bound, and the pairs do not all go one way

It also lists, for traced runs of the same seed, every per-layer count
that differs between the sets (counts must repeat exactly).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import load_spec


def load(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def seeds_arg(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_pair(args) -> int:
    spec = load_spec()
    sides = [("A", os.path.abspath(args.root_a), os.path.abspath(args.out_a)),
             ("B", os.path.abspath(args.root_b), os.path.abspath(args.out_b))]
    status = 0
    turn = 0
    for workload in spec["workloads"]:
        for seed in seeds_arg(args.seeds):
            for label, root, out in sides[::-1] if turn % 2 else sides:
                cmd = [sys.executable, os.path.join("perfbench", "run.py"),
                       "--workload", workload["name"], "--seed", str(seed),
                       "--seconds", str(spec["run_seconds"]),
                       "--trace", str(args.trace), "--out", out]
                proc = subprocess.run(cmd, capture_output=True, text=True,
                                      cwd=root)
                last = proc.stdout.strip().splitlines()[-1:] or [proc.stderr]
                print(f"{label} {workload['name']} seed {seed}: "
                      f"{last[0].strip()}", flush=True)
                status = status or proc.returncode
            turn += 1
    return status


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med


def by_metric(records: list) -> dict:
    """(workload, metric) -> {seed: value}, untraced runs only."""
    out: dict = {}
    for rec in records:
        if rec["trace"]:
            continue
        for metric, entry in rec["result"]["metrics"].items():
            out.setdefault((rec["workload"], metric), {})[rec["seed"]] = \
                entry["value"]
    return out


def failed_share(records: list) -> dict:
    out: dict = {}
    for rec in records:
        a, f = out.get(rec["workload"], (0, 0))
        out[rec["workload"]] = (a + rec["result"]["attempted"],
                                f + rec["result"]["failed"])
    return out


def fmt(values: list) -> str:
    q1, med, q3 = quartiles(values)
    return (f"median {med:.6g} [{q1:.6g}, {q3:.6g}] spread "
            f"{spread(values):.3f} (n={len(values)})")


def cmd_summary(args) -> int:
    spec = load_spec()
    records = load(args.a)
    data = by_metric(records)
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            values = list(data.get((w["name"], m["name"]), {}).values())
            if values:
                flag = "" if spread(values) <= m["bound"] else "  > bound"
                print(f"{w['name']:15s} {m['name']:15s} {fmt(values)}{flag}")
        attempted, failed = failed_share(records).get(w["name"], (0, 0))
        if attempted:
            print(f"{w['name']:15s} failed {failed}/{attempted}")
    return 0


def verdict(changes: list, bound: float) -> str:
    """The verdict on paired changes, each signed so that > 0 is better."""
    q1, med, q3 = quartiles(changes)
    if q3 - q1 > bound:
        if all(c > 0 for c in changes):
            return "better (every pair)"
        if all(c < 0 for c in changes):
            return "worse (every pair)"
        return "unresolved"
    if -med > bound:
        return f"worse by {-med:.3f}"
    if med > bound:
        return f"better by {med:.3f}"
    return f"within bound ({med:+.3f})"


def cmd_diff(args) -> int:
    spec = load_spec()
    ra, rb = load(args.a), load(args.b)
    da, db = by_metric(ra), by_metric(rb)
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            key = (w["name"], m["name"])
            if key not in da or key not in db:
                continue
            a, b = da[key], db[key]
            sign = 1 if m["better"] == "higher" else -1
            seeds = sorted(set(a) & set(b))
            changes = [sign * (b[s] - a[s]) / a[s] for s in seeds]
            won = sum(c > 0 for c in changes)
            q1, med, q3 = quartiles(changes)
            print(f"{w['name']} {m['name']} (bound {m['bound']})")
            print(f"  A {fmt(list(a.values()))}")
            print(f"  B {fmt(list(b.values()))}")
            print(f"  B won {won}/{len(seeds)} paired runs; change "
                  f"{med:+.3f} [{q1:+.3f}, {q3:+.3f}]; "
                  f"{verdict(changes, m['bound'])}")
        fa = failed_share(ra).get(w["name"])
        fb = failed_share(rb).get(w["name"])
        if fa and fb:
            same = fa[1] * fb[0] == fb[1] * fa[0]
            print(f"  failed A {fa[1]}/{fa[0]}, B {fb[1]}/{fb[0]}"
                  f"{'' if same else '  (shares differ)'}")
    traced_a = {(r["workload"], r["seed"]): r for r in ra if r["trace"]}
    for rec in rb:
        other = traced_a.get((rec["workload"], rec["seed"]))
        if not rec["trace"] or other is None:
            continue
        ma, mb = other["result"]["metrics"], rec["result"]["metrics"]
        moved = [k for k, v in mb.items()
                 if v["unit"] == "count" and ma[k]["value"] != v["value"]]
        same = "identical" if not moved else "differ in " + ", ".join(moved)
        print(f"{rec['workload']} seed {rec['seed']} traced counts: {same}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pair")
    p.add_argument("root_a")
    p.add_argument("root_b")
    p.add_argument("--out-a", required=True)
    p.add_argument("--out-b", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.set_defaults(func=cmd_pair)
    p = sub.add_parser("summary")
    p.add_argument("a")
    p.set_defaults(func=cmd_summary)
    p = sub.add_parser("diff")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=cmd_diff)
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
