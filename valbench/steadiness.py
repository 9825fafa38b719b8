#!/usr/bin/env python3
"""Runs the benchmark once per seed on each workload and reports, per
end-to-end metric, the median, the quartiles and the spread (Q3 - Q1 as a
share of the median, quartiles as `statistics.quantiles(values, n=4)`
gives them) next to the metric's declared bound.

Run from the repository root:

    python3 valbench/steadiness.py --workloads batch-narrow,serve-tcp --seeds 1-5
    python3 valbench/steadiness.py --seeds 11-20 --log runs.jsonl

Every result line is appended to `--log` (JSON lines), so a table can be
re-printed later with `--from-log` without running anything.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=900)
    wall = time.time() - started
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2]) if len(lines) > 1 else {}
    return {"workload": workload, "seed": seed, "wall_s": wall,
            "result": result, "record": record.get("run", {})}


def table(bench, rows):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = sorted({r["workload"] for r in rows},
                       key=[w["name"] for w in bench["workloads"]].index)
    print("| workload | metric | runs | median | Q1 | Q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|---|")
    for w in workloads:
        runs = [r for r in rows if r["workload"] == w]
        for name in bounds:
            vals = [r["result"]["metrics"][name]["value"] for r in runs]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"| {w} | {name} | {len(vals)} | {statistics.median(vals):.4g} | "
                  f"{q1:.4g} | {q3:.4g} | {spread:.3f} | {bounds[name]} |")
        fails = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
        walls = [r["wall_s"] for r in runs]
        if walls:
            print(f"| {w} | (failed, attempted) | {sorted(fails)} | wall {statistics.median(walls):.1f} s | | | | |")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log", default=".bench_work/steadiness.jsonl")
    ap.add_argument("--from-log", action="store_true")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    rows = []
    if args.from_log:
        with open(args.log) as f:
            rows = [json.loads(line) for line in f if line.strip()]
        rows = [r for r in rows if r["workload"] in names]
    else:
        os.makedirs(os.path.dirname(args.log) or ".", exist_ok=True)
        for w in names:
            for s in seeds(args.seeds):
                r = run(bench, w, s)
                with open(args.log, "a") as f:
                    f.write(json.dumps(r) + "\n")
                rows.append(r)
                print(f"{w} seed {s}: {r['wall_s']:.1f} s, failed {r['result']['failed']}"
                      f"/{r['result']['attempted']}", file=sys.stderr)
    table(bench, rows)


if __name__ == "__main__":
    main()
