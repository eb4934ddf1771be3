#!/usr/bin/env python3
"""Records the benchmark's baseline and noise into cmd/benchrec/baseline.json.

Run from the root of the repository:

    python3 cmd/benchrec/record.py                 # 10 seeds per workload + 1 traced run
    python3 cmd/benchrec/record.py --seed0 101 --no-write dense-P1024

For each workload it runs the command BENCHMARK.json declares, untraced, once
per seed, and reports every end-to-end metric's median, quartiles and spread
(q3 - q1 over the median, quartiles as statistics.quantiles(n=4) gives them)
beside the metric's bound; then it runs one traced run at the first seed.
Unless --no-write is given, the host block, the untraced record and the traced
run replace those in baseline.json; the recorded seed-1 digests and the notes
are kept. Exits 1 if any run fails or any spread other than setup_s exceeds
its bound.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BASELINE = os.path.join("cmd", "benchrec", "baseline.json")


def run(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    lines = proc.stdout.strip().splitlines()
    digest = next((l.split()[1] for l in lines if l.startswith("sim_digest")), "")
    summary = json.loads(lines[-1]) if lines else {}
    ok = proc.returncode == 0 and summary.get("correct") is True
    return ok, wall, digest, summary


def host():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    go = subprocess.run(["go", "version"], stdout=subprocess.PIPE, text=True).stdout.strip()
    return {"cpu": cpu, "nproc": os.cpu_count(), "go": go, "gomaxprocs": os.cpu_count(),
            "os": platform.platform()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--no-traced", action="store_true")
    ap.add_argument("--no-write", action="store_true")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    untraced, traced, bad = {}, {}, False
    for w in names:
        values, walls, first_digest = {m: [] for m in bounds}, [], ""
        seeds = list(range(args.seed0, args.seed0 + args.runs))
        for seed in seeds:
            ok, wall, digest, summary = run(bench, w, seed, 0)
            walls.append(round(wall, 1))
            if not ok:
                print(f"{w} seed {seed}: run failed: {summary}", file=sys.stderr)
                bad = True
                continue
            for m in bounds:
                values[m].append(summary["metrics"][m]["value"])
            if seed == args.seed0:
                first_digest = digest
        rec = {"seeds": seeds, "sim_digest": first_digest, "run_wall_s": walls, "metrics": {}}
        for m, v in values.items():
            if len(v) < 2:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            rec["metrics"][m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                 "bound": bounds[m], "values": v}
            flag = "" if spread < bounds[m] / 3 else (" > bound/3" if spread < bounds[m] else " > BOUND")
            if m != "setup_s" and spread >= bounds[m]:
                bad = True
            print(f"{w:14} {m:12} median {med:12.6g}  spread {spread:6.3f}  bound {bounds[m]}{flag}",
                  file=sys.stderr)
        print(f"{w:14} run wall s: {walls}", file=sys.stderr)
        untraced[w] = rec
        if not args.no_traced:
            ok, wall, digest, summary = run(bench, w, args.seed0, 1)
            if not ok:
                print(f"{w} traced: run failed: {summary}", file=sys.stderr)
                bad = True
            traced[w] = {"seed": args.seed0, "run_wall_s": round(wall, 1), "sim_digest": digest,
                         "metrics": {k: v["value"] for k, v in summary.get("metrics", {}).items()}}

    if not args.no_write:
        with open(BASELINE) as f:
            base = json.load(f)
        base["host"] = host()
        base["run_seconds"] = bench["run_seconds"]
        base.setdefault("untraced", {}).update(untraced)
        base.setdefault("traced", {}).update(traced)
        with open(BASELINE, "w") as f:
            json.dump(base, f, indent=2)
            f.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
