#!/usr/bin/env python3
"""Run one set of the benchmark: every workload once per seed.

    python3 benchmark/runset.py --out runA.json [--seeds 10] [--first-seed 1]
                                [--workload NAME ...]

Reads the command, the run length and the bounds from BENCHMARK.json at
the root of the repository, runs `<command> --workload W --seed S
--seconds N --trace 0` from there for each workload and seed, and writes
every result line to --out together with the host. Prints, per workload
and end-to-end metric, the median over the seeds and the spread: the
distance between the first and third quartile as a share of the median.
A spread above a third of the metric's bound is marked `wide`, above the
bound `too wide` (setup_s is exempt: only its median is gated).

Exits non-zero when a run fails, reports wrong outputs, or a spread is
too wide. compare.py takes two files written by this script.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def host():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "machine": platform.machine(),
        "commit": commit.stdout.strip() or "not a git checkout",
    }


def run_one(spec, workload, seed, trace=0):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.time()
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {p.returncode}")
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["wall_s"] = round(time.time() - t0, 2)
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    if args.seeds < 2:
        raise SystemExit("a spread needs at least two seeds")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    out = {"host": host(), "run_seconds": spec["run_seconds"], "workloads": {}}
    bad = False
    for w in workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            r = run_one(spec, w, seed)
            runs.append(r)
            print(f"{w} seed {seed}: {r['wall_s']} s, correct={r['correct']}, "
                  f"failed {r['failed']} of {r['attempted']}", flush=True)
            bad |= not r["correct"] or r["failed"] > 0
        out["workloads"][w] = runs
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            s = spread(values)
            gated = name != "setup_s"
            mark = "too wide" if gated and s > bound else "wide" if gated and s > bound / 3 else ""
            bad |= mark == "too wide"
            print(f"  {name:14} median {statistics.median(values):14.6g} "
                  f"spread {s:7.2%} of bound {bound:.0%} {mark}", flush=True)
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
    print(f"wrote {args.out}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
