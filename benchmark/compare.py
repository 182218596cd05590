#!/usr/bin/env python3
"""Compare two sets of benchmark runs written by runset.py.

    python3 benchmark/compare.py <runA.json> <runB.json>

A is the base (the parent commit, or the first of two sets of one commit)
and B the candidate. For every workload and end-to-end metric it prints
both medians, the ratio B/A with its base, each side's spread (distance
between the quartiles as a share of the median) and a verdict read off
the metric's bound in BENCHMARK.json:

    regressed   B's median is worse than A's by more than the bound
    unresolved  not regressed, but a side's spread is wider than the
                bound, so "no change" cannot be claimed either
                (setup_s is judged on its medians alone)
    ok          otherwise

It also prints failed / attempted operations per workload. The exit code
is non-zero when a metric regressed or B's failed share is higher.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def failed_share(runs):
    return sum(r["failed"] for r in runs) / max(1, sum(r["attempted"] for r in runs))


def main():
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    with open(sys.argv[1]) as f:
        a = json.load(f)
    with open(sys.argv[2]) as f:
        b = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    print(f"A: {sys.argv[1]}  {a['host']}")
    print(f"B: {sys.argv[2]}  {b['host']}")
    print(f"{'workload':14} {'metric':14} {'median A':>12} {'median B':>12} "
          f"{'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    bad = False
    for w in (w["name"] for w in spec["workloads"]):
        ra, rb = a["workloads"].get(w), b["workloads"].get(w)
        if not ra or not rb:
            print(f"{w:14} missing from {'A' if not ra else 'B'}")
            bad = True
            continue
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in ra]
            vb = [r["metrics"][name]["value"] for r in rb]
            ma, mb = statistics.median(va), statistics.median(vb)
            sa, sb = spread(va), spread(vb)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            if worse > bound:
                verdict = "regressed"
                bad = True
            elif name != "setup_s" and max(sa, sb) > bound:
                verdict = "unresolved"
            else:
                verdict = "ok"
            print(f"{w:14} {name:14} {ma:12.6g} {mb:12.6g} {mb / ma:7.3f} "
                  f"{sa:9.2%} {sb:9.2%} {bound:6.0%}  {verdict} (base A = {ma:.6g} {m['unit']})")
        fa, fb = failed_share(ra), failed_share(rb)
        verdict = "ok" if fb <= fa else "regressed"
        bad |= fb > fa
        print(f"{w:14} {'failed_share':14} {fa:12.6g} {fb:12.6g} {'':7} {'':9} {'':9} {'0%':>6}  {verdict}")
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
