#!/usr/bin/env python3
"""Render a markdown table from bench JSON reports.

Usage: bench_diff.py [--threshold PCT] <baseline.json> <fresh.json>
       bench_diff.py <report.json>

Reads the two report shapes still written: bench_scale's `scenarios`
and bench_parallel's `runs`.

With two reports, prints wall-clock and total-op deltas per scenario —
meant for $GITHUB_STEP_SUMMARY in the non-gating quick-bench and
scale-smoke CI jobs, but works anywhere. `--threshold PCT` (default off) flags any
scenario whose wall clock regressed by more than PCT percent with a
warning marker and a trailing summary line; the exit code stays 0
either way — the table is a trend report, not a gate.

With one report (e.g. BENCH_scale.json from the scale-smoke lane, which
has no committed baseline), prints the scenarios of that report alone,
plus peak RSS when the report carries it.
"""
import json
import sys


def pct(base, new):
    if not base:
        return "n/a"
    return f"{(new - base) / base * 100.0:+.1f}%"


def scenarios_of(report):
    """Scenario table of a report: bench_scale's `scenarios`, or
    bench_parallel's `runs` (whose entries carry wall_ms but no ops)."""
    return report.get("scenarios") or report.get("runs") or {}


def render_single(path):
    with open(path) as f:
        report = json.load(f)
    print(f"### Bench report: {path}")
    print()
    peak = report.get("peak_rss_bytes")
    if peak:
        print(f"Peak RSS: {peak / (1024.0 * 1024.0):.1f} MiB")
        print()
    print("| scenario | wall_ms | ops | detail |")
    print("|---|---|---|---|")
    for name, s in scenarios_of(report).items():
        detail = ", ".join(
            f"{k}={v}"
            for k, v in s.items()
            if k not in ("wall_ms", "ops") and not isinstance(v, (dict, list))
        )
        print(f"| {name} | {s['wall_ms']:.1f} | {s.get('ops', '')} | {detail} |")


def render_diff(base_path, fresh_path, threshold):
    with open(base_path) as f:
        base = scenarios_of(json.load(f))
    with open(fresh_path) as f:
        fresh = scenarios_of(json.load(f))

    print(f"### Bench diff: {fresh_path} vs committed {base_path}")
    print()
    print("| scenario | wall_ms | Δwall | ops | Δops |")
    print("|---|---|---|---|---|")
    regressions = []
    for name, b in base.items():
        n = fresh.get(name)
        if n is None:
            print(f"| {name} | {b['wall_ms']:.1f} → gone | | | |")
            continue
        mark = ""
        if (
            threshold is not None
            and b["wall_ms"]
            and (n["wall_ms"] - b["wall_ms"]) / b["wall_ms"] * 100.0 > threshold
        ):
            mark = " ⚠️"
            regressions.append((name, b["wall_ms"], n["wall_ms"]))
        print(
            f"| {name}{mark} "
            f"| {b['wall_ms']:.1f} → {n['wall_ms']:.1f} | {pct(b['wall_ms'], n['wall_ms'])} "
            f"| {b.get('ops', 0)} → {n.get('ops', 0)} | {pct(b.get('ops', 0), n.get('ops', 0))} |"
        )
    for name in fresh:
        if name not in base:
            print(
                f"| {name} (new) | {fresh[name]['wall_ms']:.1f} | "
                f"| {fresh[name].get('ops', 0)} | |"
            )
    if threshold is not None:
        print()
        if regressions:
            rows = ", ".join(
                f"{name} ({b:.0f}ms → {n:.0f}ms)" for name, b, n in regressions
            )
            print(
                f"⚠️ **{len(regressions)} scenario(s) regressed more than "
                f"{threshold:.0f}% wall clock**: {rows} — non-gating, but worth a look."
            )
        else:
            print(f"No scenario regressed more than {threshold:.0f}% wall clock.")


def main():
    args = sys.argv[1:]
    threshold = None
    if "--threshold" in args:
        i = args.index("--threshold")
        try:
            threshold = float(args[i + 1])
        except (IndexError, ValueError):
            print("--threshold needs a numeric percent", file=sys.stderr)
            sys.exit(2)
        del args[i : i + 2]
    if len(args) == 1:
        render_single(args[0])
        return
    if len(args) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return
    render_diff(args[0], args[1], threshold)


if __name__ == "__main__":
    main()
