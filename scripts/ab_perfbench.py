#!/usr/bin/env python3
"""Paired A/B of the scenario benchmark between two checkouts.

Usage (from anywhere):

    scripts/ab_perfbench.py --parent <checkout> --change <checkout> \\
        --workload multiregion_blackout [--workload ...] \\
        [--pairs 10] [--seed 2026] [--seconds 20] [--json out.json]

`--parent` and `--change` are two checkouts of the repository, for
example made with `git worktree add ../parent HEAD~1`.  Each pair runs
`perfbench/run.py` once in each checkout with identical arguments
(tracing off), alternating which side goes first, so drift in the
host's speed lands on both sides.  The first invocation per side and
workload builds that side's benchmark and is not counted.  Nothing
under perfbench/ is modified.

For every end-to-end metric of BENCHMARK.json the report gives each
side's median and quartiles, the change's win count over the pairs
(ties count for neither side) and the verdict of the paired rule:
a gain is claimed only when at least 10 pairs ran, the change won at
least 9 of every 10 of them and the medians differ by more than the
parent's interquartile range.  Each run's sim_digest is compared
across sides; a mismatch is reported, and the exit status is nonzero
if any run failed or any digest differed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_metrics():
    """End-to-end metric specs ({name, better, ...}) from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)["end_to_end"]


def run_once(checkout, workload, seed, seconds):
    """One perfbench run; returns (metrics {name: value}, sim_digest)."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    if proc.returncode:
        raise RuntimeError("%s: run.py exited %d"
                           % (checkout, proc.returncode))
    lines = proc.stdout.rstrip("\n").split("\n")
    digest = next((ln.split()[1] for ln in lines
                   if ln.startswith("sim_digest ")), None)
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError("%s: benchmark checks failed" % checkout)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    return values, digest


def quartiles(xs):
    """(q1, median, q3) by the inclusive method."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def verdict(parent, change, better):
    """Win count and the paired-rule verdict for one metric."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    pq1, pmed, pq3 = quartiles(parent)
    _, cmed, _ = quartiles(change)
    gain = (len(parent) >= 10 and 10 * wins >= 9 * len(parent)
            and sign * (cmed - pmed) > pq3 - pq1)
    return wins, losses, gain


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="parent checkout")
    ap.add_argument("--change", required=True, help="change checkout")
    ap.add_argument("--workload", required=True, action="append",
                    help="perfbench workload (repeatable)")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--json", help="also write the raw runs and summary here")
    args = ap.parse_args()
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    sides = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}
    specs = load_metrics()

    ok = True
    report = {"pairs": args.pairs, "seed": args.seed,
              "seconds": args.seconds, "nproc": os.cpu_count(),
              "workloads": {}}
    for wl in args.workload:
        for path in sides.values():  # build pass, not counted
            run_once(path, wl, args.seed, 1)
        runs = {"parent": [], "change": []}
        digests = {"parent": [], "change": []}
        for i in range(args.pairs):
            order = (("parent", "change") if i % 2 == 0
                     else ("change", "parent"))
            for side in order:
                values, digest = run_once(sides[side], wl, args.seed,
                                          args.seconds)
                runs[side].append(values)
                digests[side].append(digest)
            print("%s pair %d/%d: %s" % (
                wl, i + 1, args.pairs, "  ".join(
                    "%s %s=%.4g" % (s, m["name"], runs[s][-1][m["name"]])
                    for s in ("parent", "change") for m in specs[:1])),
                file=sys.stderr)
        same = digests["parent"] == digests["change"]
        ok = ok and same
        rows = {}
        print("\n== %s: %d pairs, seed %d, %d s, nproc %s; sim_digest %s" % (
            wl, args.pairs, args.seed, args.seconds, os.cpu_count(),
            "identical (%s)" % digests["parent"][0] if same else "DIFFERS"))
        print("  %-22s %-30s %-30s %-6s %s" % (
            "metric", "parent median [q1, q3]", "change median [q1, q3]",
            "wins", "verdict"))
        for m in specs:
            name = m["name"]
            p = [r[name] for r in runs["parent"] if name in r]
            c = [r[name] for r in runs["change"] if name in r]
            if len(p) != args.pairs or len(c) != args.pairs:
                continue
            wins, losses, gain = verdict(p, c, m["better"])
            pq = quartiles(p)
            cq = quartiles(c)
            print("  %-22s %-30s %-30s %-6s %s" % (
                name, "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                "%d/%d" % (wins, args.pairs),
                "gain" if gain else "no claim (%d losses)" % losses))
            rows[name] = {"parent": p, "change": c, "wins": wins,
                          "losses": losses, "gain": gain,
                          "parent_quartiles": pq, "change_quartiles": cq}
        report["workloads"][wl] = {"metrics": rows, "digests": digests}
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except RuntimeError as exc:
        sys.exit("ab_perfbench: %s" % exc)
