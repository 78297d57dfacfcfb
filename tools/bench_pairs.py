"""Run the benchmark in two checkouts in alternating pairs and compare their end-to-end metrics.

Usage::

    python tools/bench_pairs.py --parent DIR --change DIR --workload W --pairs N --seconds S [--seed K]

Pair i runs ``python3 benchmarks/run.py --workload W --seed K+i
--seconds S --trace 0`` once in each checkout, one process at a time,
the parent first in even pairs and the change first in odd ones.  Each
run's last line of output is its JSON result.  For every end-to-end
metric named in the change's ``BENCHMARK.json`` it prints each side's
median and quartiles (``statistics.quantiles``, exclusive method), how
many pairs the change won, and whether the gain rule holds: the change
wins at least 9 pairs in 10 and its median is better than the parent's
by more than the parent's interquartile range.  It also prints each
side's failed share of ops.  The tool only reads the two checkouts; the
benchmark itself writes its scratch folders inside each one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def compare(parent: list, change: list, better: str) -> dict:
    """Medians, quartiles, the change's wins and the gain rule for one metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gain = sign * (pm - cm)  # > 0 when the change's median is better
    return {"parent": (pm, p1, p3), "change": (cm, c1, c3), "wins": wins, "pairs": len(parent),
            "rel": (cm - pm) / pm if pm else float("nan"),
            "holds": wins >= 0.9 * len(parent) and gain > p3 - p1}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the checkout compared against")
    ap.add_argument("--change", required=True, type=Path, help="the checkout whose gain is measured")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1, help="the seed of the first pair; pair i runs seed + i")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    results = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in sorted(sides, reverse=i % 2 == 1):  # "change" < "parent": the parent first in even pairs
            results[side].append(run_once(sides[side], args.workload, args.seed + i, args.seconds))
        print(f"# pair {i + 1}/{args.pairs} done (seed {args.seed + i})", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seeds {args.seed}-{args.seed + args.pairs - 1}")
    for metric in spec["end_to_end"]:
        name = metric["name"]
        got = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        c = compare(got["parent"], got["change"], metric["better"])
        (pm, p1, p3), (cm, c1, c3) = c["parent"], c["change"]
        print(f"  {name:12s} parent {pm:9.4g} [{p1:.4g}, {p3:.4g}]  change {cm:9.4g} [{c1:.4g}, {c3:.4g}]"
              f"  {100 * c['rel']:+6.1f} %  change better in {c['wins']}/{c['pairs']}"
              f"  gain rule {'holds' if c['holds'] else 'does not hold'}")
    for side in sides:
        failed = sum(r["failed"] for r in results[side])
        attempted = sum(r["attempted"] for r in results[side])
        print(f"  {side} failed ops: {failed}/{attempted}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
