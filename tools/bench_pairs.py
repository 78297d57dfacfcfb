"""Run the benchmark in two checkouts in alternating pairs and compare their end-to-end metrics.

Usage::

    python tools/bench_pairs.py --parent DIR --change DIR --workload W [W ...] --pairs N --seconds S
        [--seed K] [--out FILE]

For each workload in turn, pair i runs ``python3 benchmarks/run.py
--workload W --seed K+i --seconds S --trace 0`` once in each checkout,
one process at a time, the parent first in even pairs and the change
first in odd ones.  Each run's last line of output is its JSON result.
For every end-to-end metric named in the change's ``BENCHMARK.json`` it
prints each side's median and quartiles (``statistics.quantiles``,
exclusive method), how many pairs the change won, whether the gain rule
holds (the change wins at least 9 pairs in 10 and its median is better
than the parent's by more than the parent's interquartile range), and
the metric's verdict against its bound: ``unresolved`` when the parent's
interquartile range, relative to its median, exceeds the bound and not
every change run is better than every parent run, else ``worse than
bound`` when the change's median is worse by more than the bound, else
``within bound``.  It also prints each side's failed share of ops.  With
``--out FILE`` it writes the same as JSON, with each run's value,
together with the seeds, ``--seconds``, each checkout's commit (and
whether its tracked files differ from it) and the host's ``# env`` lines
from the first run.  The tool only reads the two checkouts; the
benchmark itself writes its scratch folders inside each one.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple:
    """The run's JSON result, and its ``# env`` lines as a dict (the load averages left out)."""
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    lines = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=True).stdout.strip().splitlines()
    env = dict(ln[len("# env "):].split(": ", 1) for ln in lines if ln.startswith("# env "))
    return json.loads(lines[-1]), {k: v for k, v in env.items() if not k.startswith("loadavg")}


def commit_of(checkout: Path) -> dict:
    """The checkout's HEAD commit and whether its tracked files differ from it."""
    def git(*argv):
        return subprocess.run(["git", *argv], cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()
    return {"commit": git("rev-parse", "HEAD"), "modified": bool(git("status", "--porcelain", "--untracked-files=no"))}


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
    return {"parent": {"median": pm, "q1": p1, "q3": p3}, "change": {"median": cm, "q1": c1, "q3": c3},
            "values": {"parent": parent, "change": change}, "wins": wins, "pairs": len(parent),
            "rel": (cm - pm) / pm if pm else float("nan"),
            "holds": wins >= 0.9 * len(parent) and gain > p3 - p1}


def verdict(c: dict, bound: float, better: str) -> str:
    """The change's median in ``compare``'s ``c`` against the metric's relative bound, or ``unresolved``.

    ``unresolved``: the parent's runs spread wider than the bound, and not every change run is better than every
    parent run.
    """
    sign = 1.0 if better == "lower" else -1.0
    pm, p1, p3 = (c["parent"][k] for k in ("median", "q1", "q3"))
    all_better = max(sign * v for v in c["values"]["change"]) < min(sign * v for v in c["values"]["parent"])
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved"
    return "worse than bound" if sign * c["rel"] > bound else "within bound"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path, help="the checkout compared against")
    ap.add_argument("--change", required=True, type=Path, help="the checkout whose gain is measured")
    ap.add_argument("--workload", required=True, nargs="+", help="one or more workloads, run in turn")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--seed", type=int, default=1, help="the seed of the first pair; pair i runs seed + i")
    ap.add_argument("--out", type=Path, help="also write the comparison as JSON to this file")
    args = ap.parse_args(argv)
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((sides["change"] / "BENCHMARK.json").read_text())
    seeds = list(range(args.seed, args.seed + args.pairs))
    doc = {"seeds": seeds, "seconds": args.seconds, "pairs": args.pairs,
           "commits": {side: commit_of(path) for side, path in sides.items()}, "host": None, "workloads": {}}
    for workload in args.workload:
        results = {side: [] for side in sides}
        for i, seed in enumerate(seeds):
            for side in sorted(sides, reverse=i % 2 == 1):  # "change" < "parent": the parent first in even pairs
                result, env = run_once(sides[side], workload, seed, args.seconds)
                results[side].append(result)
                doc["host"] = doc["host"] or env
            print(f"# {workload} pair {i + 1}/{args.pairs} done (seed {seed})", file=sys.stderr, flush=True)

        out = doc["workloads"][workload] = {"metrics": {}, "failed": {}, "attempted": {}}
        print(f"{workload}: {args.pairs} pairs, --seconds {args.seconds:g}, seeds {seeds[0]}-{seeds[-1]}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            got = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
            c = compare(got["parent"], got["change"], metric["better"])
            c["verdict"] = verdict(c, metric["bound"], metric["better"])
            out["metrics"][name] = c
            (pm, p1, p3), (cm, c1, c3) = [[c[side][k] for k in ("median", "q1", "q3")] for side in sides]
            print(f"  {name:12s} parent {pm:9.4g} [{p1:.4g}, {p3:.4g}]  change {cm:9.4g} [{c1:.4g}, {c3:.4g}]"
                  f"  {100 * c['rel']:+6.1f} %  change better in {c['wins']}/{c['pairs']}"
                  f"  gain rule {'holds' if c['holds'] else 'does not hold'}"
                  f"  {c['verdict']} ({100 * metric['bound']:g} %)")
        for side in sides:
            out["failed"][side] = sum(r["failed"] for r in results[side])
            out["attempted"][side] = sum(r["attempted"] for r in results[side])
            print(f"  {side} failed ops: {out['failed'][side]}/{out['attempted'][side]}")
    if args.out:
        args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
