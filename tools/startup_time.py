"""Time one-shot startup of this checkout against another, in fresh interpreters.

Usage::

    python tools/startup_time.py <other-checkout> [--pairs 15]

For each probe, every pair runs this checkout and ``<other-checkout>``
once each, in alternating order, each in a new interpreter with its own
``src/`` on ``PYTHONPATH``.  The probes are the import
``import numpy, optbench, optbench.bench.cli`` (timed inside the
interpreter) and ``python -m optbench.bench.cli run`` on the canonical
``gd`` and ``zo_sgd`` configs of this checkout's ``benchmarks/catalog.py``
(seed 1; timed from outside, interpreter start-up included).  It prints
each side's median, the median paired gap and how many pairs this
checkout was faster.  Bytecode caching follows the environment
(``PYTHONDONTWRITEBYTECODE``); set it the same way as the runs compared.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CANON = ("gd-degenerate3", "zo_sgd-quad_diag")
IMPORT = ("import time; t = time.perf_counter(); import numpy, optbench, optbench.bench.cli; "
          "print(time.perf_counter() - t)")


def seconds(checkout: str, argv: list) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    t = time.perf_counter()
    out = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, check=True).stdout
    return float(out) if argv[0] == "-c" else time.perf_counter() - t


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", help="the checkout to compare against")
    ap.add_argument("--pairs", type=int, default=15)
    args = ap.parse_args(argv)
    sys.path[:0] = [os.path.join(HERE, "src"), os.path.join(HERE, "benchmarks")]
    from catalog import make_configs
    from optbench.core import make_problem

    sides = {"this": HERE, "other": os.path.abspath(args.other)}
    with tempfile.TemporaryDirectory() as tmp:
        probes = {"import": ["-c", IMPORT]}
        for canon in make_configs(1, make_problem):
            if canon.key in CANON:
                path = os.path.join(tmp, canon.key + ".json")
                with open(path, "w") as fh:
                    json.dump(dict(canon.doc, iterations=canon.iterations), fh)
                probes[f"run {canon.key}"] = ["-m", "optbench.bench.cli", "run", "--config", path]
        times = {(probe, side): [] for probe in probes for side in sides}
        for i in range(args.pairs):
            for probe, probe_argv in probes.items():
                for side in sorted(sides, reverse=i % 2 == 1):
                    times[probe, side].append(seconds(sides[side], probe_argv))
    for probe in probes:
        this, other = times[probe, "this"], times[probe, "other"]
        gap = statistics.median(a - b for a, b in zip(this, other))
        wins = sum(a < b for a, b in zip(this, other))
        print(f"{probe:24s} this {1e3 * statistics.median(this):7.1f} ms"
              f"  other {1e3 * statistics.median(other):7.1f} ms"
              f"  gap {1e3 * gap:+7.1f} ms  this faster in {wins}/{args.pairs}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
