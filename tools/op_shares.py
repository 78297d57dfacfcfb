"""Print each op label's share of a benchmark pass, and the labels that op_ms_p50 and op_ms_p90 fall in.

Usage::

    python tools/op_shares.py <checkout> --workload W [--seed K] [--seconds S]

``<checkout>`` is a source tree of this repository: its ``src/`` is
imported and its ``benchmarks/`` supplies the workload, the op timing and
the pass loop (read only).  The workload runs in this process, as
``benchmarks/run.py --trace 0`` runs it: setup, warmup, then whole passes
for ``S`` seconds.  Its scratch files go to a temporary directory.  For
each op label the tool prints its scaled median latency, its count per
pass and its share of a pass (median times count over the pass's typical
program time), largest share first.  Then, for ``op_ms_p50`` and
``op_ms_p90`` (numpy's linear percentile of all scaled op latencies), it
prints the value and the labels of the two ops, in latency order, between
which the percentile falls.
"""

import argparse
import math
import statistics
import sys
import tempfile
import time
from pathlib import Path


def percentile_ops(labels: list, scaled: list, q: float) -> tuple:
    """``(value_ms, (label, ms), (label, ms))``: the q-th percentile and the two ops it lies between."""
    order = sorted(range(len(scaled)), key=scaled.__getitem__)
    rank = q / 100.0 * (len(order) - 1)
    lo, hi = order[math.floor(rank)], order[math.ceil(rank)]
    value = scaled[lo] + (rank - math.floor(rank)) * (scaled[hi] - scaled[lo])
    return 1e3 * value, (labels[lo], 1e3 * scaled[lo]), (labels[hi], 1e3 * scaled[hi])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    sys.path[:0] = [str(checkout / "src"), str(checkout / "benchmarks")]
    from run import cap_blas_threads, measure  # run.py loads no numpy at import

    cap_blas_threads()
    from workloads import WORKLOADS, Ops

    ops = Ops(time.perf_counter)
    with tempfile.TemporaryDirectory() as workdir:
        wl = WORKLOADS[args.workload](args.seed % 2 ** 31, workdir, ops)
        wl.setup()
        wl.warmup()
        for timings in (ops.labels, ops.latencies, ops.scaled):
            timings.clear()
        passes = measure(wl, ops, args.seconds, wl.min_passes, 0)
        wl.finish()

    n_passes, typical = len(passes.wall), passes.typical()
    print(f"{args.workload}: seed {args.seed}, --seconds {args.seconds:g}, {n_passes} passes, "
          f"{len(ops.scaled)} ops, typical pass {1e3 * typical:.2f} ms scaled, {ops.failed} failed ops")
    print(f"  {'label':28s} {'median ms':>10s} {'per pass':>9s} {'share':>7s}")
    rows = []
    for label, times in passes.by_label.items():
        median, per_pass = statistics.median(times), len(times) / n_passes
        rows.append((median * per_pass / typical, label, median, per_pass))
    for share, label, median, per_pass in sorted(rows, reverse=True):
        print(f"  {label:28s} {1e3 * median:10.3f} {per_pass:9.2f} {100 * share:6.1f} %")
    for name, q in (("op_ms_p50", 50), ("op_ms_p90", 90)):
        value, (lo_label, lo_ms), (hi_label, hi_ms) = percentile_ops(ops.labels, ops.scaled, q)
        print(f"  {name} {value:.3f} ms: between {lo_label} ({lo_ms:.3f} ms) and {hi_label} ({hi_ms:.3f} ms)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
