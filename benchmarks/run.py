"""optbench benchmark: one closed-loop workload per invocation.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the program is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The lines before it (prefixed ``#``) repeat the
metrics with units and sample counts and record the environment.  See
``benchmarks/NOTES.md`` for the workloads, metrics and predictions.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("catalog_run", "catalog_compare", "mc_sgd", "zo_kernel")
IMPORT_REPS, SETUP_REPS = 5, 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
IMPORT_PROBE = ("import time\nt = time.perf_counter()\nimport numpy, optbench, optbench.bench.cli\n"
                "t = time.perf_counter() - t\nimport reference\nprint(t, reference.host_speed())\n")


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cap_blas_threads() -> dict:
    """Cap BLAS thread pools of this process at nproc (set before numpy loads)."""
    n = _nproc()
    for var in BLAS_VARS:
        try:
            current = int(os.environ.get(var, n))
        except ValueError:
            current = n
        os.environ[var] = str(max(1, min(current, n)))
    return {var: os.environ[var] for var in BLAS_VARS}


def import_seconds() -> float:
    """Median import time of numpy + optbench in fresh interpreters, scaled to the reference host.

    Each interpreter times the reference loop itself right after the import,
    on the same CPU and at the same moment.
    """
    from reference import REF_NOMINAL_S
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]))
    times = []
    for _ in range(IMPORT_REPS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"importing optbench failed: {proc.stderr.strip()}")
        seconds, ref = map(float, proc.stdout.split())
        times.append(seconds * REF_NOMINAL_S / ref)
    return statistics.median(times)


class Passes:
    """Per pass: wall time, and program time (sum of the op latencies) raw and scaled.

    ``typical`` is the pass's program time estimated robustly: for each kind
    of op, the median of its scaled latencies over all passes, times how
    often it occurs in a pass.
    """

    def __init__(self):
        self.wall, self.program, self.scaled = [], [], []
        self.by_label = {}

    def typical(self) -> float:
        n = len(self.wall)
        return sum(statistics.median(v) * len(v) / n for v in self.by_label.values())


def measure(wl, ops, seconds, min_passes, first_pass) -> Passes:
    """Run whole passes until ``seconds`` elapsed and ``min_passes`` completed."""
    clock = time.perf_counter
    out, p = Passes(), first_pass
    end = clock() + seconds
    while True:
        n0 = len(ops.latencies)
        t0 = clock()
        wl.run_pass(p)
        out.wall.append(clock() - t0)
        out.program.append(sum(ops.latencies[n0:]))
        out.scaled.append(sum(ops.scaled[n0:]))
        for label, t in zip(ops.labels[n0:], ops.scaled[n0:]):
            out.by_label.setdefault(label, []).append(t)
        p += 1
        if clock() >= end and len(out.wall) >= min_passes:
            return out


def percentile(values, q):
    import numpy as np  # numpy loads only after cap_blas_threads()
    return float(np.percentile(values, q))


def defect_probe(workdir, call_cli) -> float:
    """The known noise-bound defect: 1 while gd_rel_adaptive with tol 0 raises, else 0."""
    path = os.path.join(workdir, "defect.json")
    with open(path, "w") as fh:
        json.dump({"problem": "quad_diag",
                   "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"},
                   "method": {"name": "gd_rel_adaptive", "params": {"tol": 0}},
                   "iterations": 1500}, fh)
    code, _, err = call_cli(["run", "--config", path])
    return 1.0 if code != 0 and "AssertionError" in err else 0.0


def per_layer(tracer, traced, untraced, sweep_s, reported, costs, defect):
    """Per-layer metrics per traced pass; the closing layer sweep is spread over the passes."""
    from tracing import LAYERS
    P = len(traced.wall)
    s, c = tracer.self_s, tracer.counts
    traced_wall = (sum(traced.wall) + sweep_s) / P
    m = {}
    names = {"bench.tracefile.write": "bench.tracefile.write_s", "bench.tracefile.read": "bench.tracefile.read_s",
             "bench.rates": "bench.rates.fit_s", "core.problems": "core.problems.busy_s",
             "core.problems.build": "core.problems.build_s", "core.sets": "core.sets.busy_s",
             "core.rng": "core.rng.busy_s"}
    for layer in LAYERS:
        m[names.get(layer, layer + ".self_s")] = (s[layer] / P, "s")
    program = sum(s[layer] for layer in LAYERS) / P
    m["harness.self_s"] = (s["harness"] / P, "s")
    m["untraced_remainder_s"] = (traced_wall - program, "s")
    m["traced_wall_s"] = (traced_wall, "s")
    m["sweep_s"] = (sweep_s / P, "s")
    m["tracing_overhead_ratio"] = (statistics.median(traced.scaled) / statistics.median(untraced.scaled), "ratio")
    m["bench.config.parse_ms"] = (1e3 * s["bench.config"] / max(c["bench.config.parses"], 1), "ms")
    m["core.problems.build_ms"] = (1e3 * s["core.problems.build"] / max(c["core.problems.builds"], 1), "ms")
    for key in ("core.problems.value_calls", "core.problems.grad_calls", "core.noise.calls", "core.sets.calls",
                "core.rng.draws", "zeroorder.samples"):
        m[key] = (c[key] / P, "count")
    m["bench.tracefile.bytes"] = (c["bench.tracefile.bytes"] / P, "B")
    m["core.oracles.reported_calls"] = (reported / P, "count")
    m["smooth.accept_ratio"] = (c["smooth.accepted"] / c["smooth.trials"] if c["smooth.trials"] else 0.0, "ratio")
    m["core.oracles.count_us_per_call"] = (costs["path.sgd.count_us"], "us")
    m["core.oracles.record_us_per_row"] = (costs["path.sgd.record_us"], "us")
    for key, value in costs.items():
        m[key] = (value, "us")
    m["defect.gd_rel_adaptive_tol0_raises"] = (defect, "count")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "optbench").is_dir():
        print(f"error: no optbench sources under {SRC}", file=sys.stderr)
        return 2
    blas = cap_blas_threads()
    load_before = os.getloadavg()
    clock = time.perf_counter

    sys.path.insert(0, str(SRC))
    import numpy as np
    import optbench
    from reference import REF_NOMINAL_S, host_speed, timed
    from workloads import WORKLOADS, Ops, call_cli, layer_sweep

    import_s = import_seconds()
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    os.makedirs(workdir)
    ops = Ops(clock)
    wl = WORKLOADS[args.workload](args.seed % 2 ** 31, str(workdir), ops)  # seed streams need >= 0
    try:
        setup_times = []
        for _ in range(SETUP_REPS):
            ref = host_speed()
            t = timed(wl.setup)
            ref = (ref + host_speed()) / 2
            setup_times.append(t * REF_NOMINAL_S / ref)
        setup_s = import_s + statistics.median(setup_times)
        wl.info["setup_import_s"] = round(import_s, 5)
        wl.info["setup_inputs_s"] = round(statistics.median(setup_times), 5)
        wl.warmup()
        for timings in (ops.labels, ops.latencies, ops.scaled):
            timings.clear()

        if not args.trace:
            passes = measure(wl, ops, args.seconds, wl.min_passes, 0)
        else:
            from layers import layer_costs
            from tracing import Tracer
            untraced = measure(wl, ops, args.seconds / 2, 1, 0)
            tracer = Tracer()
            tracer.install(optbench)
            ops.tracer = tracer
            wl.on_trace(tracer)
            reported0 = wl.counters["reported_calls"]
            try:
                passes = measure(wl, ops, args.seconds / 2, max(1, wl.min_passes - len(untraced.wall)),
                                 len(untraced.wall))
                t0 = clock()
                sweep_calls = layer_sweep(wl.seed, str(workdir / "sweep"), ops)
                sweep_s = clock() - t0
            finally:
                tracer.uninstall()
                ops.tracer = None
            reported = wl.counters["reported_calls"] - reported0 + sweep_calls
            costs = layer_costs(wl.seed)
            defect = defect_probe(str(workdir), call_cli)
        wl.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass

    iters = wl.pass_iterations()
    scaled_ms = [1e3 * t for t in ops.scaled]
    wall = passes.typical()
    e2e = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "us_per_iter": (1e6 * wall / iters, "us"),
        "op_ms_p50": (percentile(scaled_ms, 50), "ms"),
        "op_ms_p90": (percentile(scaled_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    metrics = per_layer(tracer, passes, untraced, sweep_s, reported, costs, defect) if args.trace else e2e
    load_after = os.getloadavg()

    env = {
        "python": sys.version.split()[0], "numpy": np.__version__, "os.cpu_count": os.cpu_count(),
        "nproc": _nproc(), "loadavg_before": [round(v, 2) for v in load_before],
        "loadavg_after": [round(v, 2) for v in load_after], "blas_threads": blas,
        "note": "shared, unpinned host; times are scaled to the reference loop (see NOTES.md)",
    }
    n = len(scaled_ms)
    fail_ratio = ops.failed / ops.attempted if ops.attempted else 0.0
    raw_ms = [1e3 * t for t in ops.latencies]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: {len(passes.wall)} passes, "
          f"{iters} method iterations per pass, {n} timed ops (closed loop, 1 caller)")
    for k, v in env.items():
        print(f"# env {k}: {v}")
    for name, (value, unit) in metrics.items():
        print(f"# {name}: {value:.6g} {unit}")
    print(f"# op latency samples: {n}, {n - int(0.9 * n)} of them at or beyond p90")
    print(f"# unscaled: pass wall {statistics.median(passes.wall):.6g} s, pass program time "
          f"{statistics.median(passes.program):.6g} s, op p50 {percentile(raw_ms, 50):.6g} ms, "
          f"op p90 {percentile(raw_ms, 90):.6g} ms")
    print(f"# fail_ratio: {fail_ratio:.6g} ({ops.failed} failed / {ops.attempted} attempted)")
    for k, v in wl.info.items():
        print(f"# {k}: {v}")
    for problem in ops.problems[:20]:
        print(f"# FAILED {problem}")

    result = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    if args.trace:
        tracer.dump(str(ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.json"),
                    {"workload": args.workload, "seed": args.seed, "env": env, "info": wl.info,
                     "traced_passes": len(passes.wall), "metrics": result})
    print(json.dumps({"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
