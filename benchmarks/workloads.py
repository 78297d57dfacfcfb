"""The four workloads.  Each is a closed loop with one caller: an op starts
only after the previous one returned and was timed.

A workload runs in *passes*: a fixed list of ops that depends only on the
seed.  ``setup`` builds the inputs (repeated to time it), ``warmup`` runs
one untimed pass-shaped round so lazy work is done before timing, and
``finish`` runs the checks that need the pooled outputs of many ops.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
from collections import defaultdict

import numpy as np

import optbench
from optbench.bench import cli, parse_config, run_experiment
from optbench.core import AdditiveStochGrad, OracleSuite, Rng, ZOStochValue, make_problem
from optbench.core import noise as core_noise
from optbench.core import problems as core_problems
from optbench.stochastic import Const, Decay, SgdConfig, UniformAvg
from optbench.zeroorder import ConstTau, ZoConfig

from catalog import averaged_sgd_mse, make_configs
from reference import REF_NOMINAL_S, reference_loop


class Ops:
    """Op accounting: latency of each op and whether its output check passed.

    The reference loop is timed right before and right after each op, and
    the op's latency is also kept scaled by ``REF_NOMINAL_S`` over the mean
    of the two reference times.  On the shared
    host the speed of one thread swings by up to 2x within seconds; the
    reference slows down with it, so the scaled latency follows the
    program, not the host.
    """

    def __init__(self, clock):
        self.clock = clock
        self.labels = []
        self.latencies = []   # seconds, as measured
        self.scaled = []      # seconds at the reference host speed
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.tracer = None

    def run(self, label, fn, check):
        """Time ``fn()``; ``check(result)`` returns a list of problems (empty: correct)."""
        if self.tracer is not None:
            self.tracer.op = self.attempted
        self.attempted += 1
        self.labels.append(label)
        clock = self.clock
        t0 = clock()
        reference_loop()
        t1 = clock()
        try:
            result = fn()
        except Exception as e:  # an op that raises is a failed op, and the loop goes on
            self._time(t0, t1, clock())
            self._fail(label, [f"raised {type(e).__name__}: {e}"])
            return None
        self._time(t0, t1, clock())
        try:
            problems = check(result)
        except Exception as e:  # output the check cannot read is wrong output
            problems = [f"output check raised {type(e).__name__}: {e}"]
        if problems:
            self._fail(label, problems)
        return result

    def _time(self, t0, t1, t2):
        """Op from t1 to t2, reference loop from t0 to t1 and again right after the op."""
        t3 = self.clock()
        reference_loop()
        ref = 0.5 * ((t1 - t0) + (self.clock() - t3))
        self.latencies.append(t2 - t1)
        self.scaled.append((t2 - t1) * REF_NOMINAL_S / ref)

    def fail_pooled(self, label, n, problems):
        """A check over the pooled outputs of ``n`` ops failed: all of them count as failed."""
        self.failed += n
        self.problems.append(f"{label} ({n} ops): {'; '.join(problems)}")

    def _fail(self, label, problems):
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{label}: {'; '.join(problems)}")


def call_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # module attribute: the traced run rebinds it
    return code, out.getvalue(), err.getvalue()


def _num(text):
    return None if text == "-" else float(text)


class Workload:
    min_passes = 1

    def __init__(self, seed, workdir, ops):
        self.seed = seed
        self.workdir = workdir
        self.ops = ops
        self.counters = defaultdict(int)
        self.info = {}

    def on_trace(self, tracer):
        pass

    def finish(self):
        pass


# -- catalog workloads -------------------------------------------------------------


class _Catalog(Workload):
    min_passes = 3

    def setup(self):
        self.canon = make_configs(self.seed, make_problem)
        self.paths = []
        for i, c in enumerate(self.canon):
            doc = dict(c.doc, iterations=c.iterations, output=self.output(c))
            path = os.path.join(self.workdir, f"{i:02d}-{c.key}.json")
            with open(path, "w") as fh:
                fh.write(json.dumps(doc, indent=1) + "\n")
            self.paths.append(path)

    def warmup(self):
        self.iters = []
        for path in self.paths:
            with open(path) as fh:
                trace, _ = run_experiment(parse_config(fh.read()))
            self.iters.append(trace.final.iter)
        self.info["method_iterations_per_pass"] = sum(self.iters)

    def pass_iterations(self):
        return sum(self.iters)


def _parse_run(out):
    kv = {}
    for line in out.splitlines():
        key, _, val = line.partition(":")
        kv[key.strip()] = val.strip()
    return {"status": kv["status"], "final_gap": _num(kv["final_gap"]),
            "final_dist": _num(kv["final_dist"]), "oracle_calls": int(kv["oracle_calls"])}


def _read_csv(path):
    rows = []
    with open(path, newline="") as fh:
        for r in csv.DictReader(fh):
            rows.append({k: (int(v) if k in ("iter", "oracle_calls") else (float(v) if v else None))
                         for k, v in r.items()})
    return rows


class CatalogRun(_Catalog):
    """`optbench run --trace out.csv` with record_every 1, then `optbench rates`."""

    def output(self, c):
        return {"record_every": 1}

    def setup(self):
        super().setup()
        self.digests = {}

    def run_pass(self, p):
        for i, (c, path) in enumerate(zip(self.canon, self.paths)):
            csv_path = os.path.join(self.workdir, f"{i:02d}.csv")
            res = self.ops.run(c.key, lambda: call_cli(["run", "--config", path, "--trace", csv_path]),
                               lambda r, c=c, p=csv_path: self._check_run(c, p, r))
            if c.rate is not None and res is not None and res[0] == 0:
                self.ops.run(c.key + ":rates",
                             lambda: call_cli(["rates", "--trace", csv_path, "--model", c.rate, "--window", "0.5"]),
                             lambda r, c=c: self._check_rates(c, r))

    def _check_run(self, c, csv_path, res):
        code, out, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        s = _parse_run(out)
        self.counters["reported_calls"] += s["oracle_calls"]
        with open(csv_path, "rb") as fh:
            blob = fh.read()
        digest = hashlib.sha256(blob).hexdigest()
        problems = []
        if self.digests.setdefault(c.key, digest) != digest:
            problems.append("trace bytes differ from the first run with the same seed")
        rows = _read_csv(csv_path)
        s["iters"] = rows[-1]["iter"]
        problems += c.check_final(s)
        if c.check_rows is not None:
            problems += c.check_rows(rows)
        return problems

    def _check_rates(self, c, res):
        code, out, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        fields = dict(f.split("=", 1) for f in out.split())
        est = float(fields["p" if c.rate == "sublinear" else "q"])
        if not math.isfinite(est):
            return [f"rate estimate {est}"]
        return c.check_rate(est) if c.check_rate is not None else []

    def finish(self):
        joined = "".join(self.digests[c.key] for c in self.canon)
        self.info["trace_digest_sha256"] = hashlib.sha256(joined.encode()).hexdigest()


SWEEP = ("polyak_subgrad-l1_system", "gd_rel_adaptive-rosenbrock", "heavy_ball-quad_diag",
         "frank_wolfe-fw_box", "sgd-quad_diag", "zo_sgd-quad_diag")


def layer_sweep(seed, workdir, ops):
    """Six canonical `run` (+ `rates`) ops, one per method module.

    A traced run ends with this sweep, so that every layer has measured
    spans in every traced run, whichever workload it traces.  Returns the
    oracle calls the sweep's runs reported.
    """
    sweep = CatalogRun(seed, workdir, ops)
    os.makedirs(workdir)
    sweep.setup()
    keep = [i for i, c in enumerate(sweep.canon) if c.key in SWEEP]
    sweep.canon = [sweep.canon[i] for i in keep]
    sweep.paths = [sweep.paths[i] for i in keep]
    sweep.run_pass(0)
    return sweep.counters["reported_calls"]


class CatalogCompare(_Catalog):
    """`optbench compare` per config, record_every above the budget, no trace file."""

    def output(self, c):
        return {"record_every": c.iterations + 1}

    def run_pass(self, p):
        for i, (c, path) in enumerate(zip(self.canon, self.paths)):
            self.ops.run(c.key, lambda: call_cli(["compare", "--configs", path]),
                         lambda r, c=c, i=i: self._check(c, i, r))

    def _check(self, c, i, res):
        code, out, err = res
        if code != 0:
            return [f"exit {code}: {err.strip()}"]
        cols = out.splitlines()[1].split()
        s = {"status": cols[3], "final_gap": _num(cols[4]), "final_dist": _num(cols[5]),
             "oracle_calls": int(cols[6]), "iters": self.iters[i]}
        self.counters["reported_calls"] += s["oracle_calls"]
        return c.check_final(s)


# -- mc_sgd --------------------------------------------------------------------------

MC_N = 1000             # iterations per replica
MC_REPLICAS = 25        # replicas per monte_carlo_mean_cov call, two calls (d=1, d=2) per pass
MC_CHECK_PASSES = 32    # the covariance bands use the replicas of the first 32 passes: 800 per dimension
MC_LAMBDAS = ([1.0], [2.0, 1.0])
MC_BANDS = (0.25, 0.30)  # criterion 10: 1-d within 25 %, 2-d within 30 %


class McSgd(Workload):
    """Monte-Carlo replicas of averaged SGD (criterion 10's shape, N = 1000)."""

    min_passes = MC_CHECK_PASSES

    def setup(self):
        self.cfg = SgdConfig(N=MC_N, step_rule=Decay(gamma0=0.5, eta=0.6), averaging=UniformAvg())
        # H^-1 Sigma H^-1 for H = diag(lambdas), Sigma = I
        self.limits = [np.diag(1.0 / np.asarray(lam) ** 2) for lam in MC_LAMBDAS]
        # x0 = x* = 0: E||x_bar||^2 is the exact finite-N variance; x_bar is gaussian
        self.mse = [averaged_sgd_mse(lam, 1.0, np.zeros(len(lam)), MC_N, 0.5, 0.6) for lam in MC_LAMBDAS]
        self.outputs = ([], [])
        self.replica_fns = [self._replica(dim) for dim in range(2)]

    def _replica(self, dim):
        lam, mse, ops, cfg = MC_LAMBDAS[dim], self.mse[dim], self.ops, self.cfg
        d = len(lam)
        counters = self.counters
        mod = optbench.stochastic

        def program(rng):
            oracle, fset = core_problems.make_problem("quad_diag", {"lambdas": lam})
            noisy = core_noise.wrap_noise(oracle, AdditiveStochGrad(1.0), rng.spawn(0))
            return mod.run_sgd(noisy, fset, np.zeros(d), cfg, rng.spawn(1), record_every=MC_N + 1)

        def check(trace):
            counters["reported_calls"] += trace.final.oracle_calls
            x = trace.x_out
            if x is None or x.shape != (d,) or not np.all(np.isfinite(x)):
                return [f"x_out {x}"]
            return [] if float(x @ x) <= 50 * mse else [f"||x_bar||^2 {float(x @ x):.3g} > 50 E = {50 * mse:.3g}"]

        def replica(rng):
            trace = ops.run(f"replica d={d}", lambda: program(rng), check)
            return np.full(d, np.nan) if trace is None else trace.x_out

        return replica

    def on_trace(self, tracer):
        self.replica_fns = [tracer.harness(self._replica(dim)) for dim in range(2)]

    def warmup(self):
        optbench.stochastic.monte_carlo_mean_cov(self.replica_fns[0], 2, seed=2 ** 32 - 1)

    def pass_iterations(self):
        return 2 * MC_REPLICAS * MC_N

    def run_pass(self, p):
        for dim in range(2):
            mc_seed = (self.seed % 100_000) * 1_000_000 + 10 * p + dim
            before = self.ops.attempted
            captured = []
            fn = self.replica_fns[dim]

            def run_fn(rng, fn=fn):
                x = fn(rng)
                captured.append(np.array(x, dtype=float))
                return x

            stats = optbench.stochastic.monte_carlo_mean_cov(run_fn, MC_REPLICAS, mc_seed)
            X = np.stack(captured)
            cov = np.cov(X, rowvar=False, ddof=1).reshape(stats.covariance.shape)
            # NaN rows come from replicas that failed and are counted already
            if not (np.allclose(stats.mean, X.mean(axis=0), rtol=1e-9, atol=1e-15, equal_nan=True)
                    and np.allclose(stats.covariance, cov, rtol=1e-9, atol=1e-15, equal_nan=True)):
                self.ops.fail_pooled(f"mc pass {p} d={dim + 1}", self.ops.attempted - before,
                                     ["returned mean/covariance differ from the replicas' sample statistics"])
            if p < MC_CHECK_PASSES:
                self.outputs[dim].append(X)

    def finish(self):
        for dim in range(2):
            X = np.concatenate(self.outputs[dim])
            if not np.all(np.isfinite(X)):
                continue  # the replicas that failed are already counted
            ncov = MC_N * np.atleast_2d(np.cov(X, rowvar=False, ddof=1))
            lim, band = self.limits[dim], MC_BANDS[dim]
            problems = [f"N Cov[{i},{i}] = {ncov[i, i]:.4f} outside {lim[i, i]:.4f} +- {band:.0%}"
                        for i in range(len(lim)) if abs(ncov[i, i] - lim[i, i]) > band * lim[i, i]]
            if len(lim) == 2 and abs(ncov[0, 1]) > band * math.sqrt(lim[0, 0] * lim[1, 1]):
                problems.append(f"N Cov[0,1] = {ncov[0, 1]:.4f} above {band:.0%} of sqrt(limit product)")
            self.info[f"N_cov_d{dim + 1}"] = np.round(ncov, 4).tolist()
            if problems:
                self.ops.fail_pooled(f"covariance bands d={dim + 1}", len(X), problems)


# -- zo_kernel -----------------------------------------------------------------------

ZO_LINEAR_C = np.array([1.0, -2.0, 0.5])   # criterion 11's linear objective
ZO_LINEAR = (10, 1000, 0.1)                # chunks per pass, batch, tau
ZO_LINEAR_CHECK = 100                      # criterion 11: 3 sigma over 100 chunks
ZO_QUAD = (50, 10, 200, 0.05, 1e-3)        # d, calls per pass, batch, tau, delta_tilde
ZO_RUNS = (10, 4, 100, 4, 0.05)            # d, runs per pass, N, batch, gamma
# beta = 2 kernel K(u) = 3u: E[K^2] = 3 and E[u^2 K^2] = 9/5 under uniform u on [-1, 1]
K2, U2K2 = 3.0, 9.0 / 5.0


def _sample_second_moment(d, g2, dt, tau):
    """E||s||^2 of one two-point sample on a quadratic with gaussian value noise (sd dt)."""
    return U2K2 * d * g2 + K2 * d * d * dt * dt / (2 * tau * tau)


class ZoKernel(Workload):
    """Direct kernel_grad_estimate calls at large batch, plus short batched zo_sgd runs."""

    min_passes = ZO_LINEAR_CHECK // ZO_LINEAR[0]

    def setup(self):
        zo = optbench.zeroorder
        self.kernel = zo.build_kernel(2)
        c = ZO_LINEAR_C
        self.linear = OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(),
                                  grad=lambda x: c.copy(), dim=3)
        self.linear_rng = Rng(0)  # criterion 11's own stream, continued across passes
        rng = np.random.default_rng([self.seed, 23])
        d = ZO_QUAD[0]
        self.quad_lam, self.quad_shift = 1.0 + 9.0 * rng.uniform(size=d), rng.uniform(-1.0, 1.0, d)
        self.quad_x = self.quad_shift + rng.normal(size=d) / math.sqrt(d)
        self.quad_g = self.quad_lam * (self.quad_x - self.quad_shift)
        self.quad_rng = Rng((self.seed, 6))
        d, _, N, b, gamma = ZO_RUNS
        self.run_lam = 1.0 + rng.uniform(size=d)
        self.run_x0 = np.ones(d) + rng.uniform(-0.2, 0.2, d)
        self.run_cfg = ZoConfig(N=N, step_rule=Const(gamma), kernel=self.kernel,
                                tau_schedule=ConstTau(ZO_QUAD[3]), batch=b)
        self.Rng = Rng
        self._build_suites()
        self.linear_chunks, self.quad_sum, self.quad_calls = [], np.zeros(ZO_QUAD[0]), 0
        self.run_index = 0

    def _build_suites(self):
        # module attributes, so that the traced run builds through the traced layers
        make, wrap, dt = core_problems.make_problem, core_noise.wrap_noise, ZO_QUAD[4]
        oracle, _ = make("quad_diag", {"lambdas": self.quad_lam.tolist(), "shift": self.quad_shift.tolist()})
        self.quad = wrap(oracle, ZOStochValue(dt), Rng((self.seed, 5)))
        oracle, self.run_set = make("quad_diag", {"lambdas": self.run_lam.tolist()})
        self.run_oracle = wrap(oracle, ZOStochValue(dt), Rng((self.seed, 7)))

    def on_trace(self, tracer):
        self.linear = tracer.harness(tracer.timed_suite)(self.linear)
        self.linear_rng = tracer.timed_rng(self.linear_rng)
        self.quad_rng = tracer.timed_rng(self.quad_rng)
        self.Rng = tracer.TimedRng
        self._build_suites()

    def warmup(self):
        zo = optbench.zeroorder
        zo.kernel_grad_estimate(self.quad, self.quad_x, ZO_QUAD[3], self.kernel, Rng((self.seed, 99)), 10)
        zo.run_zo_sgd(self.run_oracle, self.run_set, self.run_x0, self.run_cfg, Rng((self.seed, 98)),
                      record_every=ZO_RUNS[2] + 1)

    def pass_iterations(self):
        return (ZO_LINEAR[0] * ZO_LINEAR[1] + ZO_QUAD[1] * ZO_QUAD[2]
                + ZO_RUNS[1] * ZO_RUNS[2] * ZO_RUNS[3])

    def run_pass(self, p):
        zo = optbench.zeroorder
        chunks, batch, tau = ZO_LINEAR
        c = ZO_LINEAR_C
        # Chebyshev at 1e-6: a single estimate this far off is a defect, not noise.
        lin_bound = 1e6 * (U2K2 * 3 * float(c @ c) - float(c @ c)) / batch
        for _ in range(chunks):
            est = self.ops.run("linear d=3", lambda: zo.kernel_grad_estimate(
                self.linear, np.zeros(3), tau, self.kernel, self.linear_rng, batch),
                lambda e: self._check_est(e, c, lin_bound))
            if len(self.linear_chunks) < ZO_LINEAR_CHECK:
                self.linear_chunks.append(np.full(3, np.nan) if est is None else est)

        d, calls, batch, tau, dt = ZO_QUAD
        g = self.quad_g
        var1 = _sample_second_moment(d, float(g @ g), dt, tau) - float(g @ g)
        for _ in range(calls):
            est = self.ops.run(f"quad d={d}", lambda: zo.kernel_grad_estimate(
                self.quad, self.quad_x, tau, self.kernel, self.quad_rng, batch),
                lambda e: self._check_est(e, g, 1e6 * var1 / batch))
            if est is not None and np.all(np.isfinite(est)):
                self.quad_sum += est
                self.quad_calls += 1

        d, runs, N, b, _ = ZO_RUNS
        for _ in range(runs):
            rng = self.Rng((self.seed, 1000 + self.run_index))
            self.run_index += 1
            self.ops.run(f"zo_sgd d={d}", lambda: zo.run_zo_sgd(
                self.run_oracle, self.run_set, self.run_x0, self.run_cfg, rng, record_every=N + 1),
                self._check_run)

    @staticmethod
    def _check_est(est, truth, bound):
        if est is None or est.shape != truth.shape or not np.all(np.isfinite(est)):
            return [f"estimate {est}"]
        err = float(np.sum((est - truth) ** 2))
        return [] if err <= bound else [f"||est - grad||^2 {err:.3g} > {bound:.3g}"]

    def _check_run(self, trace):
        d, _, N, b, _ = ZO_RUNS
        self.counters["reported_calls"] += trace.final.oracle_calls
        problems = []
        if trace.status is None or trace.status.value != "budget_exhausted":
            problems.append(f"status {trace.status}")
        # the method states exactly 2 * batch zeroth-order calls per iteration;
        # the upper end admits the start and final value rows of the trace
        if not 2 * b * N <= trace.final.oracle_calls <= 2 * b * N + 3:
            problems.append(f"oracle_calls {trace.final.oracle_calls} for N={N}, batch={b}")
        g0, gN = trace.rows[0].f_gap, trace.final.f_gap
        if not (gN is not None and math.isfinite(gN) and gN <= g0):
            problems.append(f"final gap {gN} not below the start gap {g0}")
        return problems

    def finish(self):
        X = np.stack(self.linear_chunks[:ZO_LINEAR_CHECK])
        if len(X) == ZO_LINEAR_CHECK and np.all(np.isfinite(X)):
            mean = X.mean(axis=0)
            se = X.std(axis=0, ddof=1) / math.sqrt(len(X))
            bad = [f"coordinate {i}: |{mean[i]:.4f} - {ZO_LINEAR_C[i]}| > 3 se = {3 * se[i]:.4f}"
                   for i in range(3) if abs(mean[i] - ZO_LINEAR_C[i]) > 3 * se[i]]
            if bad:
                self.ops.fail_pooled("linear unbiasedness (criterion 11)", ZO_LINEAR_CHECK, bad)
        d, _, batch, tau, dt = ZO_QUAD
        g = self.quad_g
        n = self.quad_calls * batch
        mean = self.quad_sum / max(self.quad_calls, 1)
        expected = (_sample_second_moment(d, float(g @ g), dt, tau) - float(g @ g)) / n
        err = float(np.sum((mean - g) ** 2))
        self.info["quad_unbiasedness_ratio"] = round(err / expected, 4)
        # under unbiasedness err / expected concentrates at 1 (about 50 degrees of freedom)
        if not err <= 3 * expected:
            self.ops.fail_pooled(f"quad d={d} unbiasedness", self.quad_calls,
                                 [f"||mean - grad||^2 = {err:.4g} > 3 x {expected:.4g}"])


WORKLOADS = {
    "catalog_run": CatalogRun,
    "catalog_compare": CatalogCompare,
    "mc_sgd": McSgd,
    "zo_kernel": ZoKernel,
}
