"""Print a digest of every trace over fixed run grids, for before/after comparison.

Usage::

    python tools/trace_digests.py <checkout> > digests.json

``<checkout>`` is a source tree of this repository; its ``src/`` is
imported and its ``benchmarks/catalog.py`` supplies the canonical
configs (read only).  The output is a JSON object mapping a run key to
``{"sha256": ..., "oracle_calls": ...}``, where the hash covers the
run's JSON trace file written with ``record_x`` on.  A run that raises
maps to ``{"error": "<ExceptionType>: <message>"}``.  One key per line
and sorted keys make ``diff`` of two outputs list exactly the runs
whose traces differ.

Grids:

* ``catalog/...``: the 17 canonical configs for seeds 1-4, each with
  ``record_every`` in {1, 7, N+1} and ``max_oracle_calls`` in
  {none, 3, 40, 333}, run through ``run_experiment`` (816 runs);
* ``sgd/...`` and ``zo/...``: ``run_sgd`` over the five step rules x
  averaging {none, uniform, tail} x batch {1, 3} x clip {off, 0.5} x
  {FullSpace, Box} under gaussian noise, and again under ``student_t3``
  noise (keys ``sgd/student_t3/...``), and ``run_zo_sgd`` over the five
  step rules x both tau schedules x beta {2, 4} x batch {1, 3} x
  {FullSpace, Box}; each with ``record_every`` in {1, 7} and
  ``max_oracle_calls`` in {none, 40} (1280 runs).  A long set
  (``sgd/long/...``) runs ``run_sgd`` for N = 2500 iterations over both
  noise distributions x d {1, 2} x batch {1, 3} x clip {off, 0.5} x
  ``max_oracle_calls`` in {none, 1300}, a budget that ends the run part
  way through a block of noise rows (32 runs).  The hash of every
  ``sgd/`` key also covers the next draws of the run's ``Rng``;
* ``stop/...``: eight configs tuned to reach their method's own stop
  test (``cg_quadratic``, ``frank_wolfe`` with either step rule,
  ``gd_rel_adaptive``, ``polyak_subgrad``, ``heavy_ball`` and
  ``taylor_drori`` with a positive ``tol``, and ``gd_abs``'s early
  stop), for seeds 1-2 with ``record_every`` in {1, 7, N+1} and
  ``max_oracle_calls`` in {none, 3, 40, 333}, run through
  ``run_experiment`` (192 runs);
* ``est/...``: direct ``kernel_grad_estimate`` outputs on a linear suite
  at d=3, ``quad_diag`` at d=50 under ``zo_stoch``, ``zo_bounded``
  ``random`` and ``zo_bounded`` ``deterministic_worst`` noise, a 1-d
  quadratic, a quadratic at its minimizer and a linear suite whose
  hand-built zeroth-order entry draws a Student-t from the run's ``Rng``,
  for beta {2, 4} x batch {1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 1000} x
  seeds 1-2; each case cut by a budget of 7 calls in the middle of a probe
  pair (its error text and call count); each case at beta 2 and seed 1
  with a budget of exactly ``2 * batch`` calls and of one call fewer, for
  batch {1, 2, 3, 4, 5, 6, 7, 8, 16, 64} (``room...`` keys); ``run_zo_sgd``
  at batch 9 on the ``zo_stoch`` quadratic for 12 iterations, with
  ``max_oracle_calls`` in {none, 36, 53, 54, 55} (``est/zo_sgd/...``);
  and the gradient streams of ``absolute_grad`` and ``relative_grad`` in
  ``random_direction`` mode at d {1, 3, 50} for seeds 1-2 (507 keys).
  The hash also covers the next draws of the run's ``Rng``, so a change
  in the number of draws consumed shows;
* ``csv/...``: the 17 canonical configs for seeds 1-2 with
  ``record_every`` in {1, 7}, run through ``run_experiment`` with a CSV
  trace, whose bytes the hash covers (68 runs); and for each of those
  files a ``rates/...`` key holding the ``repr`` of ``fit_rate`` on the
  trace read back from it, for both models with window 0.5, or the
  fit's error text (68 keys);
* ``cli/...``: the 17 canonical configs for seeds 1-2 through the
  command line, in one process: ``run --trace`` (``record_every`` 1),
  ``compare`` (recording off) and, for the configs that name a rate,
  ``rates`` for both models.  The hash covers the exit code, stdout
  with the ``wall_time`` and ``time_s`` fields masked, and the trace
  bytes ``run`` writes; a few error paths (an unknown subcommand, a
  missing config file, a bad JSON config, ``rates`` on a too-short
  trace, an unknown problem name) hash their exit code and stderr
  instead; and ``list-methods`` hashes its exit code and stdout
  (112 keys);
* ``parse/...``: ``parse_config`` alone.  For each noise kind: a valid
  config, the config without each of its fields, an unknown key, a bad
  mode, ints where floats are meant, and ``v`` without ``mode``.  For
  each catalog problem: its defaults, an unknown parameter, a non-finite
  parameter and a bad value.  And (``parse/number/...``) numbers that are
  not JSON numbers or not whole where a whole number is meant, at every
  layer.  ``parse/key/...`` gives ``const_subgrad`` a ``tol`` and
  ``gd_rel_adaptive`` an ``L``.  The hash covers the ``repr`` of the
  parsed spec; a config that fails maps to its error text (94 keys).  ``parse/variant/...`` parses
  each method variant's keys and runs the result for 3 iterations through
  ``run_experiment``, hashing the spec's ``repr`` and the trace: for
  ``sgd`` and ``zo_sgd``, each step-rule kind valid, without each of its
  keys, with each key null and with each key quoted; ``M`` and ``mu``
  filled from a problem that has them or refused on one that lacks them,
  an unknown, null or list ``step_rule`` and bad values; Frank-Wolfe's
  ``classic`` and ``short`` with and without ``L``; and each momentum
  variant with L and mu from the problem, mu null, missing L, missing mu,
  mu = 0, mu = L and mu > L; and ``restarted_switching`` on ``slp``
  without a ``stage_cap`` and with one of 2 and of 100.  A failure at
  parse or run time maps to its error text (115 keys);
* ``oracle/...``: every catalog callable called directly: ``value``,
  ``subgrad``, ``grad``, the constraint's ``value`` and ``subgrad`` and
  ``dist_to_opt``, for each problem at its defaults and a few parameter
  sets (a nonzero, a ``+0.0`` and a ``-0.0`` quad_diag shift among them).
  The inputs are random vectors at scales from 1e-300 to 1e150, the
  minimizers, and vectors holding ``+-0.0``, subnormals, entries near
  1e200 whose squares overflow, ``+-inf``, ``+-nan`` and a signalling
  NaN, alone and as every pair in the first and last entries.  The hash
  covers each output's type, dtype, shape and bytes, or the type of the
  error it raised (67 keys, one per case and callable);
* ``sets/...``: ``project`` and ``lmo`` of ``FullSpace``, ``Box``,
  ``Ball`` and ``Simplex`` cases (boxes with ``+-0.0``, infinite,
  subnormal and equal bounds among them) called directly on the
  ``oracle/`` grid's inputs for their dimension, plus an integer list, a
  vector of the wrong length and a 2-d array.  The hash covers each
  output's type, dtype, shape and bytes and whether it shares memory with
  the input or with an array the set holds, or the error's type and text
  (18 keys, one per case and method);
* ``subgrad/...``: ``run_switching``, ``run_restarted_switching``,
  ``run_polyak_subgrad`` (which ignores the constraint, so on the box
  every step lands past the face) and averaged
  ``run_const_subgrad`` on ``slp``, called directly over ``FullSpace``
  and over a box whose face ``x_1 = 0.5`` cuts the minimizer off, from a
  start outside the constraint, with ``record_every`` in {1, 7} and
  ``max_oracle_calls`` in {none, 40} (32 runs);
* ``diverge/...``: runs that leave, called directly.  ``gd``, ``gd_abs``
  (``absolute_grad`` noise, delta 0.1), ``gd_rel`` (``relative_grad``
  ``shrink`` noise, alpha 0.25) and the five momentum variants with
  L = 1 (and mu = 0.5) on ``quad_diag [10, 1]``, whose true L is 10, and
  on the unbounded-below cubic ``f = -sum(x^3)/3`` from (1, 0.5);
  ``gd_rel_adaptive`` (the same noise, L0 = 1) on the cubic and on the
  unbounded-below linear ``f = -sum(x)`` from 0.  Each with the distance
  monitor's radius 1e6 (``r1e6``: the runs leave through the radius) and
  inf (``rinf``: the iterates grow until the gradient's norm is not
  finite, except the linear suite's, whose gradient stays finite),
  ``record_every`` in {1, 7} and ``max_oracle_calls`` in {none, 40}
  (144 runs).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import os
import sys
import tempfile

SEEDS = (1, 2, 3, 4)
CATALOG_BUDGETS = (None, 3, 40, 333)
GRID_N = 60
GRID_BUDGETS = (None, 40)
LONG_N = 2500
LONG_BUDGETS = (None, 1300)
DISTRIBUTIONS = ("gaussian", "student_t3")
STOP_SEEDS = (1, 2)
CSV_SEEDS = (1, 2)
CLI_SEEDS = (1, 2)
EST_BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 64, 1000)
ROOM_BATCHES = (1, 2, 3, 4, 5, 6, 7, 8, 16, 64)
ZO_BUDGETS = (None, 36, 53, 54, 55)
_QUAD_50_1 = {"name": "quad_diag", "params": {"lambdas": [50, 1]}}
# name -> (problem, noise, method params, iterations); each reaches its stop test.
STOP_CONFIGS = {
    "cg_quadratic": ({"name": "quad_diag", "params": {"lambdas": [1, 5, 20]}}, None,
                     {"tol": 1e-8}, 10),
    "frank_wolfe-classic": ({"name": "fw_box"}, None, {"tol": 0.05}, 400),
    "frank_wolfe-short": ({"name": "fw_box"}, None, {"tol": 0.05, "step_rule": "short"}, 400),
    "gd_rel_adaptive": ({"name": "quad_diag", "params": {"lambdas": [10, 1]}},
                        {"kind": "relative_grad", "alpha": 0.25, "mode": "shrink"},
                        {"L0": 1.0, "tol": 1e-6}, 500),
    "polyak_subgrad": ({"name": "l1_system", "params": {"d": 5, "m": 8}}, None, {"tol": 1e-6}, 300),
    "heavy_ball": (_QUAD_50_1, None, {"tol": 1e-6}, 2000),
    "taylor_drori": (_QUAD_50_1, None, {"tol": 1e-6}, 2000),
    "gd_abs": ({"name": "quad_diag", "params": {"lambdas": [10, 1]}},
               {"kind": "absolute_grad", "delta": 0.1}, {}, 500),
}


def _digest(path: str, oracle_calls: int, rng=None) -> dict:
    """Hash of the file at ``path``, and of ``rng``'s next three gaussians when given."""
    with open(path, "rb") as fh:
        data = fh.read()
    if rng is not None:
        data += rng.gaussian(3).tobytes()
    return {"sha256": hashlib.sha256(data).hexdigest(), "oracle_calls": oracle_calls}


def _guarded(fn) -> dict:
    try:
        return fn()
    except Exception as e:  # the error text is part of the compared behaviour
        return {"error": f"{type(e).__name__}: {e}"}


def catalog_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.json")
    for seed in SEEDS:
        for canon in make_configs(seed, make_problem):
            N = canon.iterations
            for every, budget in itertools.product((1, 7, N + 1), CATALOG_BUDGETS):
                doc = dict(canon.doc, budget={"iterations": N, "max_oracle_calls": budget},
                           output={"record_every": every, "record_x": True})

                def run(doc=doc):
                    _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                    return _digest(path, summary["oracle_calls"])

                out[f"catalog/{canon.key}/seed{seed}/every{every}/budget{budget}"] = _guarded(run)
    return out


def zero_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.json")
    for canon in make_configs(1, make_problem):
        doc = dict(canon.doc, budget={"iterations": 0}, output={"record_x": True})

        def run(doc=doc):
            _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
            return _digest(path, summary["oracle_calls"])

        out[f"zero/{canon.key}"] = _guarded(run)
    return out


def csv_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench.config import parse_config
    from optbench.bench.rates import MODELS, fit_rate
    from optbench.bench.runner import run_experiment
    from optbench.bench.tracefile import read_trace
    from optbench.core import make_problem

    out = {}
    path = os.path.join(tmp, "trace.csv")
    for seed in CSV_SEEDS:
        for canon in make_configs(seed, make_problem):
            for every in (1, 7):
                doc = dict(canon.doc, budget={"iterations": canon.iterations}, output={"record_every": every})
                key = f"{canon.key}/seed{seed}/every{every}"

                def run(doc=doc):
                    if os.path.exists(path):
                        os.remove(path)  # a failed run must not leave its rates a stale file
                    _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                    return _digest(path, summary["oracle_calls"])

                out[f"csv/{key}"] = _guarded(run)

                def rates():
                    trace = read_trace(path)
                    return {model: _guarded(lambda model=model: repr(fit_rate(trace, model, 0.5)))
                            for model in MODELS}

                out[f"rates/{key}"] = _guarded(rates)
    return out


def stop_grid(tmp: str) -> dict:
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment

    out = {}
    path = os.path.join(tmp, "trace.json")
    for key, (problem, noise, params, N) in STOP_CONFIGS.items():
        method = key.split("-")[0]
        for seed, every, budget in itertools.product(STOP_SEEDS, (1, 7, N + 1), CATALOG_BUDGETS):
            doc = {"problem": dict(problem, seed=seed), "method": {"name": method, "params": params},
                   "budget": {"iterations": N, "max_oracle_calls": budget},
                   "output": {"record_every": every, "record_x": True}}
            if noise is not None:
                doc["noise"] = noise

            def run(doc=doc):
                _, summary = run_experiment(parse_config(json.dumps(doc)), trace_path=path)
                return _digest(path, summary["oracle_calls"])

            out[f"stop/{key}/seed{seed}/every{every}/budget{budget}"] = _guarded(run)
    return out


def sgd_zo_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import zeroorder as zo
    from optbench.bench.tracefile import write_trace
    from optbench.core import AdditiveStochGrad, Box, FullSpace, Rng, ZOStochValue, make_problem, wrap_noise

    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    x0 = np.array([1.5, -1.0])
    sets = {"full": FullSpace(2), "box": Box(np.array([-0.5, -2.0]), np.array([2.0, 0.25]))}
    rules = {"const": st.Const(0.05), "budget_const": st.BudgetConst(R=2.0, M=3.0),
             "inv_k": st.InvK(mu=1.0), "adagrad_norm": st.AdaGradNorm(R=1.0),
             "decay": st.Decay(gamma0=0.3, eta=0.7)}
    averaging = {"none": st.NoAveraging(), "uniform": st.UniformAvg(), "tail": st.TailAvg(0.3)}
    taus = {"const": zo.ConstTau(0.05), "power": zo.PowerDecayTau(0.2, 0.5)}
    path = os.path.join(tmp, "trace.json")
    out = {}

    def digest(key, call, rng=None):
        def run():
            trace = call()
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls, rng)
        out[key] = _guarded(run)

    def sgd(key, suite, fset, x0, cfg, **kw):
        rng = Rng(12)
        digest(key, lambda: st.run_sgd(suite, fset, x0, cfg, rng, **kw), rng)

    runs = itertools.product(rules.items(), sets.items(), (1, 3), (1, 7), GRID_BUDGETS)
    for (rname, rule), (sname, fset), batch, every, budget in runs:
        kw = dict(record_every=every, record_x=True, max_oracle_calls=budget)
        tail = f"{sname}/batch{batch}/every{every}/budget{budget}"
        for (aname, avg), clip, dist in itertools.product(averaging.items(), (None, 0.5), DISTRIBUTIONS):
            noisy = wrap_noise(oracle, AdditiveStochGrad(sigma=0.5, distribution=dist), Rng(11))
            cfg = st.SgdConfig(N=GRID_N, step_rule=rule, batch=batch, clip_lambda=clip, averaging=avg)
            prefix = "sgd" if dist == "gaussian" else f"sgd/{dist}"
            sgd(f"{prefix}/{rname}/{aname}/clip{clip}/{tail}", noisy, fset, x0, cfg, **kw)
        for (tname, tau), beta in itertools.product(taus.items(), (2, 4)):
            noisy = wrap_noise(oracle, ZOStochValue(0.01), Rng(21))
            cfg = zo.ZoConfig(N=GRID_N, step_rule=rule, kernel=zo.build_kernel(beta),
                              tau_schedule=tau, batch=batch)
            digest(f"zo/{rname}/tau-{tname}/beta{beta}/{tail}",
                   lambda: zo.run_zo_sgd(noisy, fset, x0, cfg, Rng(22), **kw))

    runs = itertools.product(DISTRIBUTIONS, (1, 2), (1, 3), (None, 0.5), LONG_BUDGETS)
    for dist, d, batch, clip, budget in runs:
        suite, fset = make_problem("quad_diag", {"lambdas": [2.0, 1.0][:d]})
        noisy = wrap_noise(suite, AdditiveStochGrad(sigma=0.5, distribution=dist), Rng(11))
        cfg = st.SgdConfig(N=LONG_N, step_rule=st.Decay(gamma0=0.3, eta=0.7), batch=batch, clip_lambda=clip,
                           averaging=st.UniformAvg())
        sgd(f"sgd/long/{dist}/d{d}/batch{batch}/clip{clip}/budget{budget}", noisy, fset, x0[:d], cfg,
            record_every=7, record_x=True, max_oracle_calls=budget)
    return out


def subgrad_grid(tmp: str) -> dict:
    import numpy as np

    from optbench import subgrad as sg
    from optbench.bench.tracefile import write_trace
    from optbench.core import Box, FullSpace, make_problem

    oracle, _ = make_problem("slp", {"rho": 1.0})
    x0 = np.array([-1.2, 0.9])
    sets = {"full": FullSpace(2), "box": Box(np.array([-2.0, -2.0]), np.array([0.5, 2.0]))}
    runs = {
        "switching": (sg.run_switching, sg.SwitchingConfig(delta=0.035, theta0=1.0, max_iters=2000)),
        "restarted_switching": (sg.run_restarted_switching,
                                sg.SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=2000)),
        "polyak": (sg.run_polyak_subgrad, sg.SubgradConfig(step_rule=sg.PolyakStep(), N=GRID_N)),
        "const": (sg.run_const_subgrad, sg.SubgradConfig(step_rule=sg.FixedStep(0.1), N=GRID_N, averaging=True)),
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for (name, (run_fn, cfg)), (sname, fset), every, budget in itertools.product(
            runs.items(), sets.items(), (1, 7), GRID_BUDGETS):
        def run(run_fn=run_fn, cfg=cfg, fset=fset, every=every, budget=budget):
            trace = run_fn(oracle, fset, x0, cfg, record_every=every, record_x=True, max_oracle_calls=budget)
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)

        out[f"subgrad/{name}/{sname}/every{every}/budget{budget}"] = _guarded(run)
    return out


def diverge_grid(tmp: str) -> dict:
    import math

    import numpy as np

    from optbench import momentum as mo
    from optbench import smooth as sm
    from optbench.bench.tracefile import write_trace
    from optbench.core import AbsoluteGrad, OracleSuite, RelativeGrad, Rng, make_problem, wrap_noise

    quad, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    cubic = OracleSuite(value=lambda x: -float((x * x * x).sum()) / 3.0, subgrad=lambda x: -(x * x),
                        grad=lambda x: -(x * x), dim=2)
    linear = OracleSuite(value=lambda x: -float(x.sum()), subgrad=lambda x: -np.ones(2),
                         grad=lambda x: -np.ones(2), dim=2)
    starts = {"quad": (quad, np.array([1.0, 1.0])), "cubic": (cubic, np.array([1.0, 0.5])),
              "linear": (linear, np.zeros(2))}
    N = 400

    def smooth_run(entry, noise, mode, L=1.0):
        def run(suite, x0, **kw):
            noisy = suite if noise is None else wrap_noise(suite, noise, Rng(1))
            return entry(noisy, x0, sm.SmoothRunConfig(N=N, L=L, mode=mode), **kw)
        return run

    runs = {
        "gd": (smooth_run(sm.run_gd, None, sm.Exact()), ("quad", "cubic")),
        "gd_abs": (smooth_run(sm.run_gd_abs, AbsoluteGrad(0.1), sm.AbsNoise(0.1)), ("quad", "cubic")),
        "gd_rel": (smooth_run(sm.run_gd_rel, RelativeGrad(0.25, mode="shrink"), sm.RelNoise(0.25)),
                   ("quad", "cubic")),
        "gd_rel_adaptive": (smooth_run(sm.run_gd_rel_adaptive, RelativeGrad(0.25, mode="shrink"),
                                       sm.RelNoiseAdaptive(0.25, L0=1.0), L=None), ("cubic", "linear")),
        **{v: (lambda suite, x0, v=v, **kw: mo.run_momentum(suite, x0, mo.MomentumConfig(v, N=N, L=1.0, mu=0.5), **kw),
               ("quad", "cubic")) for v in MOMENTUM_VARIANTS},
    }
    path = os.path.join(tmp, "trace.json")
    out = {}
    for name, (run_fn, suites) in runs.items():
        for sname, (rname, radius), every, budget in itertools.product(
                suites, (("r1e6", 1e6), ("rinf", math.inf)), (1, 7), GRID_BUDGETS):
            suite, x0 = starts[sname]

            def run(run_fn=run_fn, suite=suite, x0=x0, radius=radius, every=every, budget=budget):
                with np.errstate(all="ignore"):
                    trace = run_fn(suite, x0, record_every=every, record_x=True, max_oracle_calls=budget,
                                   divergence_radius=radius)
                write_trace(trace, path, "json")
                return _digest(path, trace.final.oracle_calls)

            out[f"diverge/{name}/{sname}/{rname}/every{every}/budget{budget}"] = _guarded(run)
    return out


def estimator_grid() -> dict:
    import numpy as np

    from optbench import stochastic as st
    from optbench import zeroorder as zo
    from optbench.core import (AbsoluteGrad, CountingOracle, FullSpace, OracleBudgetError, OracleSuite,
                               RelativeGrad, Rng, ZOBoundedValue, ZOStochValue, make_problem, wrap_noise)

    c = np.array([1.0, -2.0, 0.5])
    lam = np.linspace(1.0, 10.0, 50)
    quad50, _ = make_problem("quad_diag", {"lambdas": lam.tolist(), "shift": np.sin(lam).tolist()})
    cases = {
        "linear-d3": (OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(), dim=3),
                      np.array([0.3, -0.1, 2.0])),
        "quad50-zo_stoch": (wrap_noise(quad50, ZOStochValue(1e-3), Rng(17)), np.cos(3.0 * lam)),
        "quad50-zo_bounded-random": (wrap_noise(quad50, ZOBoundedValue(1e-2, "random"), Rng(17)),
                                     np.cos(3.0 * lam)),
        "quad50-zo_bounded-worst": (wrap_noise(quad50, ZOBoundedValue(1e-2, "deterministic_worst"), Rng(17)),
                                    np.cos(3.0 * lam)),
        "quad-d1": (make_problem("quad_diag", {"lambdas": [3.0]})[0], np.array([0.7])),
        "quad-minimizer": (make_problem("quad_diag", {"lambdas": [1.0, 1.0]})[0], np.zeros(2)),
        "linear-d3-drawing": (OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(), dim=3,
                                          zo_value=lambda x, rng: float(c @ x) + 0.01 * float(rng.student_t(3))),
                              np.array([0.3, -0.1, 2.0])),
    }
    out = {}

    def digest(rng, *arrays) -> dict:
        data = b"".join(np.asarray(a, dtype=float).tobytes() for a in arrays) + rng.gaussian(3).tobytes()
        return {"sha256": hashlib.sha256(data).hexdigest()}

    for (name, (oracle, x)), beta, batch, seed in itertools.product(cases.items(), (2, 4), EST_BATCHES, (1, 2)):
        def run(oracle=oracle, x=x, beta=beta, batch=batch, seed=seed):
            rng = Rng(seed)
            return digest(rng, zo.kernel_grad_estimate(oracle, x, 0.05, zo.build_kernel(beta), rng, batch))

        out[f"est/{name}/beta{beta}/batch{batch}/seed{seed}"] = _guarded(run)

    for (name, (oracle, x)), seed in itertools.product(cases.items(), (1, 2)):
        def cut(oracle=oracle, x=x, seed=seed):
            rng, ctr = Rng(seed), CountingOracle(oracle, 7)
            try:
                zo.kernel_grad_estimate(ctr, x, 0.05, zo.build_kernel(2), rng, 10)
            except OracleBudgetError as e:
                return dict(digest(rng), error=f"{type(e).__name__}: {e}", oracle_calls=ctr.calls)
            return {"error": "the budget did not cut the estimate"}

        out[f"est/{name}/budget7/seed{seed}"] = _guarded(cut)

    for (name, (oracle, x)), batch, short in itertools.product(cases.items(), ROOM_BATCHES, (0, 1)):
        def room(oracle=oracle, x=x, batch=batch, calls=2 * batch - short):
            rng, ctr = Rng(1), CountingOracle(oracle, calls)
            try:
                est = zo.kernel_grad_estimate(ctr, x, 0.05, zo.build_kernel(2), rng, batch)
            except OracleBudgetError as e:
                return dict(digest(rng), error=f"{type(e).__name__}: {e}", oracle_calls=ctr.calls)
            return dict(digest(rng, est), oracle_calls=ctr.calls)

        out[f"est/{name}/batch{batch}/room{2 * batch - short}"] = _guarded(room)

    quad, quad_x = cases["quad50-zo_stoch"]
    cfg = zo.ZoConfig(N=12, step_rule=st.Const(0.01), kernel=zo.build_kernel(2), batch=9)
    for budget in ZO_BUDGETS:
        def run_zo(budget=budget):
            rng = Rng(3)
            trace = zo.run_zo_sgd(quad, FullSpace(50), quad_x, cfg, rng, record_every=5, record_x=True,
                                  max_oracle_calls=budget)
            rows = [np.array([r.iter, r.f_value, r.oracle_calls]) for r in trace.rows]
            return dict(digest(rng, trace.x_out, *rows, *(r.x for r in trace.rows)),
                        status=trace.status.value, oracle_calls=trace.final.oracle_calls)

        out[f"est/zo_sgd/batch9/budget{budget}"] = _guarded(run_zo)

    kinds = {"absolute_grad": AbsoluteGrad(0.1), "relative_grad": RelativeGrad(0.3, "random_direction")}
    for (kind, noise), d, seed in itertools.product(kinds.items(), (1, 3, 50), (1, 2)):
        def stream(noise=noise, d=d, seed=seed):
            oracle, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 4.0, d).tolist()})
            rng = Rng(seed)
            grad = wrap_noise(oracle, noise, rng).grad
            return digest(rng, *(grad(np.full(d, 1.0 / (k + 1))) for k in range(200)))

        out[f"est/{kind}/d{d}/seed{seed}"] = _guarded(stream)
    return out


# case -> (problem, params, seed)
ORACLE_CASES = {
    "abs1d": ("abs1d", {}, 1),
    "l1_system": ("l1_system", {}, 1),
    "l1_system-d3-m4-seed2": ("l1_system", {"d": 3, "m": 4}, 2),
    "norm2": ("norm2", {"a": [1.0, -2.0, 0.5]}, 1),
    "quad_diag": ("quad_diag", {}, 1),
    "quad_diag-shift": ("quad_diag", {"lambdas": [10.0, 1.0, 0.3], "shift": [1.5, -2.0, 0.0]}, 1),
    "quad_diag-shift+0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [0.0, 0.0]}, 1),
    "quad_diag-shift-0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [-0.0, 0.0]}, 1),
    "fw_box": ("fw_box", {}, 1),
    "degenerate3": ("degenerate3", {}, 1),
    "degenerate3-l1_3-l2_0.7": ("degenerate3", {"l1": 3.0, "l2": 0.7}, 1),
    "rosenbrock": ("rosenbrock", {}, 1),
    "nesterov_skokov_toy": ("nesterov_skokov_toy", {}, 1),
    "phase_retrieval": ("phase_retrieval", {}, 1),
    "slp": ("slp", {}, 1),
    "slp-rho2.5": ("slp", {"rho": 2.5}, 1),
    "logistic_small": ("logistic_small", {}, 1),
}
ORACLE_SPECIALS = (0.0, -0.0, 5e-324, -2.5e-310, 1e200, -3e200, float("inf"), float("-inf"), float("nan"),
                   -float("nan"))


def oracle_points(d: int, known=()) -> list:
    """The fixed input grid of the ``oracle/`` keys for dimension ``d``; ``known`` adds minimizers."""
    import numpy as np

    rng = np.random.default_rng(20)
    points = [np.asarray(x, dtype=float) for x in known]
    points += [scale * rng.standard_normal(d) for scale in 10.0 ** np.arange(-300, 151, 10) for _ in range(3)]
    specials = np.append(ORACLE_SPECIALS, np.array([0x7FF4000000000001], dtype=np.uint64).view(float))
    for u in specials:  # the last is a signalling NaN
        points.append(np.full(d, u))
        for i in range(d):
            x = rng.standard_normal(d)
            x[i] = u
            points.append(x)
        for v in specials:
            x = rng.standard_normal(d)
            x[0], x[-1] = u, v
            points.append(x)
    return points


def oracle_grid() -> dict:
    import warnings

    import numpy as np

    from optbench.core import make_problem

    def outcome(fn, x) -> bytes:
        try:
            y = fn(x.copy())
        except Exception as e:  # which inputs raise, and with what, is part of the compared behaviour
            return f"raises {type(e).__name__};".encode()
        if y is None:
            return b"None;"
        a = np.asarray(y)
        return f"{type(y).__name__} {a.dtype.str} {a.shape};".encode() + a.tobytes()

    out = {}
    for case, (name, params, seed) in ORACLE_CASES.items():
        oracle, _ = make_problem(name, params, seed)
        known = [m for m in (oracle.xstar, *(oracle.minimizers or ())) if m is not None]
        points = oracle_points(oracle.dim, known)
        g = oracle.constraint
        fns = {"value": oracle.value, "subgrad": oracle.subgrad, "grad": oracle.grad,
               "constraint-value": g and g.value, "constraint-subgrad": g and g.subgrad,
               "dist_to_opt": oracle.dist_to_opt}
        for kind, fn in fns.items():
            if fn is None:
                continue
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                data = b"".join(outcome(fn, x) for x in points)
            out[f"oracle/{case}/{kind}"] = {"sha256": hashlib.sha256(data).hexdigest()}
    return out


def sets_grid() -> dict:
    import warnings

    import numpy as np

    from optbench.core.sets import Ball, Box, FullSpace, Simplex

    inf, sub = float("inf"), 5e-324
    cases = {
        "fullspace-d1": FullSpace(1),
        "fullspace-d3": FullSpace(3),
        "box-d1": Box(np.array([-1.0]), np.array([2.0])),
        "box-d3": Box(np.array([-1.0, -0.0, -inf]), np.array([2.0, 0.0, inf])),
        "box-d3-signed-zero-subnormal": Box(np.array([0.0, -sub, 1.0]), np.array([-0.0, sub, 1.0])),
        "ball-d1": Ball(np.array([0.5]), 2.0),
        "ball-d3": Ball(np.array([1.0, -2.0, 0.5]), 1.5),
        "simplex-d1": Simplex(1),
        "simplex-d3": Simplex(3),
    }

    def outcome(fn, x, held) -> bytes:
        try:
            y = fn(x)
        except Exception as e:  # which inputs raise, and with what, is part of the compared behaviour
            return f"raises {type(e).__name__}: {e};".encode()
        a = np.asarray(y)
        shared = any(np.shares_memory(a, h) for h in (x, *held) if isinstance(h, np.ndarray))
        return f"{type(y).__name__} {a.dtype.str} {a.shape} shared={shared};".encode() + a.tobytes()

    out = {}
    for case, fset in cases.items():
        d = fset.dim
        held = [v for v in vars(fset).values() if isinstance(v, np.ndarray)]
        points = [x.copy() for x in oracle_points(d)]
        points += [list(range(1, d + 1)), np.zeros(d + 1), np.zeros((2, d))]
        for kind in ("project", "lmo"):
            fn = getattr(fset, kind)
            with warnings.catch_warnings(), np.errstate(all="ignore"):
                warnings.simplefilter("ignore")
                data = b"".join(outcome(fn, x, held) for x in points)
            out[f"sets/{case}/{kind}"] = {"sha256": hashlib.sha256(data).hexdigest()}
    return out


def cli_grid(tmp: str) -> dict:
    from catalog import make_configs
    from optbench.bench import cli
    from optbench.bench.rates import MODELS
    from optbench.core import make_problem

    os.environ.pop("OPT_SEED", None)
    config, trace = os.path.join(tmp, "config.json"), os.path.join(tmp, "trace.csv")

    def call(argv, with_trace=False, stream="stdout") -> dict:
        """Hash of one in-process call: exit code, masked output and the trace it wrote."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as e:  # argparse's own exit on a bad command line
                code = e.code
        text = (out if stream == "stdout" else err).getvalue().replace(tmp, "<tmp>")
        lines = text.splitlines()
        if argv[0] == "run":
            lines = ["wall_time : -" if line.startswith("wall_time") else line for line in lines]
        elif argv[0] == "compare":
            lines = [line.rsplit(None, 1)[0] for line in lines]  # time_s is the last column
        data = f"exit {code}\n".encode() + "\n".join(lines).encode()
        if with_trace:
            with open(trace, "rb") as fh:
                data += fh.read()
        return {"sha256": hashlib.sha256(data).hexdigest()}

    def write(doc):
        with open(config, "w") as fh:
            json.dump(doc, fh)

    out = {}
    for seed in CLI_SEEDS:
        for canon in make_configs(seed, make_problem):
            N, key = canon.iterations, f"cli/{canon.key}/seed{seed}"
            write(dict(canon.doc, budget={"iterations": N}, output={"record_every": 1}))
            if os.path.exists(trace):
                os.remove(trace)  # a failed run must not leave its rates a stale file
            out[f"{key}/run"] = call(["run", "--config", config, "--trace", trace], with_trace=True)
            if canon.rate is not None:
                for model in MODELS:
                    out[f"{key}/rates-{model}"] = call(["rates", "--trace", trace, "--model", model])
            write(dict(canon.doc, budget={"iterations": N}, output={"record_every": N + 1}))
            out[f"{key}/compare"] = call(["compare", "--configs", config])

    write({"problem": "quad_diag", "method": "gd", "iterations": 3})
    out["cli/error/short-run"] = call(["run", "--config", config, "--trace", trace], with_trace=True)
    with open(config, "w") as fh:
        fh.write('{"problem": "abs1d",\n "method": }')
    errors = {"unknown-subcommand": ["optimise", "--config", config],
              "missing-config": ["run", "--config", os.path.join(tmp, "none.json")],
              "bad-json": ["run", "--config", config],
              **{f"short-trace-{model}": ["rates", "--trace", trace, "--model", model] for model in MODELS}}
    for name, argv in errors.items():
        out[f"cli/error/{name}"] = call(argv, stream="stderr")
    write({"problem": "nope", "method": "gd", "iterations": 3})
    out["cli/error/unknown-problem"] = call(["run", "--config", config], stream="stderr")
    out["cli/list-methods"] = call(["list-methods"])
    return out


_PARSE_QUAD = {"name": "quad_diag", "params": {"lambdas": [2, 1]}}
# kind -> (a valid config's fields, the same with ints for floats, its mode key)
PARSE_NOISE = {
    "none": ({}, {}, "mode"),
    "absolute_grad": ({"delta": 0.1, "mode": "random_direction"}, {"delta": 1}, "mode"),
    "relative_grad": ({"alpha": 0.25, "mode": "grow"}, {"alpha": 0}, "mode"),
    "additive_stoch_grad": ({"sigma": 0.5, "distribution": "student_t3"}, {"sigma": 2}, "distribution"),
    "zo_bounded": ({"delta": 0.1, "mode": "random"}, {"delta": 1}, "mode"),
    "zo_stoch": ({"delta_tilde": 0.01}, {"delta_tilde": 1}, "mode"),
}
# problem -> (a parameter made non-finite, a bad value); None where the problem has no parameters
PARSE_PROBLEMS = {
    "abs1d": None,
    "l1_system": ("d", {"d": 6, "m": 4}),
    "norm2": ("a", {"a": "x"}),
    "quad_diag": ("lambdas", {"lambdas": [-1, 1]}),
    "fw_box": None,
    "degenerate3": ("l1", {"l1": 0.1, "l2": 1.0}),
    "rosenbrock": None,
    "nesterov_skokov_toy": None,
    "phase_retrieval": ("m", {"m": 0}),
    "slp": ("rho", {"rho": -1}),
    "logistic_small": ("box_radius", {"box_radius": -1}),
}
_STOCH = {"kind": "additive_stoch_grad", "sigma": 1.0}
# name -> config changes; each number is not a JSON number, or not whole where a whole number is meant
PARSE_NUMBERS = {
    "iterations-5.9": {"iterations": 5.9},
    "iterations-5.0": {"iterations": 5.0},
    "iterations-list": {"iterations": [3]},
    "iterations-quoted": {"iterations": "5"},
    "max_oracle_calls-2.5": {"budget": {"max_oracle_calls": 2.5}},
    "record_every-1.5": {"output": {"record_every": 1.5}},
    "seed-abc": {"problem": dict(_PARSE_QUAD, seed="abc")},
    "seed-2.5": {"problem": dict(_PARSE_QUAD, seed=2.5)},
    "seed-negative": {"problem": dict(_PARSE_QUAD, seed=-1)},
    "l1_system-d-2.7": {"problem": {"name": "l1_system", "params": {"d": 2.7, "m": 4}}},
    "phase_retrieval-n-5.0": {"problem": {"name": "phase_retrieval", "params": {"n": 5.0}}},
    "zo_stoch-delta_tilde-null": {"noise": {"kind": "zo_stoch", "delta_tilde": None}},
    "relative_grad-alpha-quoted": {"noise": {"kind": "relative_grad", "alpha": "0.1"}},
    "sgd-batch-1.5": {"noise": _STOCH, "method": {"name": "sgd", "params": {"gamma": 0.1, "batch": 1.5}}},
    "sgd-batch-2.0": {"noise": _STOCH, "method": {"name": "sgd", "params": {"gamma": 0.1, "batch": 2.0}}},
    "zo_sgd-beta-2.5": {"noise": {"kind": "zo_stoch", "delta_tilde": 0.01},
                        "method": {"name": "zo_sgd", "params": {"gamma": 0.1, "beta": 2.5}}},
    "restarted_switching-stage_cap-3.5": {"problem": "slp", "method": {
        "name": "restarted_switching", "params": {"theta0": 2.0, "eps": 0.1, "stage_cap": 3.5}}},
}
# name -> config changes that give a method a key its run does not read
PARSE_KEYS = {
    "const_subgrad-tol": {"problem": "abs1d", "method": {"name": "const_subgrad", "params": {"h": 0.1, "tol": 1000}}},
    "gd_rel_adaptive-L": {"noise": {"kind": "relative_grad", "alpha": 0.25},
                          "method": {"name": "gd_rel_adaptive", "params": {"L": 1e-300}}},
}


def _without(doc: dict, key: str) -> dict:
    return {k: v for k, v in doc.items() if k != key}


def parse_grid() -> dict:
    from optbench.bench.config import parse_config

    def parse(key, doc):
        def run():
            return {"sha256": hashlib.sha256(repr(parse_config(json.dumps(doc))).encode()).hexdigest()}
        out[f"parse/{key}"] = _guarded(run)

    out = {}
    base = {"problem": _PARSE_QUAD, "method": "gd", "iterations": 5}
    for kind, (fields, ints, mode_key) in PARSE_NOISE.items():
        valid = dict(fields, kind=kind)
        cases = {"valid": valid, "unknown-key": dict(valid, bogus=1), "bad-mode": dict(valid, **{mode_key: "bogus"}),
                 "ints": dict(valid, **ints), "v-without-mode": _without(valid, "mode") | {"v": [0.1, 0.0]},
                 **{f"missing-{name}": _without(valid, name) for name in fields}}
        for case, noise in cases.items():
            parse(f"noise/{kind}/{case}", dict(base, noise=noise))
    base = {"method": "polyak_subgrad", "iterations": 5}
    for name, bad in PARSE_PROBLEMS.items():
        cases = {"defaults": {}, "unknown-param": {"bogus": 1}}
        if bad is not None:
            cases.update({"non-finite": {bad[0]: float("nan")}, "bad-value": bad[1]})
        for case, params in cases.items():
            parse(f"problem/{name}/{case}", dict(base, problem={"name": name, "params": params}))
    for case, changes in PARSE_NUMBERS.items():
        parse(f"number/{case}", {**base, "problem": _PARSE_QUAD, **changes})
    for case, changes in PARSE_KEYS.items():
        parse(f"key/{case}", {**base, "problem": _PARSE_QUAD, **changes})
    return out


_ZO = {"kind": "zo_stoch", "delta_tilde": 0.01}
# SGD step-rule kind -> a valid rule's keys on quad_diag [2, 1], which has mu = 1 and no M
VARIANT_RULES = {
    "const": {"gamma": 0.1},
    "budget_const": {"R": 1.0, "M": 2.0},
    "inv_k": {"mu": 1.0},
    "adagrad_norm": {"R": 1.0},
    "decay": {"gamma0": 0.3, "eta": 0.7},
}
# name -> (problem, method, params): SGD rule kinds, problem constants, Frank-Wolfe rules,
# restarted-switching stage caps below and above the 3 iterations
VARIANT_CASES = {
    "sgd/default-kind": (_PARSE_QUAD, "sgd", {"gamma": 0.1}),
    "sgd/unknown-kind": (_PARSE_QUAD, "sgd", {"step_rule": "bogus", "gamma": 0.1}),
    "sgd/null-kind": (_PARSE_QUAD, "sgd", {"step_rule": None, "gamma": 0.1}),
    "sgd/list-kind": (_PARSE_QUAD, "sgd", {"step_rule": ["const"], "gamma": 0.1}),
    "sgd/const/other-kinds-keys": (_PARSE_QUAD, "sgd", {"gamma": 0.1, "R": 5.0, "eta": 0.9}),
    "sgd/const/bad-value": (_PARSE_QUAD, "sgd", {"gamma": -1.0}),
    "sgd/decay/bad-value": (_PARSE_QUAD, "sgd", {"step_rule": "decay", "gamma0": 0.3, "eta": 0.4}),
    "sgd/budget_const/missing-R-and-M": (_PARSE_QUAD, "sgd", {"step_rule": "budget_const"}),
    "sgd/budget_const/fw_box-fills-M": ("fw_box", "sgd", {"step_rule": "budget_const", "R": 1.0}),
    "sgd/budget_const/fw_box-null-M": ("fw_box", "sgd", {"step_rule": "budget_const", "R": 1.0, "M": None}),
    "sgd/inv_k/fw_box-fills-mu": ("fw_box", "sgd", {"step_rule": "inv_k"}),
    "sgd/inv_k/fw_box-null-mu": ("fw_box", "sgd", {"step_rule": "inv_k", "mu": None}),
    "sgd/inv_k/lacks-mu": ("nesterov_skokov_toy", "sgd", {"step_rule": "inv_k"}),
    "sgd/inv_k/lacks-mu-null": ("nesterov_skokov_toy", "sgd", {"step_rule": "inv_k", "mu": None}),
    "frank_wolfe/default-kind": ("fw_box", "frank_wolfe", {}),
    "frank_wolfe/classic": ("fw_box", "frank_wolfe", {"step_rule": "classic"}),
    "frank_wolfe/classic/with-L": ("fw_box", "frank_wolfe", {"step_rule": "classic", "L": 2.0}),
    "frank_wolfe/short": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": 3.0}),
    "frank_wolfe/short/missing-L": ("fw_box", "frank_wolfe", {"step_rule": "short"}),
    "frank_wolfe/short/null-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": None}),
    "frank_wolfe/short/quoted-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": "2"}),
    "frank_wolfe/short/bad-L": ("fw_box", "frank_wolfe", {"step_rule": "short", "L": -1.0}),
    "frank_wolfe/unknown-kind": ("fw_box", "frank_wolfe", {"step_rule": "bogus"}),
    "frank_wolfe/null-kind": ("fw_box", "frank_wolfe", {"step_rule": None}),
    "frank_wolfe/list-kind": ("fw_box", "frank_wolfe", {"step_rule": ["short"]}),
    "restarted_switching/no-stage_cap": ("slp", "restarted_switching", {"eps": 0.05, "theta0": 1.0, "alpha": 0.5}),
    "restarted_switching/stage_cap-2": ("slp", "restarted_switching",
                                        {"eps": 0.05, "theta0": 1.0, "alpha": 0.5, "stage_cap": 2}),
    "restarted_switching/stage_cap-100": ("slp", "restarted_switching",
                                          {"eps": 0.05, "theta0": 1.0, "alpha": 0.5, "stage_cap": 100}),
}
MOMENTUM_VARIANTS = ("heavy_ball", "chebyshev", "nesterov_sc", "nesterov_cvx", "taylor_drori")
# case -> (problem, params); rosenbrock has neither L nor mu, quad_diag [2, 1] has L = 2 and mu = 1
MOMENTUM_CASES = {
    "from-problem": (_PARSE_QUAD, {}),
    "null-mu": (_PARSE_QUAD, {"mu": None}),
    "missing-L": ("rosenbrock", {}),
    "missing-mu": ("rosenbrock", {"L": 2.0}),
    "mu-zero": ("rosenbrock", {"L": 2.0, "mu": 0.0}),
    "mu-equals-L": ("rosenbrock", {"L": 2.0, "mu": 2.0}),
    "mu-above-L": ("rosenbrock", {"L": 2.0, "mu": 3.0}),
}


def variant_grid(tmp: str) -> dict:
    """``parse/variant/...``: each method variant's keys parsed, then run for 3 iterations."""
    from optbench.bench.config import parse_config
    from optbench.bench.runner import run_experiment

    path = os.path.join(tmp, "trace.json")
    noises = {"sgd": _STOCH, "zo_sgd": _ZO}
    cases = dict(VARIANT_CASES)
    for (method, noise), (kind, keys) in itertools.product(noises.items(), VARIANT_RULES.items()):
        rule = dict(keys, step_rule=kind)
        cases[f"{method}/{kind}/valid"] = (_PARSE_QUAD, method, rule)
        for name, value in keys.items():
            cases[f"{method}/{kind}/missing-{name}"] = (_PARSE_QUAD, method, _without(rule, name))
            cases[f"{method}/{kind}/null-{name}"] = (_PARSE_QUAD, method, dict(rule, **{name: None}))
            cases[f"{method}/{kind}/quoted-{name}"] = (_PARSE_QUAD, method, dict(rule, **{name: str(value)}))
    for variant, (case, (problem, params)) in itertools.product(MOMENTUM_VARIANTS, MOMENTUM_CASES.items()):
        cases[f"momentum/{variant}/{case}"] = (problem, variant, params)

    out = {}
    for key, (problem, method, params) in cases.items():
        doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": 3,
               "output": {"record_x": True}}
        if method in noises:
            doc["noise"] = noises[method]

        def run(doc=doc):
            spec = parse_config(json.dumps(doc))
            _, summary = run_experiment(spec, trace_path=path)
            with open(path, "rb") as fh:
                data = repr(spec).encode() + fh.read()
            return {"sha256": hashlib.sha256(data).hexdigest(), "oracle_calls": summary["oracle_calls"]}

        out[f"parse/variant/{key}"] = _guarded(run)
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = os.path.abspath(argv[0])
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**catalog_grid(tmp), **zero_grid(tmp), **sgd_zo_grid(tmp), **stop_grid(tmp), **estimator_grid(),
                   **csv_grid(tmp), **cli_grid(tmp), **parse_grid(), **variant_grid(tmp), **oracle_grid(),
                   **sets_grid(), **subgrad_grid(tmp), **diverge_grid(tmp)}
    json.dump(digests, sys.stdout, indent=0, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
