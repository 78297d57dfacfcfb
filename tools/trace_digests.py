"""Print a digest of every trace over two fixed run grids, for before/after comparison.

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
  {FullSpace, Box}, and ``run_zo_sgd`` over the five step rules x both
  tau schedules x beta {2, 4} x batch {1, 3} x {FullSpace, Box}; each
  with ``record_every`` in {1, 7} and ``max_oracle_calls`` in
  {none, 40} (800 runs);
* ``stop/...``: eight configs tuned to reach their method's own stop
  test (``cg_quadratic``, ``frank_wolfe`` with either step rule,
  ``gd_rel_adaptive``, ``polyak_subgrad``, ``heavy_ball`` and
  ``taylor_drori`` with a positive ``tol``, and ``gd_abs``'s early
  stop), for seeds 1-2 with ``record_every`` in {1, 7, N+1} and
  ``max_oracle_calls`` in {none, 3, 40, 333}, run through
  ``run_experiment`` (192 runs).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import sys
import tempfile

SEEDS = (1, 2, 3, 4)
CATALOG_BUDGETS = (None, 3, 40, 333)
GRID_N = 60
GRID_BUDGETS = (None, 40)
STOP_SEEDS = (1, 2)
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


def _digest(path: str, oracle_calls: int) -> dict:
    with open(path, "rb") as fh:
        return {"sha256": hashlib.sha256(fh.read()).hexdigest(), "oracle_calls": oracle_calls}


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

    def digest(key, call):
        def run():
            trace = call()
            write_trace(trace, path, "json")
            return _digest(path, trace.final.oracle_calls)
        out[key] = _guarded(run)

    runs = itertools.product(rules.items(), sets.items(), (1, 3), (1, 7), GRID_BUDGETS)
    for (rname, rule), (sname, fset), batch, every, budget in runs:
        kw = dict(record_every=every, record_x=True, max_oracle_calls=budget)
        tail = f"{sname}/batch{batch}/every{every}/budget{budget}"
        for (aname, avg), clip in itertools.product(averaging.items(), (None, 0.5)):
            noisy = wrap_noise(oracle, AdditiveStochGrad(sigma=0.5), Rng(11))
            cfg = st.SgdConfig(N=GRID_N, step_rule=rule, batch=batch, clip_lambda=clip, averaging=avg)
            digest(f"sgd/{rname}/{aname}/clip{clip}/{tail}",
                   lambda: st.run_sgd(noisy, fset, x0, cfg, Rng(12), **kw))
        for (tname, tau), beta in itertools.product(taus.items(), (2, 4)):
            noisy = wrap_noise(oracle, ZOStochValue(0.01), Rng(21))
            cfg = zo.ZoConfig(N=GRID_N, step_rule=rule, kernel=zo.build_kernel(beta),
                              tau_schedule=tau, batch=batch)
            digest(f"zo/{rname}/tau-{tname}/beta{beta}/{tail}",
                   lambda: zo.run_zo_sgd(noisy, fset, x0, cfg, Rng(22), **kw))
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().split("\n\n")[1], file=sys.stderr)
        return 2
    checkout = os.path.abspath(argv[0])
    sys.path[:0] = [os.path.join(checkout, "src"), os.path.join(checkout, "benchmarks")]
    with tempfile.TemporaryDirectory() as tmp:
        digests = {**catalog_grid(tmp), **sgd_zo_grid(tmp), **stop_grid(tmp)}
    json.dump(digests, sys.stdout, indent=0, sort_keys=True)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
