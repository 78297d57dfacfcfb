"""Refusals no other test reaches: each raises its own error type with its own text.

One row per refusal: the call, the error type it must raise and a
regular expression its whole message must match (an exact text, escaped,
wherever the message holds nothing that varies).
"""

import json
import os
import re
from unittest import mock

import numpy as np
import pytest

from optbench import frankwolfe, momentum, smooth, stochastic, subgrad, zeroorder
from optbench.bench import ConfigError, cli, fit_rate, parse_config, read_trace, write_trace
from optbench.core import (AbsoluteGrad, AdditiveStochGrad, Ball, Box, ConstraintOracle, FullSpace, OracleSuite,
                           RelativeGrad, Rng, Simplex, Trace, TraceRow, ZOBoundedValue, ZeroSubgradientError,
                           make_problem)


def _quad():
    return make_problem("quad_diag", {"lambdas": [2.0, 1.0]})[0]


def _suite(**constants):
    """A 1-d suite of f(x) = |x| with only the entries and constants given."""
    return OracleSuite(value=lambda x: float(abs(x[0])), subgrad=lambda x: np.sign(x), dim=1, **constants)


def _nonproductive_zero_subgrad():
    """Switching on a constraint g = 1 everywhere, whose subgradient is 0: the first step is nonproductive."""
    constraint = ConstraintOracle(value=lambda x: 1.0, subgrad=lambda x: np.zeros(1), lipschitz=1.0)
    suite = _suite(constraint=constraint)
    return subgrad.run_switching(suite, FullSpace(1), [1.0], subgrad.SwitchingConfig(delta=0.1))


def _parse(**doc):
    return parse_config(json.dumps({"problem": "quad_diag", "method": "gd", "iterations": 5, **doc}))


def _parse_method(method, params, **doc):
    return _parse(method={"name": method, "params": params}, **doc)


def _load_spec(tmp_path, env=None, path=None):
    """``cli._load_spec`` on a valid config file (or ``path``), with ``env`` set in the environment."""
    if path is None:
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"problem": "quad_diag", "method": "gd", "iterations": 5}))
    with mock.patch.dict(os.environ, env or {}):
        return cli._load_spec(str(path))


def _csv(tmp_path, text):
    path = tmp_path / "t.csv"
    path.write_text(text)
    return read_trace(str(path))


_TRACE = Trace([TraceRow(0, 1.0, 1.0, None, None, 0.0, 1)])


def _exact(text):
    return re.escape(text)


# id -> (call taking tmp_path, error type, pattern of the whole message)
REFUSALS = {
    # step rules, configs and entry points of the methods
    "sgd/const-gamma": (lambda t: stochastic.Const(0.0), ValueError, _exact("gamma must be positive")),
    "sgd/budget_const-M": (lambda t: stochastic.BudgetConst(M=0.0, R=1.0), ValueError,
                           _exact("R and M must be positive")),
    "sgd/inv_k-mu": (lambda t: stochastic.InvK(0.0), ValueError, _exact("mu must be positive")),
    "sgd/adagrad_norm-R": (lambda t: stochastic.AdaGradNorm(-1.0), ValueError, _exact("R must be positive")),
    "sgd/config-N": (lambda t: stochastic.SgdConfig(N=-1, step_rule=stochastic.Const(0.1)), ValueError,
                     _exact("N must be >= 0")),
    "sgd/config-batch": (lambda t: stochastic.SgdConfig(N=1, step_rule=stochastic.Const(0.1), batch=0), ValueError,
                         _exact("batch must be >= 1")),
    "sgd/clip-lambda": (lambda t: stochastic.clip(np.ones(2), 0.0), ValueError, _exact("lambda must be positive")),
    "sgd/no-stoch_grad": (lambda t: stochastic.run_sgd(_quad(), FullSpace(2), [1.0, 1.0],
                                                       stochastic.SgdConfig(N=1, step_rule=stochastic.Const(0.1)),
                                                       Rng(0)),
                          ValueError,
                          _exact("run_sgd needs a stochastic gradient oracle (wrap with AdditiveStochGrad)")),
    "sgd/tail-fraction": (lambda t: stochastic.TailAvg(0.0), ValueError, _exact("tail fraction must lie in (0, 1]")),
    "sgd/monte_carlo-vector": (lambda t: stochastic.monte_carlo_mean_cov(lambda rng: np.zeros((1, 1)), 2, seed=0),
                               ValueError, _exact("run_fn must return a vector per replica")),
    "sgd/monte_carlo-replicas": (lambda t: stochastic.monte_carlo_mean_cov(lambda rng: np.zeros(1), 1, seed=0),
                                 ValueError, _exact("need at least 2 replicas")),
    "zo/estimate-batch": (lambda t: zeroorder.kernel_grad_estimate(_quad(), np.zeros(2), 0.1,
                                                                   zeroorder.build_kernel(2), Rng(0), batch=0),
                          ValueError, _exact("batch must be >= 1")),
    "zo/config-N": (lambda t: zeroorder.ZoConfig(N=-1, step_rule=stochastic.Const(0.1),
                                                 kernel=zeroorder.build_kernel(2)),
                    ValueError, _exact("N must be >= 0")),
    "zo/config-batch": (lambda t: zeroorder.ZoConfig(N=1, step_rule=stochastic.Const(0.1),
                                                     kernel=zeroorder.build_kernel(2), batch=0),
                        ValueError, _exact("batch must be >= 1")),
    "subgrad/fixed-h": (lambda t: subgrad.FixedStep(0.0), ValueError, _exact("step must be positive")),
    "subgrad/budget-M": (lambda t: subgrad.BudgetStep(M=0.0, R=1.0), ValueError,
                         _exact("M and R must be positive")),
    "subgrad/config-N": (lambda t: subgrad.SubgradConfig(subgrad.FixedStep(0.1), N=0), ValueError,
                         _exact("budget N must be >= 1, or >= 0 with the Polyak step")),
    "subgrad/polyak-rule": (lambda t: subgrad.run_polyak_subgrad(_suite(fstar=0.0), FullSpace(1), [1.0],
                                                                 subgrad.SubgradConfig(subgrad.FixedStep(0.1), N=1)),
                            ValueError, _exact("run_polyak_subgrad requires a PolyakStep rule")),
    "subgrad/const-rule": (lambda t: subgrad.run_const_subgrad(_suite(), FullSpace(1), [1.0],
                                                               subgrad.SubgradConfig(subgrad.PolyakStep(), N=1)),
                           ValueError, _exact("run_const_subgrad requires FixedStep or BudgetStep")),
    "subgrad/switching-zero-constraint-subgrad": (lambda t: _nonproductive_zero_subgrad(), ZeroSubgradientError,
                                                  _exact("zero constraint subgradient on a nonproductive step")),
    "subgrad/restarted-alpha": (
        lambda t: subgrad.run_restarted_switching(
            _suite(alpha_sharp=0.0, constraint=ConstraintOracle(lambda x: 0.0, lambda x: np.zeros(1), 1.0)),
            FullSpace(1), [1.0], subgrad.SwitchingConfig(eps_target=0.1)),
        ValueError, _exact("a positive sharp-minimum constant is required")),
    "subgrad/restarted-eps": (
        lambda t: subgrad.run_restarted_switching(
            _suite(constraint=ConstraintOracle(lambda x: 0.0, lambda x: np.zeros(1), 1.0)),
            FullSpace(1), [1.0], subgrad.SwitchingConfig(alpha_sharp=1.0)),
        ValueError, _exact("eps_target is required for the restarted scheme")),
    "smooth/abs-stop_multiplier": (lambda t: smooth.AbsNoise(0.1, stop_multiplier=-1.0), ValueError,
                                   _exact("stop multiplier must be >= 0")),
    "smooth/rel-alpha": (lambda t: smooth.RelNoise(1.0), ValueError,
                         _exact("relative error level alpha must lie in [0, 1)")),
    "smooth/config-N": (lambda t: smooth.SmoothRunConfig(N=-1), ValueError, _exact("budget N must be >= 0")),
    "smooth/gd-L": (lambda t: smooth.run_gd(_suite(grad=np.sign, L=0.0), [1.0], smooth.SmoothRunConfig(N=1)),
                    ValueError, _exact("a positive smoothness constant L is required (config or oracle)")),
    "smooth/adaptive-mode": (lambda t: smooth.run_gd_rel_adaptive(_quad(), [1.0, 1.0], smooth.SmoothRunConfig(N=1)),
                             ValueError, _exact("run_gd_rel_adaptive expects mode RelNoiseAdaptive")),
    "momentum/config-N": (lambda t: momentum.MomentumConfig("heavy_ball", N=-1), ValueError,
                          _exact("budget N must be >= 0")),
    "momentum/chebyshev-deltas": (lambda t: momentum.chebyshev_delta_sequence(1.0, 2.0, 3), ValueError,
                                  _exact("requires L > mu > 0")),
    "momentum/cg-N": (lambda t: momentum.run_cg_quadratic(_quad(), [1.0, 1.0], -1), ValueError,
                      _exact("budget N must be >= 0")),
    "fw/config-N": (lambda t: frankwolfe.FwConfig(N=0), ValueError, _exact("N must be >= 1")),
    "fw/short-L": (lambda t: frankwolfe.run_fw(_suite(grad=np.sign, L=0.0), Box(-np.ones(1), np.ones(1)), [0.5],
                                               frankwolfe.FwConfig(N=1, step_rule=frankwolfe.ShortStep())),
                   ValueError, _exact("ShortStep requires a positive L (config or oracle)")),
    "fw/gap-no-grad": (lambda t: frankwolfe.fw_gap(_suite(), Box(-np.ones(1), np.ones(1)), [0.5]), ValueError,
                       _exact("fw_gap needs a gradient oracle")),
    # noise models
    "noise/absolute-mode": (lambda t: AbsoluteGrad(0.1, mode="bogus"), ValueError,
                            _exact("unknown AbsoluteGrad mode 'bogus'")),
    "noise/absolute-fixed-without-v": (lambda t: AbsoluteGrad(0.1, mode="fixed"), ValueError,
                                       _exact("fixed mode requires the perturbation vector v")),
    "noise/relative-mode": (lambda t: RelativeGrad(0.1, mode="bogus"), ValueError,
                            _exact("unknown RelativeGrad mode 'bogus'")),
    "noise/additive-distribution": (lambda t: AdditiveStochGrad(0.1, distribution="bogus"), ValueError,
                                    _exact("unknown distribution 'bogus'")),
    "noise/zo_bounded-mode": (lambda t: ZOBoundedValue(0.1, mode="bogus"), ValueError,
                              _exact("unknown ZOBoundedValue mode 'bogus'")),
    # catalog problems
    "problems/quad_diag-shift": (lambda t: make_problem("quad_diag", {"lambdas": [1, 2], "shift": [1, 2, 3]}),
                                 ValueError, _exact("problem 'quad_diag': shift must match the dimension of lambdas")),
    "problems/slp-rho": (lambda t: make_problem("slp", {"rho": -1}), ValueError,
                         _exact("problem 'slp': rho must be positive")),
    # feasible sets
    "sets/full-space-d": (lambda t: FullSpace(0), ValueError, _exact("dimension must be >= 1")),
    "sets/box-shapes": (lambda t: Box(np.zeros(2), np.ones(3)), ValueError,
                        _exact("lo and hi must be 1-d arrays of equal length")),
    "sets/ball-center": (lambda t: Ball(np.zeros((2, 2)), 1.0), ValueError, _exact("center must be a 1-d array")),
    "sets/simplex-d": (lambda t: Simplex(0), ValueError, _exact("dimension must be >= 1")),
    # configs, the CLI and trace files
    "config/not-an-object": (lambda t: parse_config("[1]"), ConfigError, _exact("config must be a JSON object")),
    "config/noise-not-an-object": (lambda t: _parse(noise=5), ConfigError,
                                   _exact("noise must be an object with a 'kind' key")),
    "config/noise-missing-field": (lambda t: _parse(noise={"kind": "additive_stoch_grad"}), ConfigError,
                                   _exact("noise kind 'additive_stoch_grad': missing required field 'sigma'")),
    "config/problem-without-name": (lambda t: _parse(problem={"params": {}}), ConfigError,
                                    _exact("problem: missing required field 'name'")),
    "config/missing-method": (lambda t: parse_config('{"problem": "quad_diag", "iterations": 5}'), ConfigError,
                              _exact("missing required field 'method'")),
    "config/method-without-name": (lambda t: _parse(method={"params": {}}), ConfigError,
                                   _exact("method: missing required field 'name'")),
    "config/x0-not-a-list": (lambda t: _parse(x0=5), ConfigError, _exact("x0 must be a flat list of numbers")),
    "config/sgd-step_rule": (lambda t: _parse_method("sgd", {"step_rule": "bogus"}, noise={
        "kind": "additive_stoch_grad", "sigma": 0.1}), ConfigError,
        _exact("method 'sgd': unknown step_rule 'bogus' (const | budget_const | inv_k | adagrad_norm | decay)")),
    "config/sgd-averaging": (lambda t: _parse_method("sgd", {"gamma": 0.1, "averaging": "bogus"}, noise={
        "kind": "additive_stoch_grad", "sigma": 0.1}), ConfigError,
        _exact("method 'sgd': unknown averaging mode 'bogus' (none | uniform | tail)")),
    "config/const_subgrad-step": (lambda t: _parse_method("const_subgrad", {}), ConfigError,
                                  _exact("method 'const_subgrad': give either a step 'h' or a radius 'R' "
                                         "(with optional 'M')")),
    "config/gd_abs-delta": (lambda t: _parse_method("gd_abs", {}), ConfigError,
                            _exact("method 'gd_abs': delta not given and no absolute_grad noise configured")),
    "cli/unreadable-config": (lambda t: _load_spec(t, path=t / "nope.json"), ConfigError,
                              r"cannot read config .*nope\.json: \[Errno 2\] No such file or directory: .*"),
    "cli/opt_seed-not-an-integer": (lambda t: _load_spec(t, env={"OPT_SEED": "x"}), ConfigError,
                                    _exact("OPT_SEED must be an integer, got 'x'")),
    "trace/write-format": (lambda t: write_trace(_TRACE, str(t / "t.out"), format="xml"), ValueError,
                           _exact("unknown trace format 'xml'; choose from ('csv', 'json')")),
    "trace/read-csv-header": (lambda t: _csv(t, "a,b\n1,2\n"), ValueError,
                              r".*t\.csv: not a trace CSV \(bad header\)"),
    "rates/window": (lambda t: fit_rate(_TRACE, "sublinear", window=0.0), ValueError,
                     _exact("window must lie in (0, 1]")),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_each_refusal_raises_its_type_with_its_text(case, tmp_path):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert type(caught.value) is error
    assert re.fullmatch(message, str(caught.value)), str(caught.value)
