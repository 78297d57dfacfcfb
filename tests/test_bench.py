import collections
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import re
import stat
import subprocess
import sys
import warnings

import numpy as np
import pytest

import optbench
from optbench import frankwolfe, momentum, stochastic, subgrad
from optbench.bench import (
    ConfigError,
    InsufficientDataError,
    build_method,
    fit_rate,
    parse_config,
    read_trace,
    run_experiment,
    write_trace,
)
from optbench.bench.cli import main
from optbench.bench.registry import method_entry, method_names
from optbench.bench.tracefile import FORMATS
from optbench.core import (AdditiveStochGrad, Rng, RunStatus, Trace, TraceRecorder, TraceRow, make_problem, problem_names,
                           wrap_noise)
from optbench.bench import runner
from optbench.core import oracles
from optbench.zeroorder import PowerDecayTau

# The modules that build a TraceRecorder: run_steps' module, which runs every method.
RECORDER_MODULES = (oracles,)


# -- config parsing --------------------------------------------------------------

def test_parse_minimal_config():
    spec = parse_config('{"problem": "abs1d", "method": "polyak_subgrad", "iterations": 100}')
    assert spec.problem_name == "abs1d" and spec.method_name == "polyak_subgrad"
    assert spec.iterations == 100 and spec.seed == 0
    assert spec.record_every == 1 and spec.record_x is False
    assert spec.max_oracle_calls is None


def test_parse_full_config():
    text = json.dumps({
        "problem": {"name": "quad_diag", "params": {"lambdas": [4, 1]}, "seed": 3},
        "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "shrink"},
        "method": {"name": "gd_rel", "params": {"alpha": 0.25}},
        "budget": {"iterations": 50, "max_oracle_calls": 500},
        "output": {"trace_path": None, "record_every": 2, "record_x": True},
        "x0": [1.0, 1.0],
    })
    spec = parse_config(text)
    assert spec.seed == 3 and spec.max_oracle_calls == 500
    assert spec.record_every == 2 and spec.record_x
    assert spec.noise.alpha == 0.25


def test_parse_rejects_unknown_keys_everywhere():
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config('{"problem": "abs1d", "method": "gd", "iterations": 5, "bogus": 1}')
    with pytest.raises(ConfigError, match="unknown keys"):
        parse_config('{"problem": {"name": "abs1d", "noise": 1}, "method": "gd", "iterations": 5}')
    with pytest.raises(ConfigError, match="unknown params"):
        parse_config('{"problem": "abs1d", "method": {"name": "polyak_subgrad", '
                     '"params": {"what": 1}}, "iterations": 5}')
    # keys a method's run would not read
    with pytest.raises(ConfigError, match=r"unknown params \['tol'\]"):
        parse_config('{"problem": "abs1d", "method": {"name": "const_subgrad", '
                     '"params": {"h": 0.1, "tol": 1000}}, "iterations": 5}')
    with pytest.raises(ConfigError, match=r"unknown params \['L'\]"):
        parse_config('{"problem": "rosenbrock", "noise": {"kind": "relative_grad", "alpha": 0.25}, '
                     '"method": {"name": "gd_rel_adaptive", "params": {"L": 1e-300}}, "iterations": 5}')


def test_parse_unknown_method_lists_available():
    with pytest.raises(ConfigError, match="available: .*polyak_subgrad"):
        parse_config('{"problem": "abs1d", "method": "foo", "iterations": 5}')


def test_parse_unknown_problem_lists_available():
    with pytest.raises(ConfigError, match="available: .*quad_diag"):
        parse_config('{"problem": "nope", "method": "gd", "iterations": 5}')


def test_cli_unknown_problem_error_is_unquoted(tmp_path, capsys):
    doc = {"problem": "nope", "method": "gd", "iterations": 3}
    assert main(["run", "--config", write_cfg(tmp_path, "nope.json", doc)]) == 2
    assert capsys.readouterr().err.startswith("error: unknown problem 'nope'; available: ")


def test_parse_missing_fields_are_named():
    with pytest.raises(ConfigError, match="'problem'"):
        parse_config('{"method": "gd", "iterations": 5}')
    with pytest.raises(ConfigError, match="'iterations'"):
        parse_config('{"problem": "abs1d", "method": "gd"}')


def test_parse_error_reports_line():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config('{\n  "problem": }')


def test_parse_validates_adaptive_alpha():
    text = ('{"problem": {"name": "quad_diag", "params": {"lambdas": [4, 1]}}, '
            '"method": {"name": "gd_rel_adaptive", "params": {"alpha": 0.6}}, '
            '"iterations": 10}')
    with pytest.raises(ConfigError, match="alpha < 0.5"):
        parse_config(text)


QUAD = {"name": "quad_diag", "params": {"lambdas": [2, 1]}}
STOCH = {"kind": "additive_stoch_grad", "sigma": 1.0}
ZO = {"kind": "zo_stoch", "delta_tilde": 0.01}


@pytest.mark.parametrize("noise, method, params", [
    (STOCH, "sgd", {"step_rule": "decay", "gamma0": 0}),
    (STOCH, "sgd", {}),
    (STOCH, "sgd", {"gamma": 0.1, "batch": 0}),
    (STOCH, "sgd", {"gamma": 0.1, "clip_lambda": -1}),
    (ZO, "zo_sgd", {"gamma": 0.01, "tau": -1}),
    (ZO, "zo_sgd", {"gamma": 0.01, "beta": 7}),
    (None, "gd_rel", {}),              # neither alpha nor relative_grad noise
    (None, "const_subgrad", {"R": 1.0}),  # quad_diag has no known M
], ids=["sgd-decay-gamma0-0", "sgd-no-gamma", "sgd-batch-0", "sgd-clip-negative",
        "zo_sgd-tau-negative", "zo_sgd-beta-7", "gd_rel-no-alpha", "const_subgrad-no-M"])
def test_parse_rejects_params_that_fail_to_build(noise, method, params):
    doc = {"problem": QUAD, "method": {"name": method, "params": params}, "iterations": 10}
    if noise is not None:
        doc["noise"] = noise
    with pytest.raises(ConfigError, match=f"method '{method}': "):
        parse_config(json.dumps(doc))


# case -> (problem, noise, method, params, the keys of an alternative not picked, the alternative picked)
STRAY_KEYS = {
    "sgd-const-other-kinds-keys": (QUAD, STOCH, "sgd", {"gamma": 0.1, "R": 2, "eta": 0.9}, ["R", "eta"],
                                   "step_rule 'const'"),
    "zo_sgd-const-other-kinds-keys": (QUAD, ZO, "zo_sgd", {"gamma": 0.01, "gamma0": 0.3}, ["gamma0"],
                                      "step_rule 'const'"),
    "frank_wolfe-classic-L": ("fw_box", None, "frank_wolfe", {"step_rule": "classic", "L": -5}, ["L"],
                              "step_rule 'classic'"),
    "const_subgrad-h-R": (QUAD, None, "const_subgrad", {"h": 0.1, "R": 1.0}, ["R"], "step 'h'"),
    "const_subgrad-h-M": (QUAD, None, "const_subgrad", {"h": 0.1, "M": 2.0}, ["M"], "step 'h'"),
    "sgd-uniform-tail_fraction": (QUAD, STOCH, "sgd", {"gamma": 0.1, "averaging": "uniform", "tail_fraction": 0.3},
                                  ["tail_fraction"], "averaging 'uniform'"),
    "zo_sgd-tau0-tau": (QUAD, ZO, "zo_sgd", {"gamma": 0.01, "tau0": 0.2, "tau": 0.01}, ["tau"],
                        "a decaying tau ('tau0')"),
    "zo_sgd-tau-tau_exponent": (QUAD, ZO, "zo_sgd", {"gamma": 0.01, "tau": 0.01, "tau_exponent": 0.5},
                                ["tau_exponent"], "a constant tau (no 'tau0')"),
}


@pytest.mark.parametrize("case", STRAY_KEYS)
def test_keys_of_an_alternative_not_picked_are_refused(tmp_path, capsys, case):
    problem, noise, method, params, stray, choice = STRAY_KEYS[case]
    doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": 10}
    if noise is not None:
        doc["noise"] = noise
    message = f"method '{method}': params {stray} do not apply to {choice}"
    with pytest.raises(ConfigError) as err:
        parse_config(json.dumps(doc))
    assert str(err.value) == message
    assert main(["run", "--config", write_cfg(tmp_path, "stray.json", doc)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    doc["method"]["params"] = dict(params, **dict.fromkeys(stray))  # a null reads as omitted
    parse_config(json.dumps(doc))


NAN, INF = float("nan"), float("inf")


SGD_CLIP_NAN = {"name": "sgd", "params": {"gamma": 0.1, "clip_lambda": NAN}}


@pytest.mark.parametrize("noise, method, message", [
    ({"kind": "additive_stoch_grad", "sigma": NAN}, "gd", "sigma must be finite"),
    ({"kind": "additive_stoch_grad", "sigma": INF}, "gd", "sigma must be finite"),
    ({"kind": "additive_stoch_grad", "sigma": -1.0}, "gd", "sigma must be finite and >= 0"),
    ({"kind": "absolute_grad", "delta": NAN}, "gd", "delta must be finite"),
    ({"kind": "absolute_grad", "delta": INF, "v": [1.0, 0.0]}, "gd", "delta must be finite"),
    ({"kind": "absolute_grad", "delta": 1.0, "v": [NAN, 0.0]}, "gd", "must not exceed delta"),
    ({"kind": "relative_grad", "alpha": NAN}, "gd", "alpha must lie in"),
    ({"kind": "zo_bounded", "delta": NAN}, "gd", "delta must be finite"),
    ({"kind": "zo_stoch", "delta_tilde": NAN}, "gd", "delta_tilde must be finite"),
    ({"kind": "zo_stoch", "delta_tilde": INF}, "gd", "delta_tilde must be finite"),
    (STOCH, SGD_CLIP_NAN, "method 'sgd': clip_lambda must be positive"),
], ids=["sigma-nan", "sigma-inf", "sigma-negative", "abs-delta-nan", "abs-delta-inf", "abs-v-nan",
        "rel-alpha-nan", "zo_bounded-delta-nan", "zo_stoch-nan", "zo_stoch-inf", "sgd-clip-nan"])
def test_parse_rejects_non_finite_noise_scales_and_clip(noise, method, message):
    doc = {"problem": QUAD, "noise": noise, "method": method, "iterations": 10}
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(doc))


def test_non_finite_sigma_exits_2(tmp_path, capsys):
    doc = {"problem": QUAD, "noise": {"kind": "additive_stoch_grad", "sigma": NAN},
           "method": {"name": "sgd", "params": {"gamma": 0.1}}, "iterations": 10}
    assert main(["run", "--config", write_cfg(tmp_path, "nan_sigma.json", doc)]) == 2
    err = capsys.readouterr().err
    assert "sigma must be finite" in err and "runtime error" not in err


@pytest.mark.parametrize("problem, method, params, message", [
    (QUAD, "gd", {"L": NAN}, "L must be positive"),
    (QUAD, "gd", {"tol": NAN}, "tol must be >= 0"),
    (QUAD, "gd", {"tol": INF}, "tol must be >= 0"),
    (QUAD, "gd_rel_adaptive", {"alpha": 0.1, "L0": NAN}, "L0 must be positive"),
    (QUAD, "gd_abs", {"delta": NAN}, "delta must be >= 0"),
    (QUAD, "heavy_ball", {"tol": NAN}, "tol must be >= 0"),
    (QUAD, "heavy_ball", {"mu": NAN}, "requires mu > 0"),
    (QUAD, "nesterov_cvx", {"L": NAN}, "a positive L is required"),
    (QUAD, "cg_quadratic", {"tol": NAN}, "tol must be >= 0"),
    ("fw_box", "frank_wolfe", {"tol": NAN}, "tol must be >= 0"),
    ("fw_box", "frank_wolfe", {"step_rule": "short", "L": NAN}, "ShortStep requires a positive L"),
    ("abs1d", "polyak_subgrad", {"tol": NAN}, "tol must be >= 0"),
    ("abs1d", "const_subgrad", {"h": 0.1, "tol": INF}, "unknown params ['tol']"),
    ("slp", "switching", {"delta": 0.1, "theta0": NAN}, "theta0 must be positive"),
    ("slp", "switching", {"delta": NAN, "theta0": 1.0}, "method 'switching': delta must be positive"),
    ("slp", "switching", {"delta": 0.1, "theta0": 1.0, "Mg": NAN}, "method 'switching': Mg must be positive"),
    ("slp", "restarted_switching", {"theta0": 2.0, "eps": 0.1, "Mg": NAN},
     "method 'restarted_switching': Mg must be positive"),
    ("slp", "restarted_switching", {"theta0": 2.0, "eps": NAN}, "eps_target must be positive"),
    ("slp", "restarted_switching", {"theta0": 2.0, "eps": 0.1, "alpha": NAN}, "alpha_sharp must be positive"),
], ids=["gd-L-nan", "gd-tol-nan", "gd-tol-inf", "gd_rel_adaptive-L0-nan", "gd_abs-delta-nan",
        "heavy_ball-tol-nan", "heavy_ball-mu-nan", "nesterov_cvx-L-nan", "cg_quadratic-tol-nan",
        "frank_wolfe-tol-nan", "frank_wolfe-short-L-nan", "polyak_subgrad-tol-nan", "const_subgrad-tol-inf",
        "switching-theta0-nan", "switching-delta-nan", "switching-Mg-nan", "restarted_switching-Mg-nan",
        "restarted_switching-eps-nan", "restarted_switching-alpha-nan"])
def test_non_finite_method_constants_exit_2(tmp_path, capsys, problem, method, params, message):
    doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": 10}
    assert main(["run", "--config", write_cfg(tmp_path, "nan_const.json", doc)]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime error" not in err


@pytest.mark.parametrize("doc, message", [
    (dict(problem=QUAD, method="gd", iterations=10, x0=[NAN, 1.0]), "x0 must hold finite numbers only"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": [NAN, 1]}}, method="gd", iterations=10),
     "param 'lambdas' must hold finite numbers only"),
    (dict(problem={"name": "slp", "params": {"rho": INF}},
          method={"name": "switching", "params": {"delta": 0.1, "theta0": 2.0}}, iterations=10),
     "param 'rho' must hold finite numbers only"),
], ids=["x0-nan", "quad_diag-lambdas-nan", "slp-rho-inf"])
def test_non_finite_x0_and_problem_params_exit_2(tmp_path, capsys, doc, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(json.dumps(doc))
    assert main(["run", "--config", write_cfg(tmp_path, "nan_problem.json", doc)]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime error" not in err


def test_noise_the_problem_cannot_carry_is_a_config_error(tmp_path, capsys):
    doc = {"problem": "abs1d", "noise": {"kind": "absolute_grad", "delta": 0.1},
           "method": "gd", "iterations": 5}
    with pytest.raises(ConfigError, match="noise: gradient noise requires an oracle with grad"):
        parse_config(json.dumps(doc))
    assert main(["run", "--config", write_cfg(tmp_path, "abs_noise.json", doc)]) == 2
    assert "runtime error" not in capsys.readouterr().err


@pytest.mark.parametrize("doc, message", [
    (dict(problem=QUAD, method="gd", iterations=5.9), "iterations must be a whole number, got 5.9"),
    (dict(problem=QUAD, method="gd", iterations=[3]), "iterations must be a number, got [3]"),
    (dict(problem=QUAD, method="gd", iterations="5"), "iterations must be a number, got '5'"),
    (dict(problem=QUAD, method="gd", budget={"iterations": 5, "max_oracle_calls": 2.5}),
     "max_oracle_calls must be a whole number"),
    (dict(problem=QUAD, method="gd", iterations=5, output={"record_every": 1.5}), "record_every must be a whole number"),
    (dict(problem=dict(QUAD, seed="abc"), method="gd", iterations=5), "seed must be a number, got 'abc'"),
    (dict(problem=dict(QUAD, seed=-1), method="gd", iterations=5), "seed must be >= 0"),
    (dict(problem={"name": "l1_system", "params": {"d": 2.7, "m": 4}}, method="polyak_subgrad", iterations=5),
     "param 'd' must be a whole number, got 2.7"),
    (dict(problem={"name": "phase_retrieval", "params": {"m": 4.5}}, method="polyak_subgrad", iterations=5),
     "param 'm' must be a whole number"),
    (dict(problem={"name": "logistic_small", "params": {"n": True}}, method="gd", iterations=5),
     "param 'n' must be a number, got True"),
    (dict(problem=QUAD, noise={"kind": "zo_stoch", "delta_tilde": None}, method="gd", iterations=5),
     "noise: delta_tilde must be a number, got None"),
    (dict(problem=QUAD, noise={"kind": "additive_stoch_grad", "sigma": "0.1"}, method="gd", iterations=5),
     "noise: sigma must be a number, got '0.1'"),
    (dict(problem=QUAD, noise=STOCH, method={"name": "sgd", "params": {"gamma": 0.1, "batch": 1.5}}, iterations=5),
     "method 'sgd': batch must be a whole number"),
    (dict(problem=QUAD, noise=ZO, method={"name": "zo_sgd", "params": {"gamma": 0.1, "beta": 2.5}}, iterations=5),
     "method 'zo_sgd': beta must be a whole number"),
    (dict(problem="slp", method={"name": "restarted_switching",
                                 "params": {"theta0": 2.0, "eps": 0.1, "stage_cap": 3.5}}, iterations=5),
     "method 'restarted_switching': stage_cap must be a whole number"),
    (dict(problem=QUAD, noise=STOCH, method={"name": "sgd", "params": {"gamma": "0.1"}}, iterations=5),
     "method 'sgd': gamma must be a number, got '0.1'"),
    (dict(problem=QUAD, method={"name": "gd", "params": {"L": "2"}}, iterations=5),
     "method 'gd': L must be a number, got '2'"),
    (dict(problem=QUAD, method={"name": "heavy_ball", "params": {"mu": [1]}}, iterations=5),
     "method 'heavy_ball': mu must be a number, got [1]"),
    (dict(problem=QUAD, noise=STOCH, method={"name": "sgd", "params": {"step_rule": "decay", "gamma0": 0.5,
                                                                       "eta": None}}, iterations=5),
     "method 'sgd': eta must be a number, got None"),
    (dict(problem=QUAD, noise=ZO, method={"name": "zo_sgd", "params": {"gamma": 0.1, "tau": "0.01"}}, iterations=5),
     "method 'zo_sgd': tau must be a number, got '0.01'"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": {"a": 1}}}, method="gd", iterations=5),
     "problem 'quad_diag': float() argument must be a string or a real number, not 'dict'"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": []}}, method="gd", iterations=5),
     "problem 'quad_diag': lambdas must be a 1-d array of positive numbers"),
    (dict(problem={"name": "quad_diag", "params": [1]}, method="gd", iterations=5),
     "problem: params must be an object, got [1]"),
    (dict(problem=QUAD, method={"name": "gd", "params": [1]}, iterations=5),
     "method: params must be an object, got [1]"),
    (dict(problem=QUAD, method={"name": "gd", "params": False}, iterations=5),
     "method: params must be an object, got False"),
    (dict(problem=QUAD, method="gd", budget=5), "budget must be an object, got 5"),
    (dict(problem=QUAD, method="gd", iterations=5, x0=["1", "2"]), "x0 entry must be a number, got '1'"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": ["10", "1"]}}, method="gd", iterations=5),
     "param 'lambdas' entry must be a number, got '10'"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": [True, 1]}}, method="gd", iterations=5),
     "param 'lambdas' entry must be a number, got True"),
    (dict(problem={"name": "quad_diag", "params": {"lambdas": [2, 1], "shift": ["0.5", "0"]}}, method="gd",
          iterations=5), "param 'shift' entry must be a number, got '0.5'"),
    (dict(problem={"name": "slp", "params": {"rho": "2"}}, method="polyak_subgrad", iterations=5),
     "problem 'slp': param 'rho' must be a number, got '2'"),
    (dict(problem={"name": "degenerate3", "params": {"l1": True}}, method="gd", iterations=5),
     "problem 'degenerate3': param 'l1' must be a number, got True"),
    (dict(problem={"name": "logistic_small", "params": {"box_radius": "3"}}, method="gd", iterations=5),
     "problem 'logistic_small': param 'box_radius' must be a number, got '3'"),
    (dict(problem=QUAD, noise={"kind": "absolute_grad", "delta": 0.1, "v": ["0.05", "0"]}, method="gd_abs",
          iterations=5), "noise: v entry must be a number, got '0.05'"),
    (dict(problem=QUAD, noise={"kind": "absolute_grad", "delta": 0.1, "v": [[0.05, 0.05]]}, method="gd_abs",
          iterations=5), "noise: v entry must be a number, got [0.05, 0.05]"),
    (dict(problem=QUAD, noise={"kind": "absolute_grad", "delta": 0.1, "v": [0.1]}, method="gd_abs", iterations=5),
     "noise: v has shape (1,), the problem takes (2,)"),
    (dict(problem=QUAD, noise={"kind": "absolute_grad", "delta": 0.1, "v": [0.05, 0.05, 0.05]}, method="gd_abs",
          iterations=5), "noise: v has shape (3,), the problem takes (2,)"),
    (dict(problem=QUAD, method="gd", iterations=5, output={"trace_path": 5}), "trace_path must be a string, got 5"),
    (dict(problem=QUAD, method="gd", iterations=5, output={"trace_path": ["a.csv"]}),
     "trace_path must be a string, got ['a.csv']"),
    (dict(problem=QUAD, method="gd", iterations=5, output={"trace_path": True}),
     "trace_path must be a string, got True"),
    (dict(problem={"name": "norm2", "params": {"a": 5}}, method="polyak_subgrad", iterations=5),
     "problem 'norm2': a must be a list of numbers, got 5"),
    (dict(problem={"name": "norm2", "params": {"a": True}}, method="polyak_subgrad", iterations=5),
     "problem 'norm2': a must be a list of numbers, got True"),
    (dict(problem=QUAD, noise={"kind": "absolute_grad", "delta": 0.1, "mode": "random_direction", "v": [5, 5]},
          method="gd_abs", iterations=5), "noise: v is read in fixed mode only, not in 'random_direction' mode"),
], ids=["iterations-fraction", "iterations-list", "iterations-quoted", "max_oracle_calls-fraction",
        "record_every-fraction", "seed-string", "seed-negative", "l1_system-d-fraction", "phase_retrieval-m-fraction",
        "logistic_small-n-bool", "delta_tilde-null", "sigma-quoted", "sgd-batch-fraction", "zo_sgd-beta-fraction",
        "restarted_switching-stage_cap-fraction", "sgd-gamma-quoted", "gd-L-quoted", "heavy_ball-mu-list",
        "sgd-eta-null", "zo_sgd-tau-quoted", "quad_diag-lambdas-object", "quad_diag-lambdas-empty",
        "problem-params-list",
        "method-params-list", "method-params-false", "budget-number", "x0-quoted", "quad_diag-lambdas-quoted",
        "quad_diag-lambdas-bool", "quad_diag-shift-quoted", "slp-rho-quoted", "degenerate3-l1-bool",
        "logistic_small-box_radius-quoted", "absolute_grad-v-quoted", "absolute_grad-v-2d", "absolute_grad-v-short",
        "absolute_grad-v-long", "trace_path-int", "trace_path-list", "trace_path-bool", "norm2-a-number",
        "norm2-a-bool", "absolute_grad-random_direction-v"])
def test_config_numbers_are_checked(tmp_path, capsys, doc, message):
    assert main(["run", "--config", write_cfg(tmp_path, "numbers.json", doc)]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime error" not in err


@pytest.mark.parametrize("doc, message", [
    (dict(problem=QUAD, noise={"kind": ["x"]}, method="gd", iterations=3), "unknown noise kind ['x']"),
    (dict(problem=QUAD, noise={"kind": {"a": 1}}, method="gd", iterations=3), "unknown noise kind {'a': 1}"),
    (dict(problem={"name": ["quad_diag"]}, method="gd", iterations=3), "unknown problem ['quad_diag']"),
    (dict(problem={"name": {"a": 1}}, method="gd", iterations=3), "unknown problem {'a': 1}"),
    (dict(problem=QUAD, method={"name": ["gd"]}, iterations=3), "unknown method ['gd']"),
    (dict(problem=QUAD, method={"name": {"a": 1}}, iterations=3), "unknown method {'a': 1}"),
], ids=["noise-kind-list", "noise-kind-object", "problem-name-list", "problem-name-object",
        "method-name-list", "method-name-object"])
def test_names_that_are_not_strings_exit_2(tmp_path, capsys, doc, message):
    assert main(["run", "--config", write_cfg(tmp_path, "name.json", doc)]) == 2
    err = capsys.readouterr().err
    assert message in err and "runtime error" not in err


@pytest.mark.parametrize("params, iterations, message", [
    ({"gamma": 0.01, "tau": INF}, 3, "tau must be positive and finite"),
    ({"gamma": 0.01, "tau": NAN}, 3, "tau must be positive and finite"),
    ({"gamma": 0.01, "tau0": INF}, 3, "tau0 must be positive and finite"),
    ({"gamma": 0.01, "tau0": NAN}, 3, "tau0 must be positive and finite"),
    # QUAD has dim 2: 2/(2 tau) overflows for tau below 1/DBL_MAX, about 5.6e-309
    ({"gamma": 0.01, "tau": 1e-320}, 3,
     "tau = 1e-320 is too small: the estimator's scale dim/(2 tau) overflows at dim 2 (tau at iteration 2)"),
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": 400}, 6,  # tau_5 = 0.2 * 6^-400, a subnormal
     f"tau = {PowerDecayTau(0.2, 400.0).at(5)!r} is too small: the estimator's scale dim/(2 tau) overflows"
     " at dim 2 (tau at iteration 5)"),
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": 400}, 200,  # tau_199 underflows to 0
     "tau must be positive and finite (tau at iteration 199)"),
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": NAN}, 1, "exponent must be >= 0"),  # tau_0 = 0.2 * 1^-NaN = 0.2
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": NAN}, 5, "exponent must be >= 0"),
], ids=["tau-inf", "tau-nan", "tau0-inf", "tau0-nan", "tau-1e-320", "tau_exponent-400-subnormal",
        "tau_exponent-400-zero", "tau_exponent-nan-1", "tau_exponent-nan-5"])
def test_non_finite_tau_exits_2(tmp_path, capsys, params, iterations, message):
    doc = {"problem": QUAD, "noise": ZO, "method": {"name": "zo_sgd", "params": params}, "iterations": iterations}
    assert main(["run", "--config", write_cfg(tmp_path, "tau.json", doc)]) == 2
    err = capsys.readouterr().err
    assert f"method 'zo_sgd': {message}" in err and "runtime error" not in err


@pytest.mark.parametrize("params, iterations", [
    ({"gamma": 0.01, "tau": 1e-308}, 3),
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": 400}, 5),  # tau_4 = 0.2 * 5^-400 leaves 2/(2 tau) finite
    ({"gamma": 0.01, "tau0": 0.2, "tau_exponent": 40}, 200),
], ids=["tau-1e-308", "tau_exponent-400-short", "tau_exponent-40"])
def test_tau_with_a_finite_estimator_scale_is_accepted(params, iterations):
    doc = {"problem": QUAD, "noise": ZO, "method": {"name": "zo_sgd", "params": params}, "iterations": iterations}
    assert parse_config(json.dumps(doc)).iterations == iterations


def test_whole_numbers_given_as_floats_are_accepted():
    doc = {"problem": {"name": "l1_system", "params": {"d": 3.0, "m": 4.0}, "seed": 2.0},
           "method": "polyak_subgrad", "budget": {"iterations": 5.0, "max_oracle_calls": 50.0}}
    spec = parse_config(json.dumps(doc))
    assert (spec.iterations, spec.seed, spec.max_oracle_calls) == (5, 2, 50)
    assert type(spec.iterations) is int
    trace, _ = run_experiment(spec)
    assert trace.final.iter == 5 and make_problem("l1_system", {"d": 3.0, "m": 4.0})[0].dim == 3


@pytest.mark.parametrize("name, params", [("quad_diag", {"lambdas": [NAN, 1]}), ("quad_diag", {"bogus": 1}),
                                          ("l1_system", {"d": 6, "m": 4}), ("degenerate3", {"l1": 0.1}),
                                          ("norm2", {"a": [1, 2], "d": 7})],
                         ids=["non-finite", "unknown", "l1_system-m-below-d", "degenerate3-order", "norm2-d-beside-a"])
def test_problem_errors_name_the_problem_once(tmp_path, capsys, name, params):
    with pytest.raises(ValueError) as raised:
        make_problem(name, params)
    assert str(raised.value).count(name) == 1
    doc = {"problem": {"name": name, "params": params}, "method": "polyak_subgrad", "iterations": 5}
    assert main(["run", "--config", write_cfg(tmp_path, "problem.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.count(name) == 1 and err.startswith(f"error: problem '{name}': ")


def test_default_record_every_keeps_traces_small():
    spec = parse_config('{"problem": "abs1d", "method": "polyak_subgrad", "iterations": 1000000}')
    assert spec.record_every >= 10
    assert (spec.iterations + 1) / spec.record_every <= 100_000


# every field of each step-rule kind, in field order; fw_box has M, mu and L
STEP_RULE_FIELDS = {
    "const": {"gamma": 0.1},
    "budget_const": {"M": 2.0, "R": 1.0},
    "inv_k": {"mu": 0.5},
    "adagrad_norm": {"R": 1.0},
    "decay": {"gamma0": 0.3, "eta": 0.7},
}
FW_STEP_RULE_FIELDS = {"classic": {}, "short": {"L": 3.0}}
# method -> (its noise, the module and entry point its run calls, its step-rule table and fields)
RULE_METHODS = {
    "sgd": (STOCH, stochastic, "run_sgd", stochastic.STEP_RULES, STEP_RULE_FIELDS),
    "zo_sgd": (ZO, optbench.zeroorder, "run_zo_sgd", stochastic.STEP_RULES, STEP_RULE_FIELDS),
    "frank_wolfe": (None, frankwolfe, "run_fw", frankwolfe.FW_STEP_RULES, FW_STEP_RULE_FIELDS),
}


def built_step_rule(monkeypatch, method, params):
    """The step rule that ``method``'s run, parsed from JSON on fw_box, hands to its entry point."""
    noise, module, entry, *_ = RULE_METHODS[method]
    doc = {"problem": "fw_box", "noise": noise, "method": {"name": method, "params": params}, "iterations": 5}
    spec = parse_config(json.dumps(doc))
    oracle, fset = make_problem("fw_box")
    seen = []
    monkeypatch.setattr(module, entry, lambda oracle, fset, x0, cfg, *args, **kw: seen.append(cfg))
    build_method(spec, oracle)(fset, np.zeros(2), None)
    return seen[0].step_rule


@pytest.mark.parametrize("method, kind", [(m, k) for m, (*_, kinds) in RULE_METHODS.items() for k in kinds])
def test_parsed_step_rule_equals_direct_construction(monkeypatch, method, kind):
    *_, table, kinds = RULE_METHODS[method]
    cls, fields = table[kind], kinds[kind]
    assert cls.kind == kind and [f.name for f in dataclasses.fields(cls)] == list(fields)
    assert built_step_rule(monkeypatch, method, dict(fields, step_rule=kind)) == cls(**fields)


@pytest.mark.parametrize("method, kind, params, expected", [
    ("sgd", "budget_const", {"R": 1.0}, stochastic.BudgetConst(M=make_problem("fw_box")[0].M, R=1.0)),
    ("sgd", "inv_k", {}, stochastic.InvK(mu=2.0)),
    ("sgd", "decay", {"gamma0": 0.3}, stochastic.Decay(gamma0=0.3, eta=0.6)),
    ("frank_wolfe", "short", {}, frankwolfe.ShortStep(L=2.0)),
    ("frank_wolfe", None, {}, frankwolfe.Classic()),
    ("sgd", None, {"gamma": 0.1}, stochastic.Const(gamma=0.1)),
], ids=["M-from-problem", "mu-from-problem", "eta-default", "L-default", "fw-default-kind", "sgd-default-kind"])
def test_missing_rule_fields_take_problem_constants_or_defaults(monkeypatch, method, kind, params, expected):
    if kind is not None:
        params = dict(params, step_rule=kind)
    assert built_step_rule(monkeypatch, method, params) == expected


def test_step_rule_keys_are_the_table_fields():
    rule_keys = {"step_rule"} | {f.name for cls in stochastic.STEP_RULES.values() for f in dataclasses.fields(cls)}
    assert rule_keys == {"step_rule", "gamma", "R", "M", "mu", "gamma0", "eta"}
    assert method_entry("sgd").allowed == rule_keys | {"batch", "clip_lambda", "averaging", "tail_fraction"}
    assert method_entry("zo_sgd").allowed == rule_keys | {"batch", "beta", "tau", "tau0", "tau_exponent"}
    assert method_entry("frank_wolfe").allowed == {"step_rule", "L", "tol"}
    for name, variant in momentum.VARIANTS.items():
        assert (method_entry(name).doc, method_entry(name).allowed) == (variant.doc, {"L", "mu", "tol"})


NORM2_SUBGRAD = {"problem": {"name": "norm2", "params": {"a": [1, 2]}},
                 "method": {"name": "const_subgrad", "params": {"R": 3}}, "iterations": 20}


@pytest.mark.parametrize("key, value", [("averaging", "false"), ("averaging", "no"), ("averaging", 0),
                                        ("averaging", 1), ("record_x", "no"), ("record_x", "true"),
                                        ("record_x", 1), ("record_x", [])])
def test_flags_must_be_json_booleans(tmp_path, capsys, key, value):
    doc = json.loads(json.dumps(NORM2_SUBGRAD))
    if key == "averaging":
        doc["method"]["params"]["averaging"] = value
    else:
        doc["output"] = {"record_x": value}
    assert main(["run", "--config", write_cfg(tmp_path, "flag.json", doc)]) == 2
    err = capsys.readouterr().err
    assert f"{key} must be true or false, got {value!r}" in err and "runtime error" not in err


def test_null_or_omitted_flags_read_false():
    def gap(averaging):
        doc = json.loads(json.dumps(NORM2_SUBGRAD))
        if averaging != "omitted":
            doc["method"]["params"]["averaging"] = averaging
        return run_experiment(parse_config(json.dumps(doc)))[1]["final_gap"]

    assert gap(None) == gap("omitted") == gap(False) != gap(True)
    for output in ({"record_x": None}, {}):
        assert parse_config(json.dumps(dict(NORM2_SUBGRAD, output=output))).record_x is False
    assert parse_config(json.dumps(dict(NORM2_SUBGRAD, output={"record_x": True}))).record_x is True


# case -> (method, noise, params without the constant, its key, a problem that has it, one that lacks it)
PROBLEM_CONSTANTS = {
    "sgd-budget_const-M": ("sgd", STOCH, {"step_rule": "budget_const", "R": 1.0}, "M", "fw_box", QUAD),
    "sgd-inv_k-mu": ("sgd", STOCH, {"step_rule": "inv_k"}, "mu", "fw_box", "rosenbrock"),
    "zo_sgd-budget_const-M": ("zo_sgd", ZO, {"step_rule": "budget_const", "R": 1.0}, "M", "fw_box", QUAD),
    "const_subgrad-M": ("const_subgrad", None, {"R": 1.0}, "M", "norm2", QUAD),
    "gd-L": ("gd", None, {}, "L", QUAD, "rosenbrock"),
    "gd_rel_adaptive-L0": ("gd_rel_adaptive", None, {"alpha": 0.1}, "L0", QUAD, "rosenbrock"),
    "heavy_ball-mu": ("heavy_ball", None, {}, "mu", QUAD, "nesterov_skokov_toy"),
    "frank_wolfe-short-L": ("frank_wolfe", None, {"step_rule": "short"}, "L", "fw_box", "rosenbrock"),
    "polyak_subgrad-fstar": ("polyak_subgrad", None, {}, "fstar", QUAD, "logistic_small"),
    "restarted_switching-alpha": ("restarted_switching", None, {"eps": 0.05, "theta0": 1.0}, "alpha", "slp", QUAD),
}


@pytest.mark.parametrize("case", sorted(PROBLEM_CONSTANTS))
def test_a_null_problem_constant_reads_as_omitted(case):
    """Null fills from the problem where it has the constant, and is refused with the omitted key's text where not."""
    method, noise, params, key, has, lacks = PROBLEM_CONSTANTS[case]

    def outcome(problem, null):
        doc = {"problem": problem, "method": {"name": method, "params": dict(params, **{key: None} if null else {})},
               "iterations": 20, "output": {"record_x": True, "record_every": 1}}
        if noise is not None:
            doc["noise"] = noise
        try:
            trace, summary = run_experiment(parse_config(json.dumps(doc)))
        except ConfigError as e:
            return str(e)
        return [row_bits(r) for r in trace.rows], summary["oracle_calls"], summary["status"]

    ran = outcome(has, null=False)
    assert not isinstance(ran, str) and outcome(has, null=True) == ran
    assert outcome(lacks, null=True) == outcome(lacks, null=False) == \
        f"method {method!r}: {key} not given and unknown for this problem"


@pytest.mark.parametrize("method, params, run", [
    ("const_subgrad", {"h": 0.05, "averaging": True},
     lambda oracle, fset, x0, rng, **kw: subgrad.run_const_subgrad(
         oracle, fset, x0, subgrad.SubgradConfig(step_rule=subgrad.FixedStep(0.05), N=30, averaging=True), **kw)),
    ("sgd", {"gamma": 0.05, "averaging": "tail", "tail_fraction": 0.3},
     lambda oracle, fset, x0, rng, **kw: stochastic.run_sgd(
         oracle, fset, x0, stochastic.SgdConfig(N=30, step_rule=stochastic.Const(0.05),
                                                averaging=stochastic.TailAvg(0.3)), rng, **kw)),
], ids=["const_subgrad-h", "sgd-tail"])
def test_config_params_build_the_python_api_run(tmp_path, method, params, run):
    doc = {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}},
           "method": {"name": method, "params": params}, "iterations": 30,
           "output": {"record_every": 1, "record_x": True}}
    oracle, fset = make_problem("quad_diag", {"lambdas": [2, 1]})
    if method == "sgd":
        doc["noise"] = {"kind": "additive_stoch_grad", "sigma": 0.5}
        oracle = wrap_noise(oracle, AdditiveStochGrad(sigma=0.5), Rng(0))
    x0 = np.array([1.5, -1.0])
    built = build_method(parse_config(json.dumps(doc)), oracle)(fset, x0, Rng(7))
    direct = run(oracle, fset, x0, Rng(7), record_x=True)
    paths = [str(tmp_path / "built.json"), str(tmp_path / "direct.json")]
    for trace, path in zip((built, direct), paths):
        write_trace(trace, path, "json")
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


# -- rate fitting -----------------------------------------------------------------

def synthetic_trace(gaps, start_iter=1):
    rows = [TraceRow(iter=start_iter + i, f_value=g, f_gap=g, dist_to_opt=None,
                     grad_norm=None, step_size=0.1, oracle_calls=i + 1)
            for i, g in enumerate(gaps)]
    return Trace(rows=rows, status=RunStatus.BUDGET_EXHAUSTED)


def test_fit_sublinear_synthetic():
    tr = synthetic_trace([4.0 / k for k in range(1, 201)])
    fit = fit_rate(tr, "sublinear", window=1.0)
    assert fit.estimate == pytest.approx(1.0, abs=0.01)
    assert fit.r_squared >= 0.999


def test_fit_geometric_synthetic():
    tr = synthetic_trace([0.5 ** k for k in range(1, 61)])
    fit = fit_rate(tr, "geometric", window=1.0)
    assert fit.estimate == pytest.approx(0.5, abs=1e-6)
    assert fit.r_squared >= 0.999999


@pytest.mark.parametrize("window", [0.5, 1.0])
@pytest.mark.parametrize("rows", [20, 40, 80, 333, 1000])
@pytest.mark.parametrize("gap", [1.0, 0.1, 0.25, 0.3, 1e-5])  # the mean of the logs need not round back to them
@pytest.mark.parametrize("model", ["sublinear", "geometric"])
def test_fit_on_equal_gaps_is_exact(model, gap, rows, window):
    assert fit_rate(synthetic_trace([gap] * rows), model, window=window).r_squared == 1.0


def test_fit_scale_invariance():
    gaps = [3.0 / k ** 1.5 for k in range(1, 101)]
    p1 = fit_rate(synthetic_trace(gaps), "sublinear", 0.5).estimate
    p2 = fit_rate(synthetic_trace([1e7 * g for g in gaps]), "sublinear", 0.5).estimate
    assert abs(p1 - p2) <= 1e-12
    q1 = fit_rate(synthetic_trace(gaps), "geometric", 0.5).estimate
    q2 = fit_rate(synthetic_trace([1e-9 * g for g in gaps]), "geometric", 0.5).estimate
    assert abs(q1 - q2) <= 1e-12


def test_fit_requires_positive_gaps():
    tr = synthetic_trace([1.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    with pytest.raises(InsufficientDataError):
        fit_rate(tr, "geometric", window=1.0)
    with pytest.raises(ValueError, match="unknown rate model"):
        fit_rate(synthetic_trace([1.0] * 20), "cubic")


@pytest.mark.parametrize("gap, row", [(float("inf"), 19), (float("nan"), 12)], ids=["inf", "nan"])
@pytest.mark.parametrize("model", ["sublinear", "geometric"])
def test_cli_rates_refuses_non_finite_gaps(tmp_path, capsys, gap, row, model):
    gaps = [1.0 / (k + 1) for k in range(20)]
    gaps[row] = gap
    path = str(tmp_path / "gaps.csv")
    write_trace(synthetic_trace(gaps, start_iter=0), path, "csv")
    assert main(["rates", "--trace", path, "--model", model, "--window", "1"]) == 2
    assert f"f_gap is {gap} at iter {row}" in capsys.readouterr().err


@pytest.mark.parametrize("iters, row, k, before", [
    ([5] * 24, 13, 5, 5),
    ([*range(1, 16), 15, *range(16, 24)], 15, 15, 15),
    ([*range(1, 20), 3, *range(20, 24)], 19, 3, 19),
], ids=["all-equal", "repeated", "decreasing"])
@pytest.mark.parametrize("model", ["sublinear", "geometric"])
def test_cli_rates_refuses_iterations_that_do_not_increase_strictly(tmp_path, capsys, iters, row, k, before, model):
    # 24 rows at window 0.5: the window starts at row 12
    gaps = [1.0 / (i + 1) for i in range(len(iters))]
    rows = [dataclasses.replace(r, iter=i) for r, i in zip(synthetic_trace(gaps).rows, iters)]
    path = str(tmp_path / "gaps.csv")
    write_trace(Trace(rows=rows, status=RunStatus.BUDGET_EXHAUSTED), path, "csv")
    message = f"row {row} has iter {k} after iter {before}; a rate needs strictly increasing iterations"
    with pytest.raises(InsufficientDataError, match=f"^{re.escape(message)}$"):
        fit_rate(read_trace(path), model)
    assert main(["rates", "--trace", path, "--model", model]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


# -- trace files ------------------------------------------------------------------

def test_csv_round_trip(tmp_path):
    tr = synthetic_trace([1.0, 0.5], start_iter=0)
    path = str(tmp_path / "t.csv")
    write_trace(tr, path, "csv")
    text = open(path, newline="").read()
    lines = text.split("\n")
    assert lines[0] == "iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls"
    assert len([ln for ln in lines if ln]) == 3
    assert "\r" not in text
    back = read_trace(path)
    for a, b in zip(tr.rows, back.rows):
        assert (a.iter, a.f_value, a.f_gap, a.step_size, a.oracle_calls) == \
               (b.iter, b.f_value, b.f_gap, b.step_size, b.oracle_calls)


def test_write_trace_format_follows_the_path(tmp_path):
    tr = synthetic_trace([1.0, 0.5], start_iter=0)
    for name in ("t.json", "t.csv", "t.CSV", "t.trace"):
        path = str(tmp_path / name)
        write_trace(tr, path)
        assert open(path).read().startswith("{") == (not name.lower().endswith(".csv"))
        back = read_trace(path)
        assert [(r.iter, r.f_value, r.oracle_calls) for r in back.rows] == \
               [(r.iter, r.f_value, r.oracle_calls) for r in tr.rows]


def test_csv_empty_fields_for_unknown_gap(tmp_path):
    rows = [TraceRow(iter=0, f_value=1.25, f_gap=None, dist_to_opt=None,
                     grad_norm=None, step_size=0.5, oracle_calls=1)]
    path = str(tmp_path / "t.csv")
    write_trace(Trace(rows=rows, status=None), path, "csv")
    data_line = open(path).read().split("\n")[1]
    assert data_line == "0,1.25,,,,0.5,1"
    assert read_trace(path).rows[0].f_gap is None


def parent_csv_text(trace) -> str:
    """The per-row CSV writer the columnar one replaced, kept as the byte reference."""
    def fmt(v):
        return "" if v is None else format(float(v), ".17g")

    lines = ["iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls"]
    for r in trace.rows:
        lines.append(",".join([str(r.iter), fmt(r.f_value), fmt(r.f_gap), fmt(r.dist_to_opt),
                               fmt(r.grad_norm), fmt(r.step_size), str(r.oracle_calls)]))
    return "\n".join(lines) + "\n"


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 5e-324, -2.5e-310, 1e308]


def csv_case_trace(case):
    n = 100_000 if case == "rows_1e5" else 60
    k = np.arange(n)
    f = (3.0 / (k + 1.0) ** 1.5 + 0.25).tolist()
    columns = {
        "iter": k.tolist(),
        "f_value": f,
        "f_gap": [v - 0.25 for v in f],
        "dist_to_opt": np.sqrt(k + 0.5).tolist(),
        "grad_norm": (1.0 / (k + 1.0)).tolist(),
        "step_size": (0.1 * np.cos(k)).tolist(),
        "oracle_calls": (2 * k + 1).tolist(),
        "x": [None] * n,
        "tag": [None] * n,
    }
    if case == "grad_norm_on_some_rows":
        columns["grad_norm"] = [None if i % 3 else g for i, g in enumerate(columns["grad_norm"])]
    elif case == "no_gap_no_dist":
        columns["f_gap"] = columns["dist_to_opt"] = [None] * n
    elif case == "special_f_values":
        for i, v in enumerate(SPECIAL_FLOATS):
            columns["f_value"][5 * i] = v
            columns["f_gap"][5 * i + 1] = v
            columns["step_size"][5 * i + 2] = v
    elif case == "repeated_signed_zeros":  # +0.0 and -0.0 are one memo key
        columns["dist_to_opt"] = [(0.0, -0.0, 0.5)[i % 3] for i in range(n)]
        columns["step_size"] = [-0.0] * (n - 1) + [0.0]
    elif case == "repeated_nans":  # one NaN object in many cells, and a new NaN object in each cell
        nan = float("nan")
        columns["dist_to_opt"] = [nan if i % 2 else 0.5 for i in range(n)]
        columns["grad_norm"] = [float("nan") if i % 3 else 0.25 for i in range(n)]
    elif case == "constant_step":
        columns["step_size"] = [0.1] * (n - 1) + [0.0]
    elif case.startswith("f_gap_is_f_value"):
        if case != "f_gap_is_f_value":  # repeated values: f_value takes the memo
            cells = {"with_zeros": (1.5, 0.0, -0.0, 2.5), "with_nan": (1.5, float("nan"), 2.5)}[case.split("-")[1]]
            columns["f_value"] = [cells[i % len(cells)] for i in range(n)]
        # what the recorder writes for fstar 0; for fstar -0.0, -0.0 - -0.0 is +0.0: equal cells, other text
        fstar = -0.0 if case.endswith("fstar_neg_zero") else 0.0
        columns["f_gap"] = [f - fstar for f in columns["f_value"]]
        if case.endswith("same_objects"):
            columns["f_gap"] = list(columns["f_value"])
    elif case == "repeated_with_none":
        columns["grad_norm"] = [None if i % 4 == 0 else 0.25 for i in range(n)]
    return Trace(columns=columns)


def fit_or_error(trace, model):
    try:
        return repr(fit_rate(trace, model, 0.5))
    except (ValueError, np.linalg.LinAlgError) as e:
        return f"{type(e).__name__}: {e}"


@pytest.mark.parametrize("case", [
    "grad_norm_on_some_rows", "no_gap_no_dist", "special_f_values", "rows_1e5", "repeated_signed_zeros",
    "repeated_nans", "constant_step", "f_gap_is_f_value", "f_gap_is_f_value-with_zeros",
    "f_gap_is_f_value-with_zeros-fstar_neg_zero", "f_gap_is_f_value-with_nan", "f_gap_is_f_value-with_nan-same_objects",
    "repeated_with_none"])
def test_csv_bytes_match_the_per_row_writer(tmp_path, case):
    trace = csv_case_trace(case)
    path, again = str(tmp_path / "t.csv"), str(tmp_path / "again.csv")
    write_trace(trace, path, "csv")
    data = open(path, "rb").read()
    assert data == parent_csv_text(trace).encode()
    back = read_trace(path)
    write_trace(back, again, "csv")
    assert open(again, "rb").read() == data
    for model in ("sublinear", "geometric"):
        assert fit_or_error(back, model) == fit_or_error(trace, model)


def test_csv_malformed_row_is_named(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls\n"
                    "0,1,,,,0.5,1\n3,0.5,,,0.25,2\n")
    with pytest.raises(ValueError, match="malformed row '3,0.5,,,0.25,2'"):
        read_trace(str(path))


@pytest.mark.parametrize("row", ["1.5,0.5,,,,0.5,2", "1,abc,,,,0.5,2", "1,,,,,0.5,2", "1,0.5,,x,,0.5,2",
                                 "1,0.5,,,,0.5,2.0"],
                         ids=["float-iter", "text-f", "empty-f", "text-distance", "float-calls"])
def test_csv_cell_that_is_not_a_number_names_the_file_and_its_first_row(tmp_path, capsys, row):
    path = str(tmp_path / "t.csv")
    with open(path, "w") as fh:
        fh.write(f"iter,f_value,f_gap,dist_to_opt,grad_norm,step_size,oracle_calls\n0,1,,,,0.5,1\n{row}\n"
                 "2,zzz,,,,0.5,3\n")
    message = f"{path}: malformed row {row!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_trace(path)
    assert main(["rates", "--trace", path, "--model", "sublinear"]) == 1
    assert capsys.readouterr().err == f"runtime error: ValueError: {message}\n"


JSON_ROW = {"iter": 1, "f_value": 2.0, "f_gap": 1, "dist_to_opt": None, "grad_norm": 0.5, "step_size": 0.1,
            "oracle_calls": 1}


@pytest.mark.parametrize("doc, message", [
    ({"problem": "quad_diag", "method": "gd", "iterations": 3}, "not a trace JSON (no rows list)"),
    ([1, 2], "not a trace JSON (no rows list)"),
    ({"rows": [{"iter": 1}]}, "malformed row {'iter': 1}"),
    *(({"rows": [row]}, f"malformed row {row!r}") for row in (
        dict(JSON_ROW, f_gap="x"), dict(JSON_ROW, dist_to_opt=True), dict(JSON_ROW, grad_norm="0.5"),
        dict(JSON_ROW, f_gap=[0.5]), dict(JSON_ROW, iter=True), dict(JSON_ROW, iter=1.0),
        dict(JSON_ROW, f_value="2.5"), dict(JSON_ROW, f_value=None), dict(JSON_ROW, step_size="0.1"),
        dict(JSON_ROW, step_size=False), dict(JSON_ROW, oracle_calls="7"), dict(JSON_ROW, oracle_calls=7.0),
        dict(JSON_ROW, x=["1"]), dict(JSON_ROW, x=[1, [2]]))),
    ({"rows": [JSON_ROW], "status": "bogus"}, "malformed status 'bogus'"),
    ({"rows": [JSON_ROW], "status": 1}, "malformed status 1"),
    ({"rows": [JSON_ROW], "x_out": ["a"]}, "malformed x_out ['a']"),
    ({"rows": [JSON_ROW], "x_out": [1, [2]]}, "malformed x_out [1, [2]]"),
    ({"rows": [JSON_ROW], "x_out": "12"}, "malformed x_out '12'"),
    ({"rows": [JSON_ROW], "f_out": "abc"}, "malformed f_out 'abc'"),
    ({"rows": [JSON_ROW], "f_out": True}, "malformed f_out True"),
], ids=["config", "list", "row", "text-gap", "bool-distance", "quoted-norm", "list-gap", "bool-iter", "float-iter",
        "quoted-f", "null-f", "quoted-step", "bool-step", "quoted-calls", "float-calls", "quoted-x", "nested-x",
        "bogus-status", "number-status", "quoted-x_out", "nested-x_out", "text-x_out", "text-f_out", "bool-f_out"])
def test_json_that_is_not_a_trace_is_named(tmp_path, capsys, doc, message):
    path = write_cfg(tmp_path, "c.json", doc)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        read_trace(path)
    assert main(["rates", "--trace", path, "--model", "sublinear"]) == 1
    assert capsys.readouterr().err == f"runtime error: ValueError: {path}: {message}\n"


def test_a_json_row_takes_numbers_and_nulls_in_its_optional_columns_as_floats_and_none(tmp_path):
    row = read_trace(write_cfg(tmp_path, "t.json", {"rows": [JSON_ROW]})).rows[0]
    assert (row.f_gap, row.dist_to_opt, row.grad_norm) == (1.0, None, 0.5) and type(row.f_gap) is float


def test_a_json_header_reads_a_status_value_a_list_of_numbers_and_a_number(tmp_path):
    doc = {"rows": [JSON_ROW], "status": "converged", "x_out": [1, 2.5], "f_out": 3}
    tr = read_trace(write_cfg(tmp_path, "t.json", doc))
    assert tr.status is RunStatus.CONVERGED and tr.x_out.tolist() == [1.0, 2.5] and tr.x_out.dtype == float
    assert tr.f_out == 3.0 and type(tr.f_out) is float


def test_write_trace_to_a_directory_raises_and_leaves_no_temporary_file(tmp_path):
    target = tmp_path / "traces"
    target.mkdir()
    for format in FORMATS:
        with pytest.raises(IsADirectoryError):
            write_trace(synthetic_trace([1.0, 0.5]), str(target), format)
    assert os.listdir(tmp_path) == ["traces"] and os.listdir(target) == []


def test_a_trace_file_takes_the_umask_mode_and_a_failed_rename_keeps_the_old_file(tmp_path, monkeypatch):
    names = ["t.csv", "t.json"]
    umask = os.umask(0o022)
    try:
        for name in names:
            write_trace(synthetic_trace([1.0, 0.5]), str(tmp_path / name))
            assert stat.S_IMODE(os.stat(tmp_path / name).st_mode) == 0o644  # as open(path, "w") gives
    finally:
        os.umask(umask)

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    for name in names:
        before = (tmp_path / name).read_bytes()
        with pytest.raises(OSError, match="rename refused"):
            write_trace(synthetic_trace([2.0, 1.0, 0.25]), str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == names  # no .trace-* file left


def test_json_round_trip_field_for_field(tmp_path):
    rows = [
        TraceRow(iter=0, f_value=1.0, f_gap=0.5, dist_to_opt=0.25, grad_norm=2.0,
                 step_size=0.1, oracle_calls=2, x=np.array([1.0, -1 / 3]), tag="productive"),
        TraceRow(iter=3, f_value=0.7, f_gap=None, dist_to_opt=None, grad_norm=None,
                 step_size=0.2, oracle_calls=5),
    ]
    tr = Trace(rows=rows, status=RunStatus.CONVERGED, x_out=np.array([0.1, 0.2]), f_out=0.7)
    path = str(tmp_path / "t.json")
    write_trace(tr, path, "json")
    back = read_trace(path)
    assert back.status is RunStatus.CONVERGED and back.f_out == 0.7
    np.testing.assert_array_equal(back.x_out, tr.x_out)
    for a, b in zip(tr.rows, back.rows):
        assert a.iter == b.iter and a.f_value == b.f_value and a.f_gap == b.f_gap
        assert a.dist_to_opt == b.dist_to_opt and a.grad_norm == b.grad_norm
        assert a.step_size == b.step_size and a.oracle_calls == b.oracle_calls
        assert a.tag == b.tag
        if a.x is None:
            assert b.x is None
        else:
            np.testing.assert_array_equal(a.x, b.x)


def reference_json_text(trace: Trace) -> str:
    """The JSON text of ``trace`` written row object by row object: the reference for ``write_trace``."""
    def row_doc(r):
        d = {"iter": r.iter, "f_value": r.f_value, "f_gap": r.f_gap, "dist_to_opt": r.dist_to_opt,
             "grad_norm": r.grad_norm, "step_size": r.step_size, "oracle_calls": r.oracle_calls}
        if r.x is not None:
            d["x"] = [float(v) for v in r.x]
        if r.tag is not None:
            d["tag"] = r.tag
        return d
    doc = {"status": None if trace.status is None else trace.status.value,
           "x_out": None if trace.x_out is None else [float(v) for v in trace.x_out],
           "f_out": trace.f_out, "rows": [row_doc(r) for r in trace.rows]}
    return json.dumps(doc, indent=1) + "\n"


def reference_json_rows(path) -> list:
    """The rows of a valid JSON trace read one row object at a time: the reference for ``read_trace``."""
    def optional(value):
        return None if value is None else float(value)
    with open(path) as fh:
        rows = json.load(fh)["rows"]
    return [TraceRow(iter=rd["iter"], f_value=float(rd["f_value"]), f_gap=optional(rd.get("f_gap")),
                     dist_to_opt=optional(rd.get("dist_to_opt")), grad_norm=optional(rd.get("grad_norm")),
                     step_size=float(rd["step_size"]), oracle_calls=rd["oracle_calls"],
                     x=None if rd.get("x") is None else np.array(rd["x"], dtype=float), tag=rd.get("tag"))
            for rd in rows]


def cell_bits(value):
    """A cell's type and bits: equal for two cells only when they are the same value, NaN and -0.0 included."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, float):
        return "float", np.float64(value).tobytes()
    return type(value).__name__, value


SPECIAL = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -1 / 3)


def special_json_traces() -> dict:
    rows = [TraceRow(iter=k, f_value=SPECIAL[k % 7], f_gap=None if k % 3 == 0 else SPECIAL[(k + 1) % 7],
                     dist_to_opt=None if k % 2 else SPECIAL[(k + 2) % 7], grad_norm=None if k % 4 == 1 else SPECIAL[k % 7],
                     step_size=SPECIAL[(k + 3) % 7], oracle_calls=2 * k,
                     x=None if k % 5 == 4 else np.array([SPECIAL[k % 7], SPECIAL[(k + 4) % 7]]),
                     tag=None if k % 2 else ("productive", "nonproductive")[k % 4 // 2])
            for k in range(15)]
    plain = [TraceRow(iter=k, f_value=2 - k, f_gap=1, dist_to_opt=None, grad_norm=None, step_size=0.5,
                      oracle_calls=k) for k in range(3)]
    return {
        "special-rows": Trace(rows=rows, status=RunStatus.DIVERGED, x_out=np.array([-0.0, math.nan]), f_out=math.inf),
        "special-columns": Trace(columns={name: [getattr(r, name) for r in rows] for name in oracles.TRACE_FIELDS},
                                 status=RunStatus.CONVERGED, x_out=np.array([1.0, -0.0]), f_out=-0.0),
        "int-cells": Trace(rows=plain, status=None),
        "empty": Trace(rows=[], status=RunStatus.BUDGET_EXHAUSTED, x_out=np.array([0.5]), f_out=0.25),
    }


@pytest.mark.parametrize("name", ["special-rows", "special-columns", "int-cells", "empty"])
def test_json_trace_io_matches_the_row_by_row_reference(tmp_path, name):
    trace, path = special_json_traces()[name], str(tmp_path / "t.json")
    write_trace(trace, path, "json")
    with open(path) as fh:
        assert fh.read() == reference_json_text(trace)
    back = read_trace(path)
    reference = Trace(rows=reference_json_rows(path))
    for field in oracles.TRACE_FIELDS:
        assert list(map(cell_bits, back.columns[field])) == list(map(cell_bits, reference.columns[field])), field
    assert (back.status, cell_bits(back.f_out), cell_bits(back.x_out)) == (trace.status, cell_bits(trace.f_out),
                                                                           cell_bits(trace.x_out))
    assert back.rows is back.rows and len(back.rows) == len(trace.rows)


# -- runner --------------------------------------------------------------------------

def test_run_experiment_zero_iterations_is_initial_state():
    spec = parse_config('{"problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}}, '
                        '"method": "gd", "iterations": 0}')
    trace, summary = run_experiment(spec)
    assert summary["final_gap"] == pytest.approx(5.5)  # f at the default start (1,1)
    assert len(trace.rows) == 1 and trace.rows[0].iter == 0


def test_run_experiment_abs1d_summary():
    spec = parse_config('{"problem": "abs1d", "method": "polyak_subgrad", "iterations": 50}')
    trace, summary = run_experiment(spec)
    assert summary["status"] == "converged"
    assert summary["final_gap"] == 0.0 and summary["final_dist"] == 0.0
    # one productive value+subgradient step plus bookkeeping evaluations
    assert summary["oracle_calls"] == 3


def test_run_experiment_fw_box_final_gap():
    spec = parse_config('{"problem": "fw_box", "method": "frank_wolfe", "iterations": 200}')
    _, summary = run_experiment(spec)
    assert 0.0 <= summary["final_gap"] <= 0.04


def test_budget_respected_within_one_final_evaluation():
    for max_calls in (7, 20, 33):
        spec = parse_config(json.dumps({
            "problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}},
            "method": "gd",
            "budget": {"iterations": 10000, "max_oracle_calls": max_calls},
        }))
        _, summary = run_experiment(spec)
        assert summary["status"] == "budget_exhausted"
        assert summary["oracle_calls"] <= max_calls + 1


def test_end_to_end_determinism_byte_identical(tmp_path):
    text = json.dumps({
        "problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}, "seed": 5},
        "noise": {"kind": "additive_stoch_grad", "sigma": 0.5},
        "method": {"name": "sgd", "params": {"step_rule": "decay", "gamma0": 0.4,
                                             "averaging": "uniform"}},
        "iterations": 500,
    })
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    run_experiment(parse_config(text), trace_path=p1)
    run_experiment(parse_config(text), trace_path=p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    p3, p4 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run_experiment(parse_config(text), trace_path=p3)
    run_experiment(parse_config(text), trace_path=p4)
    assert open(p3, "rb").read() == open(p4, "rb").read()


def test_runner_x0_dimension_check(tmp_path, capsys):
    doc = {"problem": "fw_box", "method": "gd", "iterations": 5, "x0": [1, 2, 3]}
    with pytest.raises(ConfigError, match="dimension"):
        parse_config(json.dumps(doc))
    assert main(["run", "--config", write_cfg(tmp_path, "x0.json", doc)]) == 2
    assert "x0 has dimension 3, problem has 2" in capsys.readouterr().err


@pytest.mark.parametrize("doc, calls", [
    ({"problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}},
      "noise": {"kind": "additive_stoch_grad", "sigma": 0.1}, "method": {"name": "sgd", "params": {"gamma": 1.0}},
      "iterations": 1000}, 2001),
    ({"problem": "quad_diag", "method": {"name": "const_subgrad", "params": {"h": 1e308}}, "iterations": 50}, 99),
], ids=["sgd-gamma-1", "const_subgrad-h-1e308"])
def test_a_run_that_ends_on_a_non_finite_iterate_is_diverged(doc, calls):
    with np.errstate(all="ignore"):
        _, summary = run_experiment(parse_config(json.dumps(doc)))
    assert summary["status"] == "diverged" and math.isnan(summary["final_gap"])
    assert summary["oracle_calls"] == calls  # every iteration still runs: the status is read after the loop


def test_a_diverging_run_warns_only_for_its_f():
    # a constant tau of 1e-308 makes the estimator's scale overflow: the run ends diverged at iteration 1
    doc = {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}},
           "noise": {"kind": "zo_stoch", "delta_tilde": 0.01},
           "method": {"name": "zo_sgd", "params": {"gamma": 0.01, "tau": 1e-308}}, "iterations": 5}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _, summary = run_experiment(parse_config(json.dumps(doc)))
    # the divergence test and final_dist take their norms without a warning; the trace rows' f still warns
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "overflow encountered in matmul")]
    assert summary["status"] == "diverged" and summary["final_dist"] == math.inf


def test_trace_row_monotonicity_invariants():
    for text in (
        '{"problem": "abs1d", "method": "polyak_subgrad", "iterations": 40}',
        '{"problem": {"name": "quad_diag", "params": {"lambdas": [4, 1]}}, '
        '"method": "nesterov_sc", "iterations": 40}',
        '{"problem": "fw_box", "method": "frank_wolfe", "iterations": 40}',
    ):
        trace, _ = run_experiment(parse_config(text))
        iters = [r.iter for r in trace.rows]
        calls = [r.oracle_calls for r in trace.rows]
        assert all(b > a for a, b in zip(iters, iters[1:]))
        assert all(b >= a for a, b in zip(calls, calls[1:]))


# One small config per registered method (problem, noise, params, x0, iterations).
EVERY_METHOD = {
    "polyak_subgrad": ({"name": "l1_system", "params": {"d": 5, "m": 8}}, None, {}, None, 300),
    "const_subgrad": ({"name": "norm2", "params": {"a": [0.5, -0.2, 0.1]}}, None,
                      {"R": 1.7, "averaging": True}, None, 400),
    "switching": ("slp", None, {"delta": 0.035, "theta0": 1.0}, [0.1, -0.1], 5000),
    "restarted_switching": ("slp", None, {"eps": 0.05, "theta0": 1.0, "alpha": 0.5},
                            [0.1, -0.1], 100_000),
    "gd": ({"name": "degenerate3", "params": {"l1": 1.0, "l2": 0.1}}, None, {}, None, 2000),
    "gd_abs": ({"name": "quad_diag", "params": {"lambdas": [10, 1]}},
               {"kind": "absolute_grad", "delta": 0.1}, {}, None, 500),
    "gd_rel": ("nesterov_skokov_toy", {"kind": "relative_grad", "alpha": 0.25}, {}, [0.8, 0.5], 2000),
    "gd_rel_adaptive": ("rosenbrock", {"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"},
                        {"L0": 1.0}, [-1.2, 1.0], 1500),
    **{name: ({"name": "quad_diag", "params": {"lambdas": [50, 1]}}, None, {}, None, 2000)
       for name in ("heavy_ball", "chebyshev", "nesterov_sc", "nesterov_cvx", "taylor_drori")},
    "cg_quadratic": ({"name": "quad_diag", "params": {"lambdas": [1, 5, 20]}}, None, {}, None, 5),
    "frank_wolfe": ("fw_box", None, {}, None, 400),
    "sgd": ({"name": "quad_diag", "params": {"lambdas": [2, 1]}}, {"kind": "additive_stoch_grad", "sigma": 1.0},
            {"step_rule": "decay", "gamma0": 0.5, "averaging": "uniform"}, None, 2000),
    "zo_sgd": ({"name": "quad_diag", "params": {"lambdas": [1, 1]}}, {"kind": "zo_stoch", "delta_tilde": 0.01},
               {"gamma": 0.005, "tau": 0.01}, None, 500),
}


_NO_L = ("abs1d", "l1_system", "norm2", "phase_retrieval", "rosenbrock", "slp")
# (method, problem) -> the constant the method's config omits and the problem lacks
MISSING_CONSTANT = {
    **{(name, problem): "L" for name in (*momentum.VARIANTS, "gd") for problem in _NO_L},
    **{(name, problem): "L" for name in ("gd_abs", "gd_rel") for problem in ("rosenbrock", "slp")},
    **{(name, problem): "mu" for name in ("heavy_ball", "chebyshev", "nesterov_sc")
       for problem in ("logistic_small", "nesterov_skokov_toy")},
    ("polyak_subgrad", "logistic_small"): "fstar",
}


def test_every_method_on_every_problem_is_refused_at_parse_fails_at_run_or_runs():
    """A pair whose config omits a constant the problem lacks is refused at parse, with the reader's text."""
    assert len(MISSING_CONSTANT) == 47
    outcomes = collections.Counter()
    for (name, (_, noise, params, _, N)), problem in itertools.product(EVERY_METHOD.items(), problem_names()):
        doc = {"problem": problem, "method": {"name": name, "params": params}, "iterations": min(N, 300)}
        if noise is not None:
            doc["noise"] = noise
        missing = MISSING_CONSTANT.get((name, problem))
        try:
            spec = parse_config(json.dumps(doc))
        except ConfigError as e:
            assert missing is None or str(e) == f"method {name!r}: {missing} not given and unknown for this problem"
            outcomes["parse"] += 1
            continue
        assert missing is None, (name, problem)
        try:
            with np.errstate(all="ignore"), warnings.catch_warnings():
                warnings.simplefilter("ignore")  # switching's understated-Mg warning
                run_experiment(spec)
        except ConfigError:
            outcomes["run"] += 1
        else:
            outcomes["ran"] += 1
    assert outcomes == {"parse": 70, "run": 39, "ran": 78}


@pytest.mark.parametrize("method, params, message", [
    ("heavy_ball", {"mu": 0.0}, "variant 'heavy_ball' requires mu > 0"),
    ("heavy_ball", {"mu": -1.0}, "variant 'heavy_ball' requires mu > 0"),
    ("heavy_ball", {"L": -1.0}, "a positive L is required (config or oracle)"),
    ("heavy_ball", {"L": -1.0, "mu": 0.5}, "a positive L is required (config or oracle)"),
    ("nesterov_cvx", {"L": 0.0}, "a positive L is required (config or oracle)"),
    ("nesterov_cvx", {"mu": 20.0}, "mu must not exceed L"),  # the problem's L is 10
    ("chebyshev", {"L": 2.0, "mu": 2.0}, "chebyshev requires mu < L strictly"),
    ("taylor_drori", {"L": 2.0, "mu": 2.0}, "taylor_drori requires mu < L strictly"),
    ("frank_wolfe", {"step_rule": "short", "L": -1.0}, "ShortStep requires a positive L (config or oracle)"),
    ("frank_wolfe", {"step_rule": "short", "L": 0.0}, "ShortStep requires a positive L (config or oracle)"),
], ids=["heavy_ball-mu0", "heavy_ball-mu-1", "heavy_ball-L-1", "heavy_ball-L-1-mu", "nesterov_cvx-L0", "nesterov_cvx-mu-above-L",
        "chebyshev-mu-equals-L", "taylor_drori-mu-equals-L", "frank_wolfe-short-L-1", "frank_wolfe-short-L0"])
def test_momentum_and_short_step_constants_are_refused_at_parse(method, params, message):
    problem = "fw_box" if method == "frank_wolfe" else {"name": "quad_diag", "params": {"lambdas": [10, 1]}}
    doc = {"problem": problem, "method": {"name": method, "params": params}, "iterations": 3}
    with pytest.raises(ConfigError, match=f"^{re.escape(f'method {method!r}: {message}')}$"):
        parse_config(json.dumps(doc))


def test_every_method_trace_iters_strictly_increase():
    assert set(EVERY_METHOD) == set(method_names())
    for name, (problem, noise, params, x0, N) in EVERY_METHOD.items():
        for every in (1, 7, N + 1):
            for max_calls in (3, 40, 333):
                doc = {"problem": problem, "method": {"name": name, "params": params},
                       "budget": {"iterations": N, "max_oracle_calls": max_calls},
                       "output": {"record_every": every}}
                doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
                trace, _ = run_experiment(parse_config(json.dumps(doc)))
                iters = [r.iter for r in trace.rows]
                assert all(b > a for a, b in zip(iters, iters[1:])), (name, every, max_calls, iters[-3:])


def test_restarted_switching_iterations_cap_the_steps_beside_a_stage_cap(tmp_path):
    def run(iterations):
        doc = {"problem": "slp", "method": {"name": "restarted_switching", "params": {
            "eps": 0.05, "theta0": 1.0, "alpha": 0.5, "stage_cap": 100}}, "iterations": iterations}
        trace, summary = run_experiment(parse_config(json.dumps(doc)))
        return trace, {k: v for k, v in summary.items() if k != "wall_time"}

    (short, s5), (_, s1000) = run(5), run(1000)
    assert s5 != s1000
    assert s5["status"] == "budget_exhausted" and s1000["status"] == "converged"
    assert short.final.iter <= 5


@pytest.mark.parametrize("name", sorted(EVERY_METHOD))
def test_zero_iterations_take_no_step(tmp_path, capsys, name):
    problem, noise, params, x0, _ = EVERY_METHOD[name]
    doc = {"problem": problem, "method": {"name": name, "params": params}, "iterations": 0}
    doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
    if name in ("switching", "restarted_switching"):  # the schemes report a productive step, so need one
        assert main(["run", "--config", write_cfg(tmp_path, "zero.json", doc)]) == 2
        assert f"method '{name}': iteration cap must be >= 1" in capsys.readouterr().err
        return
    trace, _ = run_experiment(parse_config(json.dumps(doc)))
    assert trace.columns["iter"] == [1 if name == "frank_wolfe" else 0]  # Frank-Wolfe counts from 1
    assert trace.final.oracle_calls == 1  # the terminal row's value, nothing else


@pytest.mark.parametrize("name", sorted(EVERY_METHOD))
def test_recording_does_not_change_a_run(name):
    problem, noise, params, x0, N = EVERY_METHOD[name]
    outcomes = []
    for every in (1, 7, N + 1):
        doc = {"problem": problem, "method": {"name": name, "params": params},
               "iterations": N, "output": {"record_every": every}}
        doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
        trace, _ = run_experiment(parse_config(json.dumps(doc)))
        outcomes.append((trace.x_out.tobytes(), trace.f_out, trace.status, trace.final.iter))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0], name


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: a due row's f is charged to the budget, so under a "
                   "budget record_every decides where the run stops")
def test_recording_does_not_change_a_budgeted_run():
    differ = []
    for name, (problem, noise, params, x0, N) in EVERY_METHOD.items():
        outcomes = []
        for every in (1, 7, N + 1):
            doc = {"problem": problem, "method": {"name": name, "params": params},
                   "budget": {"iterations": N, "max_oracle_calls": max(3, N // 2)},
                   "output": {"record_every": every}}
            doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
            trace, _ = run_experiment(parse_config(json.dumps(doc)))
            outcomes.append((trace.x_out.tobytes(), trace.final.iter))
        if outcomes[1] != outcomes[0] or outcomes[2] != outcomes[0]:
            differ.append((name, [it for _, it in outcomes]))
    assert differ == []


class RowRecorder(TraceRecorder):
    """The row-object recorder the columnar one replaced, kept as the reference.

    Its rows are whole :class:`TraceRow` objects, built when each row is
    recorded: ``grad_norm`` and ``dist_to_opt`` go through
    ``np.linalg.norm`` row by row, where the recorder under test derives
    them a block of rows at a time.
    """

    def __init__(self, suite, counter, record_every=1, record_x=False):
        super().__init__(suite, counter, record_every, record_x)
        self.rows = []

    def dist(self, x):
        s = self.suite
        if s.dist_fn is not None:
            return float(s.dist_fn(x))
        if s.minimizers is not None:
            return min(float(np.linalg.norm(x - m)) for m in s.minimizers)
        if s.xstar is not None:
            return float(np.linalg.norm(x - s.xstar))
        return None

    def record(self, it, x, f_value=None, grad_norm=None, step_size=0.0, tag=None, force=False):
        if not (force or self.due(it)):
            return
        if self.rows and self.rows[-1].iter == it:
            return
        if f_value is None:
            f_value = self.counter.value(x)
        fstar = self.suite.fstar
        self.rows.append(TraceRow(
            iter=it, f_value=float(f_value), f_gap=None if fstar is None else float(f_value) - fstar,
            dist_to_opt=self.dist(x), grad_norm=None if grad_norm is None else float(grad_norm),
            step_size=float(step_size), oracle_calls=self.counter.calls,
            x=np.array(x, dtype=float) if self.record_x else None, tag=tag))

    def record_step(self, it, x, f_value, g, step_size, tag):
        self.record(it, x, f_value, grad_norm=float(np.linalg.norm(g)), step_size=step_size, tag=tag, force=True)

    def close(self, it, x, status, x_out=None, *, f_value=None, grad_norm=None):
        if self.rows and self.rows[-1].iter == it:
            f_end = self.rows[-1].f_value
        else:
            f_end = f_value
            if f_value is None:  # outside the budget
                self.counter.calls += 1
                f_end = float(self.suite.value(x))
            self.record(it, x, f_end, grad_norm=grad_norm, force=True)
        if x_out is not None:
            self.counter.calls += 1
            x, f_end = x_out, float(self.suite.value(x_out))
        return Trace(rows=self.rows, status=status, x_out=np.array(x, dtype=float), f_out=float(f_end))


def row_bits(r):
    def bits(v):
        return None if v is None else (type(v), np.float64(v).tobytes())

    return (r.iter, bits(r.f_value), bits(r.f_gap), bits(r.dist_to_opt), bits(r.grad_norm),
            bits(r.step_size), r.oracle_calls, None if r.x is None else r.x.tobytes(), r.tag)


@pytest.mark.parametrize("name", sorted(EVERY_METHOD))
def test_trace_rows_match_the_row_recorder(name, monkeypatch):
    problem, noise, params, x0, N = EVERY_METHOD[name]
    for every in (1, 7):
        doc = {"problem": problem, "method": {"name": name, "params": params},
               "iterations": N, "output": {"record_every": every, "record_x": True}}
        doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
        trace, _ = run_experiment(parse_config(json.dumps(doc)))
        with monkeypatch.context() as m:
            for mod in RECORDER_MODULES:
                m.setattr(mod, "TraceRecorder", RowRecorder)
            ref, _ = run_experiment(parse_config(json.dumps(doc)))
        assert [row_bits(r) for r in trace.rows] == [row_bits(r) for r in ref.rows], (name, every)
        assert row_bits(trace.final) == row_bits(trace.rows[-1])
        assert trace.x_out.tobytes() == ref.x_out.tobytes()
        assert (trace.f_out, trace.status) == (ref.f_out, ref.status)


def test_build_makes_no_oracle_call():
    def boom(*args):
        raise AssertionError("an oracle was called while building")

    for name, (problem, noise, params, x0, N) in EVERY_METHOD.items():
        doc = {"problem": problem, "method": {"name": name, "params": params}, "iterations": N}
        doc.update({k: v for k, v in (("noise", noise), ("x0", x0)) if v is not None})
        spec = parse_config(json.dumps(doc))
        oracle, _ = make_problem(spec.problem_name, spec.problem_params, spec.seed)
        oracle = dataclasses.replace(oracle, value=boom, subgrad=boom, grad=boom,
                                     stoch_grad=boom, zo_value=boom)
        assert callable(build_method(spec, oracle)), name
    with pytest.raises(ConfigError, match=r"^method: params must be an object, got \[1\]$"):
        build_method(dataclasses.replace(spec, method_params=[1]), oracle)


@pytest.mark.xfail(strict=True, reason="the open-loop 2/(k+1) step decays ~1/N^2 on "
                   "fw_box, not the stated ~1/N; tracked as acceptance criterion 7")
def test_fw_classic_sublinear_exponent_near_one():
    spec = parse_config('{"problem": "fw_box", "method": "frank_wolfe", "iterations": 500}')
    trace, _ = run_experiment(spec)
    fit = fit_rate(trace, "sublinear", window=0.5)
    assert 0.8 <= fit.estimate <= 1.2


# -- CLI ------------------------------------------------------------------------------

def write_cfg(tmp_path, name, doc):
    path = str(tmp_path / name)
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def test_cli_run_and_rates(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "fw.json", {
        "problem": "fw_box", "method": "frank_wolfe", "iterations": 300,
        "output": {"trace_path": str(tmp_path / "fw.csv")},
    })
    assert main(["run", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "status" in out and "final_gap" in out
    assert main(["rates", "--trace", str(tmp_path / "fw.csv"),
                 "--model", "sublinear", "--window", "0.5"]) == 0
    out = capsys.readouterr().out
    assert "p=" in out and "r2=" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = write_cfg(tmp_path, "bad.json", {"problem": "abs1d", "method": "foo", "iterations": 5})
    assert main(["run", "--config", bad]) == 2
    assert "available" in capsys.readouterr().err

    # mu = L = 2: taylor_drori's (1 - mu/L)^2 denominator is 0
    flat = write_cfg(tmp_path, "flat.json", {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 2]}},
                                            "method": "taylor_drori", "iterations": 5})
    assert main(["run", "--config", flat]) == 2
    assert "taylor_drori requires mu < L strictly" in capsys.readouterr().err

    missing_trace = main(["rates", "--trace", str(tmp_path / "none.csv"), "--model", "sublinear"])
    assert missing_trace == 1
    for window in ("0", "nan", "1.5"):  # refused before the trace is read
        assert main(["rates", "--trace", str(tmp_path / "none.csv"), "--model", "sublinear", "--window", window]) == 2
        assert "--window must lie in (0, 1]" in capsys.readouterr().err


def test_cli_compare_and_listings(tmp_path, capsys):
    c1 = write_cfg(tmp_path, "a.json", {"problem": "abs1d", "method": "polyak_subgrad",
                                        "iterations": 30})
    c2 = write_cfg(tmp_path, "b.json", {
        "problem": {"name": "quad_diag", "params": {"lambdas": [4, 1]}},
        "method": "gd", "iterations": 30})
    assert main(["compare", "--configs", c1, c2]) == 0
    out = capsys.readouterr().out
    assert "polyak_subgrad" in out and "quad_diag" in out

    assert main(["list-problems"]) == 0
    assert "phase_retrieval" in capsys.readouterr().out
    assert main(["list-methods"]) == 0
    assert "zo_sgd" in capsys.readouterr().out


def test_cli_opt_seed_override(tmp_path, capsys, monkeypatch):
    cfg = write_cfg(tmp_path, "l1.json", {
        "problem": {"name": "l1_system", "params": {"d": 4, "m": 6}, "seed": 1},
        "method": "polyak_subgrad", "iterations": 3})
    assert main(["run", "--config", cfg]) == 0
    base = capsys.readouterr().out
    monkeypatch.setenv("OPT_SEED", "2")
    assert main(["run", "--config", cfg]) == 0
    overridden = capsys.readouterr().out
    assert "seed 2" in overridden and "seed 1" in base
    assert base.splitlines()[3] != overridden.splitlines()[3]  # different instance, different gap
    monkeypatch.setenv("OPT_SEED", "-1")
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err == "error: OPT_SEED must be >= 0, got '-1'\n"


def test_a_cli_op_builds_its_spec_once_at_the_seed_it_runs(tmp_path, capsys, monkeypatch):
    built, assemble = [], runner.assemble
    monkeypatch.setattr(runner, "assemble", lambda spec: built.append(spec.seed) or assemble(spec))
    monkeypatch.delenv("OPT_SEED", raising=False)
    cfg = write_cfg(tmp_path, "l1.json", {
        "problem": {"name": "l1_system", "params": {"d": 4, "m": 6}, "seed": 1},
        "method": "polyak_subgrad", "iterations": 3})
    assert main(["run", "--config", cfg]) == 0
    assert main(["compare", "--configs", cfg, cfg]) == 0
    monkeypatch.setenv("OPT_SEED", "7")
    assert main(["run", "--config", cfg]) == 0
    assert built == [1, 1, 1, 7]
    bad = write_cfg(tmp_path, "bad.json", {"problem": "quad_diag", "method": "gd", "iterations": 3, "x0": [1.0]})
    assert main(["run", "--config", bad]) == 2  # refused at parse, before any run
    assert built == [1, 1, 1, 7, 7] and "x0 has dimension 1, problem has 2" in capsys.readouterr().err


def test_a_parsed_spec_run_twice_writes_the_same_trace(tmp_path):
    """The first run takes the spec's build from parsing, a later one builds afresh: the noise stream starts over."""
    spec = parse_config(json.dumps({
        "problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}},
        "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"},
        "method": {"name": "gd_rel", "params": {"alpha": 0.25}}, "iterations": 40}))
    paths = [str(tmp_path / f"{name}.json") for name in ("first", "second", "reseeded")]
    run_experiment(spec, paths[0])
    run_experiment(spec, paths[1])
    run_experiment(dataclasses.replace(spec, seed=0), paths[2])
    first, *others = (open(path, "rb").read() for path in paths)
    assert others == [first, first]


def _mask_times(command: str, text: str) -> str:
    """Blank the times: `run`'s wall_time line and `compare`'s last column (time_s)."""
    if command == "compare":
        return "\n".join(line.rsplit(None, 1)[0] for line in text.splitlines())
    return "\n".join("wall_time : -" if line.startswith("wall_time") else line for line in text.splitlines())


def _fresh_env(env_seed=None):
    """The environment of a new interpreter that imports this optbench, with ``OPT_SEED`` only if given."""
    env = {k: v for k, v in os.environ.items() if k != "OPT_SEED"}
    if env_seed is not None:
        env["OPT_SEED"] = env_seed
    src = os.path.dirname(os.path.dirname(optbench.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def _fresh_process(argv, env_seed=None):
    """(exit code, masked stdout, stderr) of one `optbench` call in a new interpreter."""
    done = subprocess.run([sys.executable, "-m", "optbench.bench.cli", *argv], env=_fresh_env(env_seed),
                          capture_output=True, text=True, timeout=120)
    return done.returncode, _mask_times(argv[0], done.stdout), done.stderr


def test_cli_calls_in_one_process_are_independent(tmp_path, capsys, monkeypatch):
    """The parser is built once per process; no call may see state left by an earlier one.

    Each call must match the same call in a fresh interpreter: exit code,
    stdout with its times masked, stderr and the trace bytes it writes.
    """
    monkeypatch.delenv("OPT_SEED", raising=False)
    a = write_cfg(tmp_path, "a.json", {"problem": "fw_box", "method": "frank_wolfe", "iterations": 60})
    b = write_cfg(tmp_path, "b.json", {
        "problem": {"name": "l1_system", "params": {"d": 3, "m": 5}, "seed": 1},
        "method": "polyak_subgrad", "iterations": 20})
    trace = str(tmp_path / "a.csv")
    steps = [
        ("run", ["run", "--config", a, "--trace", trace]),
        ("compare", ["compare", "--configs", a, b]),
        ("rates", ["rates", "--trace", trace, "--model", "sublinear"]),
        ("bad argument", ["compare", "--configs", b, "--bogus"]),
        ("help", ["run", "--help"]),
        ("list-methods", ["list-methods"]),
        ("run again", ["run", "--config", a, "--trace", trace]),
        ("compare again", ["compare", "--configs", b]),
    ]
    seen = {}
    for name, argv in steps:
        try:
            code = main(argv)
        except SystemExit as e:  # argparse's own exits: 2 on a bad argument, 0 on --help
            code = e.code
        out, err = capsys.readouterr()
        trace_bytes = open(trace, "rb").read() if argv[0] == "run" else None
        seen[name] = (code, _mask_times(argv[0], out), trace_bytes)
        assert (code, seen[name][1], err) == _fresh_process(argv), name
        if trace_bytes is not None:
            assert open(trace, "rb").read() == trace_bytes, name  # as the fresh process wrote it
    assert [seen[name][0] for name, _ in steps] == [0, 0, 0, 2, 0, 0, 0, 0]
    assert seen["run again"] == seen["run"] and "(seed 0)" in seen["run"][1]

    monkeypatch.setenv("OPT_SEED", "7")
    argv = ["run", "--config", b]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "(seed 7)" in out
    assert (0, _mask_times("run", out), "") == _fresh_process(argv, env_seed="7")


# -- import graph and registry -------------------------------------------------------

METHOD_MODULE_NAMES = ("frankwolfe", "momentum", "smooth", "stochastic", "subgrad", "zeroorder")
# the modules a run loads only when it needs them: the method modules, the claims (never) and numpy.random for a draw
LAZY_MODULES = tuple("optbench." + n for n in METHOD_MODULE_NAMES) + ("optbench.claims", "numpy.random")


def _lazy_modules_loaded_by(code):
    """The :data:`LAZY_MODULES` a new interpreter has loaded after running ``code``."""
    probe = code + "\nimport sys\nprint(' '.join(n for n in %r if n in sys.modules))" % (LAZY_MODULES,)
    done = subprocess.run([sys.executable, "-c", probe], env=_fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


def test_import_loads_no_method_module():
    assert _lazy_modules_loaded_by("import optbench, optbench.bench.cli") == []


@pytest.mark.parametrize("method, noise, params, loaded", [
    ("gd", None, {}, ["optbench.smooth"]),
    ("zo_sgd", {"kind": "zo_stoch", "delta_tilde": 0.01}, {"gamma": 0.005, "tau": 0.01},
     ["optbench.stochastic", "optbench.zeroorder", "numpy.random"]),
])
def test_cli_run_loads_only_its_method_module(tmp_path, method, noise, params, loaded):
    doc = {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}},
           "method": {"name": method, "params": params}, "iterations": 20}
    if noise is not None:
        doc["noise"] = noise
    cfg = write_cfg(tmp_path, "run.json", doc)
    code = f"from optbench.bench.cli import main\nassert main(['run', '--config', {cfg!r}]) == 0"
    assert _lazy_modules_loaded_by(code) == loaded


def test_method_modules_resolve_as_package_attributes():
    code = ("import importlib, optbench\n"
            f"for n in {METHOD_MODULE_NAMES!r}:\n"
            "    assert getattr(optbench, n) is importlib.import_module('optbench.' + n), n\n"
            "    assert n in optbench.__all__, n\n"
            "from optbench import smooth\n"
            "assert smooth is optbench.smooth\n"
            "assert not hasattr(optbench, 'nope')")
    assert _lazy_modules_loaded_by(code) == ["optbench." + n for n in METHOD_MODULE_NAMES]


def test_the_benchmark_tracer_rebinds_and_restores_every_name():
    """``benchmarks/tracing.py`` rebinds names of optbench's modules by ``getattr``: each must exist."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "benchmarks", "tracing.py")
    module_spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    try:
        tracer.install(optbench)
        patched = list(tracer._patches)
        assert all(getattr(module, name) is not original for module, name, original in patched)
    finally:
        tracer.uninstall()
    assert len(patched) == 30
    assert [(module.__name__, name) for module, name, original in patched
            if getattr(module, name) is not original] == []


LIST_METHODS = """\
cg_quadratic           conjugate gradients (quadratic problems only)
chebyshev              Chebyshev semi-iterative recurrence
const_subgrad          constant-step subgradient descent, optional averaging
frank_wolfe            conditional gradient with classic or short step
gd                     gradient descent with step 1/L
gd_abs                 gradient descent under absolute gradient error, early stopping
gd_rel                 gradient descent under relative gradient error, fixed step
gd_rel_adaptive        adaptive-step descent under relative gradient error (alpha < 0.5)
heavy_ball             two-term momentum with constant coefficients
nesterov_cvx           look-ahead momentum with factor (k-1)/(k+2)
nesterov_sc            look-ahead momentum, strongly convex tuning
polyak_subgrad         subgradient descent with the Polyak step (needs f*)
restarted_switching    restarted switching scheme under conditional sharpness
sgd                    projected stochastic gradient descent
switching              adaptive switching scheme for one functional constraint
taylor_drori           worst-case-optimal accelerated recurrence
zo_sgd                 zeroth-order projected SGD with a kernel estimator
"""
ALLOWED_KEYS = {
    "cg_quadratic": ["tol"],
    "chebyshev": ["L", "mu", "tol"],
    "const_subgrad": ["M", "R", "averaging", "h"],
    "frank_wolfe": ["L", "step_rule", "tol"],
    "gd": ["L", "tol"],
    "gd_abs": ["L", "c", "delta", "tol"],
    "gd_rel": ["L", "alpha", "tol"],
    "gd_rel_adaptive": ["L0", "alpha", "tol"],
    "heavy_ball": ["L", "mu", "tol"],
    "nesterov_cvx": ["L", "mu", "tol"],
    "nesterov_sc": ["L", "mu", "tol"],
    "polyak_subgrad": ["fstar", "tol"],
    "restarted_switching": ["Mg", "alpha", "eps", "stage_cap", "theta0"],
    "sgd": ["M", "R", "averaging", "batch", "clip_lambda", "eta", "gamma", "gamma0", "mu", "step_rule",
            "tail_fraction"],
    "switching": ["Mg", "delta", "theta0"],
    "taylor_drori": ["L", "mu", "tol"],
    "zo_sgd": ["M", "R", "batch", "beta", "eta", "gamma", "gamma0", "mu", "step_rule", "tau", "tau0",
               "tau_exponent"],
}
AVAILABLE = ("available: cg_quadratic, chebyshev, const_subgrad, frank_wolfe, gd, gd_abs, gd_rel, "
             "gd_rel_adaptive, heavy_ball, nesterov_cvx, nesterov_sc, polyak_subgrad, restarted_switching, "
             "sgd, switching, taylor_drori, zo_sgd")


def test_registry_listing_messages_and_keys_are_pinned(tmp_path, capsys):
    assert main(["list-methods"]) == 0
    assert capsys.readouterr().out == LIST_METHODS
    assert method_names() == sorted(ALLOWED_KEYS)
    assert {name: sorted(method_entry(name).allowed) for name in method_names()} == ALLOWED_KEYS
    assert method_entry("nope") is None
    for method, err in [
        ("nope", f"error: unknown method 'nope'; {AVAILABLE}\n"),
        ({"name": ["gd"]}, f"error: unknown method ['gd']; {AVAILABLE}\n"),
        ({"name": "gd", "params": {"zz": 1, "a": 2}},
         "error: method 'gd': unknown params ['a', 'zz']; allowed: ['L', 'tol']\n"),
        ({"name": "heavy_ball", "params": {"q": 1}},
         "error: method 'heavy_ball': unknown params ['q']; allowed: ['L', 'mu', 'tol']\n"),
    ]:
        cfg = write_cfg(tmp_path, "bad.json", {"problem": "quad_diag", "method": method, "iterations": 5})
        assert main(["run", "--config", cfg]) == 2
        assert capsys.readouterr() == ("", err)


def test_checked_in_bench_files_name_only_declared_workloads_and_metrics_and_read_no_failed_op():
    """Each ``BENCH_*.json`` that ``tools/bench_pairs.py --out`` wrote names what ``BENCHMARK.json`` declares."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    workloads = {w["name"] for w in declared["workloads"]}
    metrics = {m["name"] for m in declared["end_to_end"]}
    for name in sorted(n for n in os.listdir(root) if re.fullmatch(r"BENCH_.+\.json", n)):
        with open(os.path.join(root, name)) as fh:
            doc = json.load(fh)
        assert doc["workloads"] and set(doc["workloads"]) <= workloads, name
        assert len(doc["seeds"]) == doc["pairs"] > 0 and set(doc["commits"]) == {"parent", "change"}, name
        for workload, got in doc["workloads"].items():
            assert got["metrics"] and set(got["metrics"]) <= metrics, (name, workload)
            assert got["failed"] == {"parent": 0, "change": 0}, (name, workload)
            assert all(m["pairs"] == doc["pairs"] for m in got["metrics"].values()), (name, workload)
