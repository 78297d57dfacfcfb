"""Method registry: names, allowed parameters, builders.

Each entry's builder ``build(spec, oracle)`` reads the method's
parameters, resolves the defaults that come from the problem or the
noise model, builds the method's config and returns
``run(fset, x0, rng) -> Trace``.  Building calls no oracle, so
:func:`optbench.bench.config.parse_config` builds against the bare
problem to check a config, and the runner builds against the
noise-wrapped oracle and runs the result.  The closures look the
method's entry point up as a module attribute at call time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .. import frankwolfe, momentum, smooth, stochastic, subgrad, zeroorder
from ..core.linalg import number
from ..core.noise import AbsoluteGrad, RelativeGrad
from ..core.oracles import OracleSuite, Trace
from ..core.rng import Rng
from ..core.sets import FeasibleSet
from .config import ConfigError, ExperimentSpec

Run = Callable[[FeasibleSet, np.ndarray, Rng], Trace]


@dataclass(frozen=True)
class MethodEntry:
    name: str
    doc: str
    allowed: frozenset
    build: Callable[[ExperimentSpec, OracleSuite], Run]


def _common_kwargs(spec: ExperimentSpec) -> dict:
    return dict(record_every=spec.record_every, record_x=spec.record_x,
                max_oracle_calls=spec.max_oracle_calls)


def _need(params: dict, key: str) -> float:
    if params.get(key) is None:
        raise ValueError(f"missing required parameter {key!r}")
    return number(params[key], key)


def _float(params: dict, key: str, default=None) -> Optional[float]:
    """``params[key]``, else ``default``, as a float; None only where both are absent or null."""
    value = params.get(key, default)
    return None if value is None and default is None else number(value, key)


# -- subgradient methods -----------------------------------------------------

def _build_polyak_subgrad(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = subgrad.SubgradConfig(step_rule=subgrad.PolyakStep(_float(p, "fstar")),
                                N=max(spec.iterations, 1), tol=_float(p, "tol", 0.0))
    return lambda fset, x0, rng: subgrad.run_polyak_subgrad(oracle, fset, x0, cfg, **kw)


def _build_const_subgrad(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    if p.get("h") is not None:
        rule = subgrad.FixedStep(_float(p, "h"))
    elif p.get("R") is None:
        raise ValueError("give either a step 'h' or a radius 'R' (with optional 'M')")
    else:
        M = _float(p, "M", oracle.M)
        if M is None:
            raise ValueError("M not given and unknown for this problem")
        rule = subgrad.BudgetStep(M=M, R=_float(p, "R"))
    cfg = subgrad.SubgradConfig(step_rule=rule, N=max(spec.iterations, 1),
                                tol=_float(p, "tol", 0.0),
                                averaging=bool(p.get("averaging", False)))
    return lambda fset, x0, rng: subgrad.run_const_subgrad(oracle, fset, x0, cfg, **kw)


def _build_switching(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = subgrad.SwitchingConfig(
        delta=_need(p, "delta"),
        theta0=_need(p, "theta0"),
        Mg=_float(p, "Mg"),
        max_iters=max(spec.iterations, 1),
    )
    return lambda fset, x0, rng: subgrad.run_switching(oracle, None, fset, x0, cfg, **kw)[1]


def _build_restarted_switching(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = subgrad.SwitchingConfig(
        delta=1.0,  # per-stage deltas are derived inside
        theta0=_need(p, "theta0"),
        Mg=_float(p, "Mg"),
        max_iters=number(p.get("stage_cap", max(spec.iterations, 1)), "stage_cap", whole=True),
        eps_target=_need(p, "eps"),
        alpha_sharp=_float(p, "alpha"),
    )
    return lambda fset, x0, rng: subgrad.run_restarted_switching(oracle, None, fset, x0, cfg, **kw)[1]


# -- smooth first-order methods ----------------------------------------------

def _relative_alpha(spec: ExperimentSpec) -> float:
    alpha = _float(spec.method_params, "alpha", spec.noise.alpha if isinstance(spec.noise, RelativeGrad) else None)
    if alpha is None:
        raise ValueError("alpha not given and no relative_grad noise configured")
    return alpha


def _smooth_run(spec: ExperimentSpec, oracle, mode, entry: str) -> Run:
    """The run of ``smooth.<entry>`` under ``mode``."""
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = smooth.SmoothRunConfig(N=spec.iterations, L=_float(p, "L"), mode=mode, tol=_float(p, "tol", 1e-10))
    return lambda fset, x0, rng: getattr(smooth, entry)(oracle, x0, cfg, **kw)


def _build_gd(spec, oracle) -> Run:
    return _smooth_run(spec, oracle, smooth.Exact(), "run_gd")


def _build_gd_abs(spec, oracle) -> Run:
    p = spec.method_params
    delta = _float(p, "delta", spec.noise.delta if isinstance(spec.noise, AbsoluteGrad) else None)
    if delta is None:
        raise ValueError("delta not given and no absolute_grad noise configured")
    mode = smooth.AbsNoise(delta=delta, stop_multiplier=_float(p, "c", 2.0))
    return _smooth_run(spec, oracle, mode, "run_gd_abs")


def _build_gd_rel(spec, oracle) -> Run:
    return _smooth_run(spec, oracle, smooth.RelNoise(alpha=_relative_alpha(spec)), "run_gd_rel")


def _build_gd_rel_adaptive(spec, oracle) -> Run:
    alpha = _relative_alpha(spec)
    L0 = _float(spec.method_params, "L0", oracle.L)
    if L0 is None:
        raise ValueError("L0 not given and L unknown for this problem")
    return _smooth_run(spec, oracle, smooth.RelNoiseAdaptive(alpha=alpha, L0=L0), "run_gd_rel_adaptive")


# -- momentum methods ----------------------------------------------------------

def _build_momentum(variant: str, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = momentum.MomentumConfig(variant=variant, N=spec.iterations,
                                  L=_float(p, "L"), mu=_float(p, "mu"),
                                  tol=_float(p, "tol", 1e-10))
    return lambda fset, x0, rng: momentum.run_momentum(oracle, x0, cfg, **kw)


def _build_cg_quadratic(spec, oracle) -> Run:
    N, tol, kw = spec.iterations, _float(spec.method_params, "tol", 0.0), _common_kwargs(spec)
    return lambda fset, x0, rng: momentum.run_cg_quadratic(oracle, x0, N, tol=tol, **kw)


# -- frank-wolfe ----------------------------------------------------------------

def _build_frank_wolfe(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    rule_name = p.get("step_rule", "classic")
    if rule_name == "classic":
        rule = frankwolfe.Classic()
    elif rule_name == "short":
        rule = frankwolfe.ShortStep(L=_float(p, "L"))
    else:
        raise ValueError(f"unknown step_rule {rule_name!r} (classic | short)")
    cfg = frankwolfe.FwConfig(N=max(spec.iterations, 1), step_rule=rule, tol=_float(p, "tol", 0.0))
    return lambda fset, x0, rng: frankwolfe.run_fw(oracle, fset, x0, cfg, **kw)


# -- stochastic -------------------------------------------------------------------

_SGD_STEP_KEYS = {"step_rule", "gamma", "R", "M", "mu", "gamma0", "eta"}


def _sgd_step_rule(p: dict, oracle: OracleSuite) -> stochastic.StepRule:
    rule = p.get("step_rule", "const")
    if rule == "const":
        return stochastic.Const(_need(p, "gamma"))
    if rule == "budget_const":
        M = _float(p, "M", oracle.M)
        if M is None:
            raise ValueError("M not given and unknown for this problem")
        return stochastic.BudgetConst(R=_need(p, "R"), M=M)
    if rule == "inv_k":
        mu = _float(p, "mu", oracle.mu)
        if mu is None:
            raise ValueError("mu not given and unknown for this problem")
        return stochastic.InvK(mu=mu)
    if rule == "adagrad_norm":
        return stochastic.AdaGradNorm(R=_need(p, "R"))
    if rule == "decay":
        return stochastic.Decay(gamma0=_need(p, "gamma0"), eta=_float(p, "eta", 0.6))
    raise ValueError(f"unknown step_rule {rule!r} "
                     "(const | budget_const | inv_k | adagrad_norm | decay)")


def _sgd_averaging(p: dict) -> stochastic.Averaging:
    mode = p.get("averaging", "none")
    if mode == "none":
        return stochastic.NoAveraging()
    if mode == "uniform":
        return stochastic.UniformAvg()
    if mode == "tail":
        return stochastic.TailAvg(fraction=_float(p, "tail_fraction", 0.5))
    raise ValueError(f"unknown averaging mode {mode!r} (none | uniform | tail)")


def _build_sgd(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = stochastic.SgdConfig(
        N=spec.iterations,
        step_rule=_sgd_step_rule(p, oracle),
        batch=number(p.get("batch", 1), "batch", whole=True),
        clip_lambda=_float(p, "clip_lambda"),
        averaging=_sgd_averaging(p),
    )
    return lambda fset, x0, rng: stochastic.run_sgd(oracle, fset, x0, cfg, rng, **kw)


def _build_zo_sgd(spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    if "tau0" in p:
        tau = zeroorder.PowerDecayTau(tau0=_need(p, "tau0"), exponent=_float(p, "tau_exponent", 0.0))
    else:
        tau = zeroorder.ConstTau(_float(p, "tau", 1e-3))
    cfg = zeroorder.ZoConfig(
        N=spec.iterations,
        step_rule=_sgd_step_rule(p, oracle),
        kernel=zeroorder.build_kernel(number(p.get("beta", 2), "beta", whole=True)),
        tau_schedule=tau,
        batch=number(p.get("batch", 1), "batch", whole=True),
    )
    return lambda fset, x0, rng: zeroorder.run_zo_sgd(oracle, fset, x0, cfg, rng, **kw)


def _entry(name, doc, allowed, build) -> MethodEntry:
    return MethodEntry(name=name, doc=doc, allowed=frozenset(allowed), build=build)


METHODS: dict[str, MethodEntry] = {e.name: e for e in [
    _entry("polyak_subgrad", "subgradient descent with the Polyak step (needs f*)",
           {"tol", "fstar"}, _build_polyak_subgrad),
    _entry("const_subgrad", "constant-step subgradient descent, optional averaging",
           {"h", "R", "M", "tol", "averaging"}, _build_const_subgrad),
    _entry("switching", "adaptive switching scheme for one functional constraint",
           {"delta", "theta0", "Mg"}, _build_switching),
    _entry("restarted_switching", "restarted switching scheme under conditional sharpness",
           {"eps", "theta0", "Mg", "alpha", "stage_cap"}, _build_restarted_switching),
    _entry("gd", "gradient descent with step 1/L",
           {"L", "tol"}, _build_gd),
    _entry("gd_abs", "gradient descent under absolute gradient error, early stopping",
           {"L", "tol", "delta", "c"}, _build_gd_abs),
    _entry("gd_rel", "gradient descent under relative gradient error, fixed step",
           {"L", "tol", "alpha"}, _build_gd_rel),
    _entry("gd_rel_adaptive", "adaptive-step descent under relative gradient error (alpha < 0.5)",
           {"L", "L0", "tol", "alpha"}, _build_gd_rel_adaptive),
    _entry("heavy_ball", "two-term momentum with constant coefficients",
           {"L", "mu", "tol"}, partial(_build_momentum, "heavy_ball")),
    _entry("chebyshev", "Chebyshev semi-iterative recurrence",
           {"L", "mu", "tol"}, partial(_build_momentum, "chebyshev")),
    _entry("nesterov_sc", "look-ahead momentum, strongly convex tuning",
           {"L", "mu", "tol"}, partial(_build_momentum, "nesterov_sc")),
    _entry("nesterov_cvx", "look-ahead momentum with factor (k-1)/(k+2)",
           {"L", "mu", "tol"}, partial(_build_momentum, "nesterov_cvx")),
    _entry("taylor_drori", "worst-case-optimal accelerated recurrence",
           {"L", "mu", "tol"}, partial(_build_momentum, "taylor_drori")),
    _entry("cg_quadratic", "conjugate gradients (quadratic problems only)",
           {"tol"}, _build_cg_quadratic),
    _entry("frank_wolfe", "conditional gradient with classic or short step",
           {"step_rule", "L", "tol"}, _build_frank_wolfe),
    _entry("sgd", "projected stochastic gradient descent",
           _SGD_STEP_KEYS | {"batch", "clip_lambda", "averaging", "tail_fraction"}, _build_sgd),
    _entry("zo_sgd", "zeroth-order projected SGD with a kernel estimator",
           _SGD_STEP_KEYS | {"batch", "beta", "tau", "tau0", "tau_exponent"}, _build_zo_sgd),
]}


def method_names() -> list[str]:
    return sorted(METHODS)


def build_method(spec: ExperimentSpec, oracle: OracleSuite) -> Run:
    """Check ``spec``'s method name and parameters against ``oracle`` and build its run.

    Returns ``run(fset, x0, rng) -> Trace``; building makes no oracle call.
    A bad name or parameter raises :class:`ConfigError`.
    """
    entry = METHODS.get(spec.method_name)
    if not isinstance(spec.method_params, dict):
        raise ConfigError(f"method: params must be an object, got {spec.method_params!r}")
    if entry is None:
        raise ConfigError(f"unknown method {spec.method_name!r}; available: {', '.join(method_names())}")
    unknown = set(spec.method_params) - entry.allowed
    if unknown:
        raise ConfigError(f"method {spec.method_name!r}: unknown params {sorted(unknown)}; "
                          f"allowed: {sorted(entry.allowed)}")
    try:
        return entry.build(spec, oracle)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"method {spec.method_name!r}: {e}") from None
