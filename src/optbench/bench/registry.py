"""Method registry: names, allowed parameters, builders.

Each entry's builder ``build(spec, oracle)`` reads the method's
parameters, resolves the defaults that come from the problem or the
noise model, builds the method's config and returns
``run(fset, x0, rng) -> Trace``; a problem constant the parameters leave
out is read with :meth:`~optbench.core.oracles.OracleSuite.constant`, so
a problem that lacks it is refused at parse.  Building calls no oracle, so
:func:`optbench.bench.runner.assemble` builds against the noise-wrapped
problem both when :func:`~optbench.bench.config.parse_config` checks a
config and when the runner runs it.

The registry imports no method module at its own import.  Each entry
names its module, and :func:`method_entry` imports it with
:mod:`importlib` when the method is built or listed, so a run loads its
method's module only (``zo_sgd``'s also loads ``stochastic``).  The
momentum variants are named by ``momentum.VARIANTS``, so resolving one
of them, listing the methods or reporting an unknown name imports
``momentum``.  The builders take the imported module as their first
argument; their closures look the method's entry point up as an
attribute of that module when the run starts.
"""

from __future__ import annotations

import importlib
from dataclasses import MISSING, dataclass, fields
from functools import cache, partial
from types import ModuleType
from typing import Callable, Optional

import numpy as np

from ..core.linalg import flag, number
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


def _module(name: str) -> ModuleType:
    """The method module ``optbench.<name>``, imported on first use."""
    return importlib.import_module(f"..{name}", __package__)


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


def _problem_constant(params: dict, key: str, oracle: OracleSuite, name: Optional[str] = None) -> float:
    """``params[key]``, else the problem's constant ``name`` (by default ``key``); a null ``key`` reads as omitted."""
    return oracle.constant(name or key, _float(params, key), key)


def _step_rule(table: dict, params: dict, oracle: OracleSuite):
    """The rule of kind ``params["step_rule"]`` (default: ``table``'s first), read from its fields' keys."""
    kind = params.get("step_rule", next(iter(table)))
    cls = table.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"unknown step_rule {kind!r} ({' | '.join(table)})")
    # A missing or null M, mu or L is the problem's constant; another field, its default.
    return cls(**{f.name: _problem_constant(params, f.name, oracle) if f.name in ("M", "mu", "L")
                  else _float(params, f.name, f.default) if f.default is not MISSING
                  else _need(params, f.name) for f in fields(cls)})


def _rule_keys(table: dict) -> set:
    return {"step_rule"} | {f.name for cls in table.values() for f in fields(cls)}


# -- subgradient methods -----------------------------------------------------

def _build_polyak_subgrad(subgrad, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = subgrad.SubgradConfig(step_rule=subgrad.PolyakStep(_problem_constant(p, "fstar", oracle)),
                                N=spec.iterations, tol=_float(p, "tol", subgrad.SubgradConfig.tol))
    return lambda fset, x0, rng: subgrad.run_polyak_subgrad(oracle, fset, x0, cfg, **kw)


def _build_const_subgrad(subgrad, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    if p.get("h") is not None:
        rule = subgrad.FixedStep(_float(p, "h"))
    elif p.get("R") is None:
        raise ValueError("give either a step 'h' or a radius 'R' (with optional 'M')")
    else:
        rule = subgrad.BudgetStep(M=_problem_constant(p, "M", oracle), R=_float(p, "R"))
    cfg = subgrad.SubgradConfig(step_rule=rule, N=max(spec.iterations, 1),
                                averaging=flag(p.get("averaging"), "averaging"))
    return lambda fset, x0, rng: subgrad.run_const_subgrad(oracle, fset, x0, cfg, **kw)


def _build_switching(subgrad, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    delta = _need(p, "delta")
    if not delta > 0:  # also true for NaN; refused here, at parse, as run_switching would refuse it
        raise ValueError("delta must be positive")
    cfg = subgrad.SwitchingConfig(
        delta=delta,
        theta0=_need(p, "theta0"),
        Mg=_float(p, "Mg"),
        max_iters=spec.iterations,
    )
    return lambda fset, x0, rng: subgrad.run_switching(oracle, fset, x0, cfg, **kw)


def _build_restarted_switching(subgrad, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = subgrad.SwitchingConfig(
        theta0=_need(p, "theta0"),
        Mg=_float(p, "Mg"),
        # iterations caps the steps of all stages, stage_cap (default: iterations) each stage's;
        # a zero cap is refused
        max_iters=number(p.get("stage_cap", spec.iterations), "stage_cap", whole=True),
        total_iters=spec.iterations,
        eps_target=_need(p, "eps"),
        alpha_sharp=_problem_constant(p, "alpha", oracle, "alpha_sharp"),
    )
    return lambda fset, x0, rng: subgrad.run_restarted_switching(oracle, fset, x0, cfg, **kw)


# -- smooth first-order methods ----------------------------------------------

def _relative_alpha(spec: ExperimentSpec) -> float:
    alpha = _float(spec.method_params, "alpha", spec.noise.alpha if isinstance(spec.noise, RelativeGrad) else None)
    if alpha is None:
        raise ValueError("alpha not given and no relative_grad noise configured")
    return alpha


def _smooth_run(smooth, spec: ExperimentSpec, oracle, mode, entry: str) -> Run:
    """The run of ``smooth.<entry>`` under ``mode``; a fixed-step mode's ``L`` is the problem's when not given."""
    p, kw = spec.method_params, _common_kwargs(spec)
    L = None if isinstance(mode, smooth.RelNoiseAdaptive) else _problem_constant(p, "L", oracle)
    cfg = smooth.SmoothRunConfig(N=spec.iterations, L=L, mode=mode,
                                 tol=_float(p, "tol", smooth.SmoothRunConfig.tol))
    return lambda fset, x0, rng: getattr(smooth, entry)(oracle, x0, cfg, **kw)


def _build_gd(smooth, spec, oracle) -> Run:
    return _smooth_run(smooth, spec, oracle, smooth.Exact(), "run_gd")


def _build_gd_abs(smooth, spec, oracle) -> Run:
    p = spec.method_params
    delta = _float(p, "delta", spec.noise.delta if isinstance(spec.noise, AbsoluteGrad) else None)
    if delta is None:
        raise ValueError("delta not given and no absolute_grad noise configured")
    mode = smooth.AbsNoise(delta=delta, stop_multiplier=_float(p, "c", smooth.AbsNoise.stop_multiplier))
    return _smooth_run(smooth, spec, oracle, mode, "run_gd_abs")


def _build_gd_rel(smooth, spec, oracle) -> Run:
    mode = smooth.RelNoise(alpha=_relative_alpha(spec))
    return _smooth_run(smooth, spec, oracle, mode, "run_gd_rel")


def _build_gd_rel_adaptive(smooth, spec, oracle) -> Run:
    mode = smooth.RelNoiseAdaptive(_relative_alpha(spec), _problem_constant(spec.method_params, "L0", oracle, "L"))
    return _smooth_run(smooth, spec, oracle, mode, "run_gd_rel_adaptive")


# -- momentum methods ----------------------------------------------------------

def _build_momentum(variant: str, momentum, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    # mu is optional, filled when the run starts, unless the variant needs it
    cfg = momentum.MomentumConfig(variant=variant, N=spec.iterations, L=_problem_constant(p, "L", oracle),
                                  mu=_problem_constant(p, "mu", oracle) if momentum.VARIANTS[variant].needs_mu
                                  else _float(p, "mu"),
                                  tol=_float(p, "tol", momentum.MomentumConfig.tol))
    return lambda fset, x0, rng: momentum.run_momentum(oracle, x0, cfg, **kw)


def _build_cg_quadratic(momentum, spec, oracle) -> Run:
    N, kw = spec.iterations, _common_kwargs(spec)
    if "tol" in spec.method_params:
        kw["tol"] = number(spec.method_params["tol"], "tol")
    return lambda fset, x0, rng: momentum.run_cg_quadratic(oracle, x0, N, **kw)


# -- frank-wolfe ----------------------------------------------------------------

def _build_frank_wolfe(frankwolfe, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = frankwolfe.FwConfig(N=max(spec.iterations, 1), step_rule=_step_rule(frankwolfe.FW_STEP_RULES, p, oracle),
                              tol=_float(p, "tol", frankwolfe.FwConfig.tol))
    return lambda fset, x0, rng: frankwolfe.run_fw(oracle, fset, x0, cfg, **kw)


# -- stochastic -------------------------------------------------------------------

def _sgd_averaging(stochastic, p: dict):
    mode = p.get("averaging", "none")
    if mode == "none":
        return stochastic.NoAveraging()
    if mode == "uniform":
        return stochastic.UniformAvg()
    if mode == "tail":
        return stochastic.TailAvg(fraction=_float(p, "tail_fraction", stochastic.TailAvg.fraction))
    raise ValueError(f"unknown averaging mode {mode!r} (none | uniform | tail)")


def _build_sgd(stochastic, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    cfg = stochastic.SgdConfig(
        N=spec.iterations,
        step_rule=_step_rule(stochastic.STEP_RULES, p, oracle),
        batch=number(p.get("batch", stochastic.SgdConfig.batch), "batch", whole=True),
        clip_lambda=_float(p, "clip_lambda"),
        averaging=_sgd_averaging(stochastic, p),
    )
    return lambda fset, x0, rng: stochastic.run_sgd(oracle, fset, x0, cfg, rng, **kw)


def _build_zo_sgd(zeroorder, spec, oracle) -> Run:
    p, kw = spec.method_params, _common_kwargs(spec)
    if "tau0" in p:
        tau = zeroorder.PowerDecayTau(tau0=_need(p, "tau0"), exponent=_float(p, "tau_exponent", 0.0))
    else:
        tau = zeroorder.ConstTau(_float(p, "tau", zeroorder.ConstTau.tau))
    if spec.iterations > 0:  # tau_k does not grow with k: the last iteration's is the least
        last = spec.iterations - 1
        try:
            zeroorder.estimator_scale(oracle.dim, tau.at(last))
        except ValueError as e:
            raise ValueError(f"{e} (tau at iteration {last})") from None
    cfg = zeroorder.ZoConfig(
        N=spec.iterations,
        step_rule=_step_rule(_module("stochastic").STEP_RULES, p, oracle),
        kernel=zeroorder.build_kernel(number(p.get("beta", 2), "beta", whole=True)),
        tau_schedule=tau,
        batch=number(p.get("batch", zeroorder.ZoConfig.batch), "batch", whole=True),
    )
    return lambda fset, x0, rng: zeroorder.run_zo_sgd(oracle, fset, x0, cfg, rng, **kw)


# name -> (its module, its list-methods line, its keys or a function of its module giving
# them, its builder); the momentum variants are the names in momentum.VARIANTS
_DECLARED = {
    "polyak_subgrad": ("subgrad", "subgradient descent with the Polyak step (needs f*)",
                       {"tol", "fstar"}, _build_polyak_subgrad),
    "const_subgrad": ("subgrad", "constant-step subgradient descent, optional averaging",
                      {"h", "R", "M", "averaging"}, _build_const_subgrad),
    "switching": ("subgrad", "adaptive switching scheme for one functional constraint",
                  {"delta", "theta0", "Mg"}, _build_switching),
    "restarted_switching": ("subgrad", "restarted switching scheme under conditional sharpness",
                            {"eps", "theta0", "Mg", "alpha", "stage_cap"}, _build_restarted_switching),
    "gd": ("smooth", "gradient descent with step 1/L",
           {"L", "tol"}, _build_gd),
    "gd_abs": ("smooth", "gradient descent under absolute gradient error, early stopping",
               {"L", "tol", "delta", "c"}, _build_gd_abs),
    "gd_rel": ("smooth", "gradient descent under relative gradient error, fixed step",
               {"L", "tol", "alpha"}, _build_gd_rel),
    "gd_rel_adaptive": ("smooth", "adaptive-step descent under relative gradient error (alpha < 0.5)",
                        {"L0", "tol", "alpha"}, _build_gd_rel_adaptive),
    "cg_quadratic": ("momentum", "conjugate gradients (quadratic problems only)",
                     {"tol"}, _build_cg_quadratic),
    "frank_wolfe": ("frankwolfe", "conditional gradient with classic or short step",
                    lambda m: _rule_keys(m.FW_STEP_RULES) | {"tol"}, _build_frank_wolfe),
    "sgd": ("stochastic", "projected stochastic gradient descent",
            lambda m: _rule_keys(m.STEP_RULES) | {"batch", "clip_lambda", "averaging", "tail_fraction"},
            _build_sgd),
    "zo_sgd": ("zeroorder", "zeroth-order projected SGD with a kernel estimator",
               lambda m: _rule_keys(_module("stochastic").STEP_RULES)
               | {"batch", "beta", "tau", "tau0", "tau_exponent"}, _build_zo_sgd),
}
_VARIANT_KEYS = frozenset({"L", "mu", "tol"})


@cache
def method_entry(name: str) -> Optional[MethodEntry]:
    """The entry of method ``name``, importing its module on the first call; None for an unknown name."""
    if name in _DECLARED:
        module, doc, keys, build = _DECLARED[name]
        mod = _module(module)
        return MethodEntry(name, doc, frozenset(keys(mod) if callable(keys) else keys), partial(build, mod))
    momentum = _module("momentum")
    variant = momentum.VARIANTS.get(name)
    return None if variant is None else MethodEntry(name, variant.doc, _VARIANT_KEYS,
                                                    partial(_build_momentum, name, momentum))


def method_names() -> list[str]:
    """Every method name, sorted; imports ``momentum`` for its variants."""
    return sorted([*_DECLARED, *_module("momentum").VARIANTS])


def build_method(spec: ExperimentSpec, oracle: OracleSuite) -> Run:
    """Check ``spec``'s method name and parameters against ``oracle`` and build its run.

    Returns ``run(fset, x0, rng) -> Trace``; building makes no oracle call.
    A bad name or parameter raises :class:`ConfigError`.
    """
    entry = method_entry(spec.method_name) if isinstance(spec.method_name, str) else None
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
