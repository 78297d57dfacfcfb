"""Nonsmooth subgradient methods.

* :func:`run_polyak_subgrad` -- projected subgradient descent with the
  Polyak step ``h_k = (f(x^k) - f*) / ||g_k||^2``, which requires the
  optimal value and drives the distance to the minimizer set down
  monotonically.
* :func:`run_const_subgrad` -- constant-step subgradient descent, either
  with a user step or with the budget-tuned ``h = R / (M sqrt(N))``, and
  optional uniform averaging of the first N iterates.
* :func:`run_switching` -- the adaptive switching scheme for problems
  with a functional constraint ``g(x) <= 0``: descend on f while the
  constraint is nearly satisfied (productive steps), on g otherwise.
* :func:`run_restarted_switching` -- restarts of the switching scheme
  that halve the distance bound per stage under a conditional
  sharp-minimum assumption.

Each returns a :class:`Trace`; a run the oracle budget cuts short ends as
``budget_exhausted``, and no :class:`OracleBudgetError` escapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core.linalg import norm
from .core.oracles import (
    CountingOracle,
    OracleBudgetError,
    OracleSuite,
    RunStatus,
    Trace,
    TraceRecorder,
    ZeroSubgradientError,
)
from .core.sets import FeasibleSet, FullSpace


@dataclass(frozen=True)
class PolyakStep:
    """Step from the optimality gap; fstar defaults to the oracle's value."""

    fstar: Optional[float] = None


@dataclass(frozen=True)
class FixedStep:
    h: float

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("step must be positive")


@dataclass(frozen=True)
class BudgetStep:
    """h = R / (M sqrt(N)) for a known Lipschitz bound and start radius."""

    M: float
    R: float

    def __post_init__(self):
        if not (self.M > 0 and self.R > 0):
            raise ValueError("M and R must be positive")


@dataclass(frozen=True)
class SubgradConfig:
    step_rule: PolyakStep | FixedStep | BudgetStep
    N: int  # the Polyak rule's steps; the constant rules' iterates x^0 .. x^{N-1}
    tol: float = 0.0
    averaging: bool = False

    def __post_init__(self):
        if self.N < (0 if isinstance(self.step_rule, PolyakStep) else 1):
            raise ValueError("budget N must be >= 1, or >= 0 with the Polyak step")
        if not 0 <= self.tol < math.inf:  # also true for NaN
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


class NoProductiveStepsError(RuntimeError):
    pass


def run_polyak_subgrad(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SubgradConfig,
                       *, record_every: int = 1, record_x: bool = False,
                       max_oracle_calls: Optional[int] = None) -> Trace:
    """Projected subgradient descent with the Polyak step.

    Stops as converged once ``f(x^k) - f* <= tol`` (checked before the
    step is formed, which also guards the division by ``||g||^2``).
    A zero subgradient above the tolerance contradicts convexity with a
    correct ``f*`` and raises :class:`ZeroSubgradientError`.
    """
    if not isinstance(cfg.step_rule, PolyakStep):
        raise ValueError("run_polyak_subgrad requires a PolyakStep rule")
    fstar = cfg.step_rule.fstar if cfg.step_rule.fstar is not None else oracle.fstar
    if fstar is None:
        raise ValueError("the Polyak step needs the optimal value f*")

    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = fset.project(x0)
    project_needed = not isinstance(fset, FullSpace)
    k = 0
    try:
        while k < cfg.N:
            fx = ctr.value(x)
            gap = fx - fstar
            if gap <= cfg.tol:
                return rec.close(k, x, RunStatus.CONVERGED, f_value=fx)
            g = ctr.subgrad(x)
            gn2 = float(g.dot(g))
            if gn2 == 0.0:
                raise ZeroSubgradientError(
                    f"zero subgradient off-optimum at iter {k} (gap {gap:.3e})")
            h = gap / gn2
            rec.record(k, x, fx, grad_norm=math.sqrt(gn2), step_size=h)
            x = x - h * g
            if project_needed:
                x = fset.project(x)
            k += 1
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED)


def run_const_subgrad(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SubgradConfig,
                      *, record_every: int = 1, record_x: bool = False,
                      max_oracle_calls: Optional[int] = None) -> Trace:
    """Constant-step subgradient descent over iterates x^0 .. x^{N-1}.

    With ``averaging`` on, the reported point is the uniform average of
    those N iterates (the budget-step tuning then guarantees
    ``f(avg) - f* <= M R / sqrt(N)``).
    """
    if isinstance(cfg.step_rule, FixedStep):
        h = cfg.step_rule.h
    elif isinstance(cfg.step_rule, BudgetStep):
        h = cfg.step_rule.R / (cfg.step_rule.M * math.sqrt(cfg.N))
    else:
        raise ValueError("run_const_subgrad requires FixedStep or BudgetStep")

    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = fset.project(x0)
    project_needed = not isinstance(fset, FullSpace)
    sum_x = np.zeros_like(x)
    try:
        for k in range(cfg.N):
            sum_x += x  # in place costs what a fresh add does from d = 2 on; d = 1: see stochastic._projected_sgd
            if k == cfg.N - 1:
                break
            g = ctr.subgrad(x)
            if rec.due(k):
                rec.record(k, x, grad_norm=norm(g), step_size=h)
            x = x - h * g
            if project_needed:
                x = fset.project(x)
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED, sum_x / (k + 1) if cfg.averaging else None)


@dataclass(frozen=True)
class SwitchingConfig:
    """Inputs of the switching scheme (and of its restarted version).

    theta0 must satisfy ``2 theta0^2 >= ||x* - x0||^2``; Mg is the
    Lipschitz constant of the constraint (taken from the constraint
    oracle when omitted).  ``delta`` is only used by the plain scheme,
    ``eps_target``, ``alpha_sharp`` and ``total_iters`` only by the
    restarted variant, where ``max_iters`` caps each stage and
    ``total_iters`` (when given) the steps of all stages together.
    """

    delta: float = 0.0
    theta0: float = 1.0
    Mg: Optional[float] = None
    max_iters: int = 100_000
    eps_target: Optional[float] = None
    alpha_sharp: Optional[float] = None
    total_iters: Optional[int] = None

    def __post_init__(self):
        if not self.theta0 > 0:  # also true for NaN
            raise ValueError("theta0 must be positive")
        if self.max_iters < 1 or (self.total_iters is not None and self.total_iters < 1):
            raise ValueError("iteration cap must be >= 1")
        if self.eps_target is not None and not self.eps_target > 0:
            raise ValueError("eps_target must be positive")
        if self.alpha_sharp is not None and not self.alpha_sharp > 0:
            raise ValueError("alpha_sharp must be positive")


def _switching_stage(ctr: CountingOracle, rec: TraceRecorder, fset: FeasibleSet,
                     x: np.ndarray, delta: float, theta: float, Mg: float,
                     cap: int, start_iter: int, stage_tag: str):
    """One run of the switching scheme; returns (best_x, x_end, iters, ended).

    ``ended`` says how the stage ended: ``"stop"`` once the stop sum is
    reached, ``"cap"`` after ``cap`` iterations, ``"budget"`` when the
    oracle budget ran out during iteration ``iters`` (at ``x_end``).
    """
    threshold = 2.0 * theta * theta / (delta * delta)
    productive_tag, nonproductive_tag = stage_tag + "productive", stage_tag + "nonproductive"
    project_needed = not isinstance(fset, FullSpace)
    sum_productive = 0.0
    n_nonproductive = 0
    best_f = math.inf
    best_x: Optional[np.ndarray] = None
    k = 0
    try:
        while k < cap:
            it = start_iter + k
            gx = ctr.constraint_value(x)
            if gx <= delta * Mg:
                fx = ctr.value(x)
                g = ctr.subgrad(x)
                gn2 = float(g.dot(g))
                if fx < best_f:
                    best_f, best_x = fx, x.copy()
                if gn2 == 0.0:
                    # Minimal-norm selection hit an exact minimizer of f on a
                    # productive step: the stop sum is +inf, stop here.
                    rec.record(it, x, fx, grad_norm=0.0, step_size=0.0, tag=productive_tag, force=True)
                    return best_x, x, k + 1, "stop"
                h = delta / gn2
                if rec.due(it):
                    rec.record(it, x, fx, grad_norm=math.sqrt(gn2), step_size=h, tag=productive_tag)
                x = x - h * g
                sum_productive += 1.0 / gn2
            else:
                g = ctr.constraint_subgrad(x)
                gn = norm(g)
                if Mg > 0 and gn > Mg * (1 + 1e-9):
                    warnings.warn(f"constraint subgradient norm {gn:.3g} exceeds the declared Mg={Mg:.3g}; "
                                  "the switching guarantee is void", stacklevel=3)
                if gn == 0.0:
                    raise ZeroSubgradientError("zero constraint subgradient on a nonproductive step")
                h = delta / gn
                if rec.due(it):
                    rec.record(it, x, grad_norm=gn, step_size=h, tag=nonproductive_tag)
                x = x - h * g
                n_nonproductive += 1
            if project_needed:
                x = fset.project(x)
            k += 1
            # 1e-9 relative slack absorbs float dust in theta^2 / delta^2.
            if sum_productive + n_nonproductive >= threshold * (1.0 - 1e-9):
                return best_x, x, k, "stop"
    except OracleBudgetError:
        return best_x, x, k, "budget"
    return best_x, x, k, "cap"


def _constraint_bound(oracle: OracleSuite, cfg: SwitchingConfig, entry: str) -> float:
    """The constraint's Lipschitz bound Mg: ``cfg.Mg``, else the constraint oracle's."""
    if oracle.constraint is None:
        raise ValueError(f"{entry} needs a functional constraint oracle")
    Mg = cfg.Mg if cfg.Mg is not None else oracle.constraint.lipschitz
    if Mg is None or Mg <= 0:
        raise ValueError("a positive Lipschitz bound Mg for the constraint is required")
    return Mg


def run_switching(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SwitchingConfig,
                  *, record_every: int = 1, record_x: bool = False,
                  max_oracle_calls: Optional[int] = None) -> Trace:
    """Adaptive switching subgradient scheme for min f s.t. g <= 0 on Q.

    g is ``oracle.constraint``.  Productive steps (taken when
    ``g(x) <= delta * Mg``) use ``h = delta / ||grad f||^2``; nonproductive
    ones use ``h = delta / ||grad g||``.  The run stops once
    ``2 theta0^2 / delta^2 <= sum_I ||grad f||^{-2} + #nonproductive``
    and reports as ``x_out`` the best productive iterate, which then
    satisfies ``f - f* <= delta`` and ``g <= delta * Mg``.  A cap or a
    budget hit first ends the run as ``budget_exhausted``, reporting the
    best productive iterate so far (after a budget cut, the last iterate
    when there is none).
    """
    if cfg.delta <= 0:
        raise ValueError("delta must be positive")
    Mg = _constraint_bound(oracle, cfg, "run_switching")

    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = fset.project(x0)
    best_x, x_end, iters, ended = _switching_stage(
        ctr, rec, fset, x, cfg.delta, cfg.theta0, Mg, cfg.max_iters, 0, "")
    if best_x is None and ended != "budget":
        raise NoProductiveStepsError("switching scheme stopped without any productive step")
    status = RunStatus.CONVERGED if ended == "stop" else RunStatus.BUDGET_EXHAUSTED
    return rec.close(iters, x_end, status, best_x)


def run_restarted_switching(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SwitchingConfig,
                            *, record_every: int = 1, record_x: bool = False,
                            max_oracle_calls: Optional[int] = None) -> Trace:
    """Restarted switching scheme under a conditional sharp minimum.

    Stage p runs the switching scheme with ``theta_p = theta0 / 2^{p/2}``
    and ``delta_p = alpha * theta_p / (sqrt(2) max(1, Mg))``, restarting
    from the previous stage's output; there are exactly
    ``ceil(2 log2(theta0 / eps))`` stages, after which the output is
    within ``eps`` of the minimizer set.  Each stage is capped at
    ``max_iters`` steps, and at the steps ``total_iters`` leaves.  A stage
    cut by its cap ends the run as ``budget_exhausted`` at its output, as
    does a stage that ``total_iters`` leaves no step.  A stage cut by the budget
    ends it the same way, with its terminal row at the stage's last
    iterate, and reports the stage's best productive iterate so far, or
    its starting point when it has none.
    """
    Mg = _constraint_bound(oracle, cfg, "run_restarted_switching")
    alpha = cfg.alpha_sharp if cfg.alpha_sharp is not None else oracle.alpha_sharp
    if alpha is None or alpha <= 0:
        raise ValueError("a positive sharp-minimum constant is required")
    if cfg.eps_target is None:
        raise ValueError("eps_target is required for the restarted scheme")

    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = fset.project(x0)

    if cfg.eps_target >= cfg.theta0:
        # Already within the target radius by assumption on theta0.
        return rec.close(0, x, RunStatus.CONVERGED)

    n_stages = math.ceil(2.0 * math.log2(cfg.theta0 / cfg.eps_target))
    mg_eff = max(1.0, Mg)
    it = 0
    for p in range(1, n_stages + 1):
        cap = cfg.max_iters if cfg.total_iters is None else min(cfg.max_iters, cfg.total_iters - it)
        if cap < 1:
            return rec.close(it, x, RunStatus.BUDGET_EXHAUSTED)
        theta_p = cfg.theta0 / math.sqrt(2.0 ** p)
        delta_p = alpha * theta_p / (math.sqrt(2.0) * mg_eff)
        best_x, x_end, iters, ended = _switching_stage(
            ctr, rec, fset, x, delta_p, theta_p, Mg, cap, it, f"p{p}:")
        if ended == "budget":
            return rec.close(it + iters, x_end, RunStatus.BUDGET_EXHAUSTED, x if best_x is None else best_x)
        if best_x is None:
            raise NoProductiveStepsError(f"restart stage {p} produced no productive step")
        x = best_x
        it += iters
        if ended == "cap":
            return rec.close(it, x, RunStatus.BUDGET_EXHAUSTED)
    return rec.close(it, x, RunStatus.CONVERGED)
