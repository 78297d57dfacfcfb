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

Each runs as a step function under :func:`~optbench.core.oracles.run_steps`;
the two switching schemes share one, a stage machine over a list of
stages.  The steps return unprojected points: ``run_steps`` takes the
feasible set and projects the start and each step's point.  Each returns a
:class:`Trace`; a run the oracle budget cuts short ends as
``budget_exhausted``, and no
:class:`~optbench.core.oracles.OracleBudgetError` escapes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core.linalg import norm
from .core.oracles import CountingOracle, OracleSuite, RunStatus, Stop, Trace, ZeroSubgradientError, run_steps
from .core.sets import FeasibleSet


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
    fstar = oracle.constant("fstar", cfg.step_rule.fstar)

    def step(ctr, k, x):
        fx = ctr.value(x)
        gap = fx - fstar
        if gap <= cfg.tol:
            raise Stop(RunStatus.CONVERGED, f_value=fx)
        g = ctr.subgrad(x)
        gn2 = float(g.dot(g))
        if gn2 == 0.0:
            raise ZeroSubgradientError(
                f"zero subgradient off-optimum at iter {k} (gap {gap:.3e})")
        h = gap / gn2
        return x - h * g, fx, g, h, None

    return run_steps(oracle, x0, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, fset=fset)


def run_const_subgrad(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SubgradConfig,
                      *, record_every: int = 1, record_x: bool = False,
                      max_oracle_calls: Optional[int] = None) -> Trace:
    """Constant-step subgradient descent over iterates x^0 .. x^{N-1}.

    With ``averaging`` on, the reported point is the uniform average of
    those N iterates, which ``run_steps`` keeps (the budget-step tuning
    then meets :func:`optbench.claims.budget_step_gap`).
    """
    if isinstance(cfg.step_rule, FixedStep):
        h = cfg.step_rule.h
    elif isinstance(cfg.step_rule, BudgetStep):
        h = cfg.step_rule.R / (cfg.step_rule.M * math.sqrt(cfg.N))
    else:
        raise ValueError("run_const_subgrad requires FixedStep or BudgetStep")

    def step(ctr, k, x):
        if k == cfg.N - 1:
            raise Stop(RunStatus.BUDGET_EXHAUSTED)  # x^{N-1} takes no step
        g = ctr.subgrad(x)
        return x - h * g, None, g, h, None

    return run_steps(oracle, x0, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, average_from=0 if cfg.averaging else None, fset=fset)


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
        if self.Mg is not None and not self.Mg > 0:
            raise ValueError("Mg must be positive")
        if self.max_iters < 1 or (self.total_iters is not None and self.total_iters < 1):
            raise ValueError("iteration cap must be >= 1")
        if self.eps_target is not None and not self.eps_target > 0:
            raise ValueError("eps_target must be positive")
        if self.alpha_sharp is not None and not self.alpha_sharp > 0:
            raise ValueError("alpha_sharp must be positive")


class _Switching:
    """The switching scheme over a list of stages, as a :func:`run_steps` step.

    Each stage ``(delta, theta, cap, tag_prefix)`` runs the scheme for at
    most ``cap`` steps, and not past ``total_iters`` when that is given,
    tagging its rows with its prefix.  A stage ends by its stop sum, by a
    zero productive subgradient or by its cap: the step that ends it sets
    ``end`` to the next iteration, whose step call acts on it before any
    oracle call.  With ``restart`` each stage hands its best productive
    iterate on as ``x_next``; without it the run ends at its last iterate
    and reports the best productive one.  ``run_steps`` projects every
    ``x_next``, also an iterate handed on that is already projected: on a
    ``Ball`` or a ``Simplex`` that can move its last bits.
    """

    def __init__(self, Mg: float, stages: list, restart: bool, total_iters: Optional[int] = None):
        self.Mg, self.stages, self.restart, self.total_iters = Mg, stages, restart, total_iters
        self.N = sum(cap for _, _, cap, _ in stages) + 1  # stages end by their caps at the latest, the run after
        self.p = 0  # stages started
        self.end, self.stopped = 0, True  # the run starts as if a stage had stopped before iteration 0
        self.best_x = self.start = None

    def reported(self) -> Optional[np.ndarray]:
        """A budget cut's reported point: the stage's best productive iterate, else its start or None."""
        return self.best_x if self.best_x is not None else self.start

    def _next_stage(self, k: int, x: np.ndarray):
        """Act on the stage that ended at iteration ``k``: end the run, or start the next stage at ``x``."""
        if self.p and self.best_x is None:
            raise NoProductiveStepsError(f"restart stage {self.p} produced no productive step" if self.restart
                                         else "switching scheme stopped without any productive step")
        if self.restart:
            self.best_x = self.start = None  # x is the stage's output: a run that ends here reports it
        if not self.stopped:
            raise Stop(RunStatus.BUDGET_EXHAUSTED)  # the stage's cap
        if self.p == len(self.stages):
            raise Stop(RunStatus.CONVERGED)
        delta, theta, cap, prefix = self.stages[self.p]
        self.p += 1
        self.end = k + cap if self.total_iters is None else min(k + cap, self.total_iters)
        if self.end <= k:
            raise Stop(RunStatus.BUDGET_EXHAUSTED)  # total_iters leaves the stage no step
        # 1e-9 relative slack absorbs float dust in theta^2 / delta^2.
        self.threshold = 2.0 * theta * theta / (delta * delta) * (1.0 - 1e-9)
        self.delta, self.productive, self.nonproductive = delta, prefix + "productive", prefix + "nonproductive"
        self.sum_productive, self.n_nonproductive, self.stopped = 0.0, 0, False
        self.best_f, self.start = math.inf, x if self.restart else None

    def _stage_over(self, k: int, x: np.ndarray) -> np.ndarray:
        """End the stage after iteration ``k``; returns the iterate it hands on."""
        self.end = k + 1
        return self.best_x if self.restart and self.best_x is not None else x

    def step(self, ctr: CountingOracle, k: int, x: np.ndarray):
        if k == self.end:
            self._next_stage(k, x)
        delta, Mg = self.delta, self.Mg
        if ctr.constraint_value(x) <= delta * Mg:
            fx = ctr.value(x)
            g = ctr.subgrad(x)
            gn2 = float(g.dot(g))
            if fx < self.best_f:
                self.best_f, self.best_x = fx, x
            if gn2 == 0.0:
                # Minimal-norm selection hit an exact minimizer of f on a
                # productive step: the stop sum is +inf, the stage stops here.
                self.stopped = True
                return self._stage_over(k, x), fx, g, 0.0, self.productive
            h = delta / gn2
            self.sum_productive += 1.0 / gn2
            f, tag = fx, self.productive
        else:
            g = ctr.constraint_subgrad(x)
            gn = norm(g)
            if gn > Mg * (1 + 1e-9):
                warnings.warn(f"constraint subgradient norm {gn:.3g} exceeds the declared Mg={Mg:.3g}; "
                              "the switching guarantee is void", stacklevel=4)
            if gn == 0.0:
                raise ZeroSubgradientError("zero constraint subgradient on a nonproductive step")
            h = delta / gn
            self.n_nonproductive += 1
            f, tag = None, self.nonproductive
        x_next = x - h * g
        if self.sum_productive + self.n_nonproductive >= self.threshold:
            self.stopped = True
        if self.stopped or k + 1 == self.end:
            x_next = self._stage_over(k, x_next)
        return x_next, f, g, h, tag


def _constraint_bound(oracle: OracleSuite, cfg: SwitchingConfig, entry: str) -> float:
    """The constraint's Lipschitz bound Mg: ``cfg.Mg``, else the constraint oracle's."""
    if oracle.constraint is None:
        raise ValueError(f"{entry} needs a functional constraint oracle")
    Mg = cfg.Mg if cfg.Mg is not None else oracle.constraint.lipschitz
    if Mg is None or not Mg > 0:
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
    if not cfg.delta > 0:
        raise ValueError("delta must be positive")
    Mg = _constraint_bound(oracle, cfg, "run_switching")
    scheme = _Switching(Mg, [(cfg.delta, cfg.theta0, cfg.max_iters, "")], restart=False)
    return run_steps(oracle, x0, scheme.N, scheme.step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, reported=scheme.reported, fset=fset)


def run_restarted_switching(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SwitchingConfig,
                            *, record_every: int = 1, record_x: bool = False,
                            max_oracle_calls: Optional[int] = None) -> Trace:
    """Restarted switching scheme under a conditional sharp minimum.

    Stage p runs the switching scheme with ``theta_p = theta0 / 2^{p/2}``
    and ``delta_p = alpha * theta_p / (sqrt(2) max(1, Mg))``, restarting
    from the previous stage's output; there are exactly
    ``ceil(2 log2(theta0 / eps))`` stages, after which the output is
    within ``eps`` of the minimizer set (none when ``eps >= theta0``:
    the start is then within ``eps`` by the assumption on theta0).  Each
    stage is capped at ``max_iters`` steps, and at the steps
    ``total_iters`` leaves.  A stage cut by its cap ends the run as
    ``budget_exhausted`` at its output, as does a stage that
    ``total_iters`` leaves no step.  A stage cut by the budget ends it the
    same way, with its terminal row at the stage's last iterate, and
    reports the stage's best productive iterate so far, or its starting
    point when it has none.
    """
    Mg = _constraint_bound(oracle, cfg, "run_restarted_switching")
    alpha = oracle.constant("alpha_sharp", cfg.alpha_sharp)
    if alpha <= 0:
        raise ValueError("a positive sharp-minimum constant is required")
    if cfg.eps_target is None:
        raise ValueError("eps_target is required for the restarted scheme")

    stages = []
    for p in range(1, math.ceil(2.0 * math.log2(cfg.theta0 / cfg.eps_target)) + 1):
        theta_p = cfg.theta0 / math.sqrt(2.0 ** p)
        stages.append((alpha * theta_p / (math.sqrt(2.0) * max(1.0, Mg)), theta_p, cfg.max_iters, f"p{p}:"))
    scheme = _Switching(Mg, stages, restart=True, total_iters=cfg.total_iters)
    return run_steps(oracle, x0, scheme.N, scheme.step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, reported=scheme.reported, fset=fset)
