"""Gradient descent for L-smooth objectives under gradient domination.

Four regimes; the config's ``mode`` picks one.  The three fixed-step
modes share one loop, :func:`run_gd` (also bound as ``run_gd_abs`` and
``run_gd_rel``); each mode's ``regime(L, tol)`` gives its step, its stop
threshold on ``||g||`` and the status a stop reports:

* :class:`Exact` gradients, step ``1/L``;
* :class:`AbsNoise`, absolutely inexact gradients ``||g~ - g|| <= delta``,
  step ``1/L`` with an early stopping rule ``||g~|| <= c * delta`` --
  without it the iterates can run away, which every run guards with a
  distance monitor;
* :class:`RelNoise`, relatively inexact gradients
  ``||g~ - g|| <= alpha ||g||`` with the fixed step
  ``(1/L) (1-alpha)/(1+alpha)^2``;
* :class:`RelNoiseAdaptive`, the adaptive variant for ``alpha < 1/2``
  with step ``(1/L_{k+1}) (1-2 alpha)/(1-alpha)``, doubling ``L_{k+1}``
  until the iteration's exit inequality holds; it runs through its own
  loop, :func:`run_gd_rel_adaptive`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .core.oracles import OracleSuite, RunStatus, Stop, Trace, grad_or_stop, run_steps

_L_MIN = 1e-12


@dataclass(frozen=True)
class Exact:
    def regime(self, L: float, tol: float) -> tuple[float, float, RunStatus]:
        return 1.0 / L, tol, RunStatus.CONVERGED


@dataclass(frozen=True)
class AbsNoise:
    """Known absolute gradient error delta; stop once ||g~|| <= stop_multiplier * delta."""

    delta: float
    stop_multiplier: float = 2.0  # 0 disables early stopping

    def __post_init__(self):
        if not self.delta >= 0:  # also true for NaN
            raise ValueError("delta must be >= 0")
        if not self.stop_multiplier >= 0:
            raise ValueError("stop multiplier must be >= 0")

    def regime(self, L: float, tol: float) -> tuple[float, float, RunStatus]:
        threshold = max(self.stop_multiplier * self.delta, tol)  # early stop above tol
        return 1.0 / L, threshold, RunStatus.EARLY_STOPPED if threshold > tol else RunStatus.CONVERGED


@dataclass(frozen=True)
class RelNoise:
    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("relative error level alpha must lie in [0, 1)")

    def regime(self, L: float, tol: float) -> tuple[float, float, RunStatus]:
        return (1.0 - self.alpha) / ((1.0 + self.alpha) ** 2 * L), tol, RunStatus.CONVERGED


@dataclass(frozen=True)
class RelNoiseAdaptive:
    alpha: float
    L0: float

    def __post_init__(self):
        if not 0 <= self.alpha < 0.5:
            raise ValueError("the adaptive step (1-2a)/(1-a) needs alpha < 0.5")
        if not self.L0 > 0:
            raise ValueError("L0 must be positive")


@dataclass(frozen=True)
class SmoothRunConfig:
    N: int
    L: Optional[float] = None  # the problem's when omitted
    mode: Exact | AbsNoise | RelNoise | RelNoiseAdaptive = field(default_factory=Exact)
    tol: float = 1e-10

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("budget N must be >= 0")
        if self.L is not None and not self.L > 0:  # also true for NaN
            raise ValueError("L must be positive")
        if not 0 <= self.tol < math.inf:  # also true for NaN
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


def run_gd(oracle: OracleSuite, x0, cfg: SmoothRunConfig, *,
           record_every: int = 1, record_x: bool = False,
           max_oracle_calls: Optional[int] = None,
           divergence_radius: float = 1e6) -> Trace:
    """Fixed-step descent ``x <- x - h g`` on the oracle's (perturbed) gradient.

    ``cfg.mode.regime`` gives the step ``h`` and the stop test ``||g|| <= threshold``.
    """
    if isinstance(cfg.mode, RelNoiseAdaptive):
        raise ValueError("mode RelNoiseAdaptive runs through run_gd_rel_adaptive")
    L = oracle.constant("L", cfg.L)
    if L <= 0:
        raise ValueError("a positive smoothness constant L is required (config or oracle)")
    h, stop_threshold, stop_status = cfg.mode.regime(L, cfg.tol)

    def step(ctr, k, x):
        g = grad_or_stop(ctr, x, stop_threshold, stop_status)
        return x - h * g, None, g, h, None

    return run_steps(oracle, x0, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, divergence_radius=divergence_radius)


run_gd_abs = run_gd_rel = run_gd


class ExitCriterionUnreachable(RuntimeError):
    """60 doublings did not satisfy the adaptive exit inequality."""


def run_gd_rel_adaptive(oracle: OracleSuite, x0, cfg: SmoothRunConfig, *,
                        record_every: int = 1, record_x: bool = False,
                        max_oracle_calls: Optional[int] = None,
                        divergence_radius: float = 1e6) -> Trace:
    """Adaptive-step descent under relative gradient error (alpha < 1/2).

    Iteration k proposes ``x+ = x - h g~`` with
    ``h = (1/L_{k+1}) (1-2a)/(1-a)`` and accepts once

        f(x+) <= f(x) + <g~, x+ - x> + L_{k+1}/2 ||x+ - x||^2
                 + a/(1-a) ||g~|| ||x+ - x||,

    doubling ``L_{k+1}`` otherwise.  The first iteration starts the
    search at ``L0``; later ones restart at half the accepted constant,
    so the trial value never exceeds twice the true L once found.
    """
    if not isinstance(cfg.mode, RelNoiseAdaptive):
        raise ValueError("run_gd_rel_adaptive expects mode RelNoiseAdaptive")
    a = cfg.mode.alpha
    step_factor = (1.0 - 2.0 * a) / (1.0 - a)
    slack_coef = a / (1.0 - a)

    fx: Optional[float] = None  # f at the current iterate, computed on the first step: a run of no steps never needs it
    L_prev: Optional[float] = None

    def step(ctr, k, x):
        nonlocal fx, L_prev
        if fx is None:
            fx = ctr.value(x)
        g = ctr.grad(x)
        gn2 = float(g.dot(g))
        gn = math.sqrt(gn2)
        if not math.isfinite(gn):
            raise Stop(RunStatus.DIVERGED, f_value=fx)
        if gn <= cfg.tol:
            raise Stop(RunStatus.CONVERGED, f_value=fx)
        L_try = cfg.mode.L0 if L_prev is None else max(L_prev / 2.0, _L_MIN)
        doublings = 0
        while True:
            h = step_factor / L_try
            x_new = x - h * g
            f_new = ctr.value(x_new)
            move2 = h * h * gn2
            rhs = (fx - h * gn2 + 0.5 * L_try * move2 + slack_coef * gn * (h * gn))
            # Step-scaled slack keeps exact-arithmetic equality cases
            # accepted while genuine violations (also step-scaled) reject.
            if f_new <= rhs + 1e-9 * h * gn2:
                break
            L_try *= 2.0
            doublings += 1
            if doublings > 60:
                raise ExitCriterionUnreachable(
                    "exit criterion unreachable: alpha understates the oracle's error")
        f_x, fx, L_prev = fx, f_new, L_try
        return x_new, f_x, g, h, None

    return run_steps(oracle, x0, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, divergence_radius=divergence_radius)
