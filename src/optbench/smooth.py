"""Gradient descent for L-smooth objectives under gradient domination.

Four regimes over one engine:

* exact gradients, step ``1/L`` (:func:`run_gd`);
* absolutely inexact gradients ``||g~ - g|| <= delta`` with an early
  stopping rule ``||g~|| <= c * delta`` (:func:`run_gd_abs`) -- without
  it the iterates can run away, which every run guards with a distance
  monitor;
* relatively inexact gradients ``||g~ - g|| <= alpha ||g||`` with the
  fixed step ``(1/L) (1-alpha)/(1+alpha)^2`` (:func:`run_gd_rel`);
* the adaptive variant for ``alpha < 1/2`` with step
  ``(1/L_{k+1}) (1-2 alpha)/(1-alpha)``, doubling ``L_{k+1}`` until the
  iteration's exit inequality holds (:func:`run_gd_rel_adaptive`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
)

_L_MIN = 1e-12


@dataclass(frozen=True)
class Exact:
    pass


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


@dataclass(frozen=True)
class RelNoise:
    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("relative error level alpha must lie in [0, 1)")


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
    L: Optional[float] = None  # resolved from the oracle when omitted
    mode: Exact | AbsNoise | RelNoise | RelNoiseAdaptive = field(default_factory=Exact)
    tol: float = 1e-10

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("budget N must be >= 0")
        if self.L is not None and not self.L > 0:  # also true for NaN
            raise ValueError("L must be positive")
        if not 0 <= self.tol < math.inf:  # also true for NaN
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


def _resolve_L(oracle: OracleSuite, cfg: SmoothRunConfig) -> float:
    L = cfg.L if cfg.L is not None else oracle.L
    if L is None or L <= 0:
        raise ValueError("a positive smoothness constant L is required (config or oracle)")
    return L


def _fixed_step_gd(oracle: OracleSuite, x0, cfg: SmoothRunConfig, h: float,
                   stop_threshold: float, stop_status: RunStatus,
                   record_every: int, record_x: bool,
                   max_oracle_calls: Optional[int], divergence_radius: float) -> Trace:
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = np.array(x0, dtype=float)
    x_start = x.copy()
    k = 0
    try:
        while k < cfg.N:
            g = ctr.grad(x)
            gn = norm(g)
            if not math.isfinite(gn):
                return rec.close(k, x, RunStatus.DIVERGED)
            if gn <= stop_threshold:
                return rec.close(k, x, stop_status, grad_norm=gn)
            rec.record(k, x, grad_norm=gn, step_size=h)
            x = x - h * g
            k += 1
            if not np.all(np.isfinite(x)) or norm(x - x_start) > divergence_radius:
                return rec.close(k, x, RunStatus.DIVERGED)
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED)


def run_gd(oracle: OracleSuite, x0, cfg: SmoothRunConfig, *,
           record_every: int = 1, record_x: bool = False,
           max_oracle_calls: Optional[int] = None,
           divergence_radius: float = 1e6) -> Trace:
    """Plain gradient descent x <- x - (1/L) grad f(x); stops at ||grad|| <= tol."""
    if not isinstance(cfg.mode, Exact):
        raise ValueError("run_gd expects mode Exact")
    L = _resolve_L(oracle, cfg)
    return _fixed_step_gd(oracle, x0, cfg, 1.0 / L, cfg.tol, RunStatus.CONVERGED,
                          record_every, record_x, max_oracle_calls, divergence_radius)


def run_gd_abs(oracle: OracleSuite, x0, cfg: SmoothRunConfig, *,
               record_every: int = 1, record_x: bool = False,
               max_oracle_calls: Optional[int] = None,
               divergence_radius: float = 1e6) -> Trace:
    """Gradient descent on an absolutely inexact gradient with early stopping.

    The oracle's ``grad`` is the perturbed one; the run stops as
    EarlyStopped once its norm falls below ``stop_multiplier * delta``
    (with multiplier 0 the rule is off and only ``tol`` applies).
    """
    if not isinstance(cfg.mode, AbsNoise):
        raise ValueError("run_gd_abs expects mode AbsNoise")
    L = _resolve_L(oracle, cfg)
    threshold = max(cfg.mode.stop_multiplier * cfg.mode.delta, cfg.tol)
    status = RunStatus.EARLY_STOPPED if threshold > cfg.tol else RunStatus.CONVERGED
    return _fixed_step_gd(oracle, x0, cfg, 1.0 / L, threshold, status,
                          record_every, record_x, max_oracle_calls, divergence_radius)


def run_gd_rel(oracle: OracleSuite, x0, cfg: SmoothRunConfig, *,
               record_every: int = 1, record_x: bool = False,
               max_oracle_calls: Optional[int] = None,
               divergence_radius: float = 1e6) -> Trace:
    """Fixed-step descent under relative gradient error: h = (1/L)(1-a)/(1+a)^2."""
    if not isinstance(cfg.mode, RelNoise):
        raise ValueError("run_gd_rel expects mode RelNoise")
    L = _resolve_L(oracle, cfg)
    a = cfg.mode.alpha
    h = (1.0 - a) / ((1.0 + a) ** 2 * L)
    return _fixed_step_gd(oracle, x0, cfg, h, cfg.tol, RunStatus.CONVERGED,
                          record_every, record_x, max_oracle_calls, divergence_radius)


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

    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = np.array(x0, dtype=float)
    x_start = x.copy()
    L_prev: Optional[float] = None
    k = 0
    try:
        fx = ctr.value(x)
        while k < cfg.N:
            g = ctr.grad(x)
            gn2 = float(np.dot(g, g))
            gn = math.sqrt(gn2)
            if not math.isfinite(gn):
                return rec.close(k, x, RunStatus.DIVERGED)
            if gn <= cfg.tol:
                return rec.close(k, x, RunStatus.CONVERGED)
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
            rec.record(k, x, fx, grad_norm=gn, step_size=h)
            x, fx = x_new, f_new
            L_prev = L_try
            k += 1
            if norm(x - x_start) > divergence_radius:
                return rec.close(k, x, RunStatus.DIVERGED)
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED)
