"""Momentum and accelerated methods, plus conjugate gradients on quadratics.

Variants of :func:`run_momentum`:

* ``heavy_ball``     -- two-term recurrence with constant coefficients
  ``4/(sqrt(L)+sqrt(mu))^2`` and ``((sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu)))^2``;
* ``chebyshev``      -- the Chebyshev semi-iterative recurrence whose
  delta_k coefficients converge to the heavy-ball limit;
* ``nesterov_sc``    -- look-ahead momentum with the constant factor
  ``(sqrt(L)-sqrt(mu))/(sqrt(L)+sqrt(mu))`` (strongly convex tuning);
* ``nesterov_cvx``   -- the convex tuning with momentum ``(k-1)/(k+2)``;
* ``taylor_drori``   -- the exact worst-case-optimal recurrence for
  smooth strongly convex problems (A_k, tau_k, delta_k bookkeeping).

Objective values may increase along these trajectories; that is expected
and not flagged.  Divergence is detected only by the distance monitor.

:func:`run_cg_quadratic` performs the two-parameter subspace
minimization ``x+ = x - a g + b (x - x_prev)`` with (a, b) solved in
closed form, valid for quadratic catalog problems; it reaches the exact
minimizer in at most d iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .core.linalg import norm
from .core.oracles import (
    CountingOracle,
    OracleBudgetError,
    OracleSuite,
    RunStatus,
    Trace,
    TraceRecorder,
    UnsupportedProblemError,
)


class Variant(NamedTuple):
    doc: str  # its ``list-methods`` line
    needs_mu: bool = False  # mu > 0; otherwise a missing mu reads 0, taylor_drori's convex tuning
    needs_mu_below_L: bool = False  # the recurrence divides by L - mu (taylor_drori by (1 - mu/L)^2)


VARIANTS = {
    "heavy_ball": Variant("two-term momentum with constant coefficients", needs_mu=True),
    "chebyshev": Variant("Chebyshev semi-iterative recurrence", needs_mu=True, needs_mu_below_L=True),
    "nesterov_sc": Variant("look-ahead momentum, strongly convex tuning", needs_mu=True),
    "nesterov_cvx": Variant("look-ahead momentum with factor (k-1)/(k+2)"),
    "taylor_drori": Variant("worst-case-optimal accelerated recurrence", needs_mu_below_L=True),
}


@dataclass(frozen=True)
class MomentumConfig:
    variant: str
    N: int
    L: Optional[float] = None
    mu: Optional[float] = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown momentum variant {self.variant!r}; choose from {tuple(VARIANTS)}")
        if self.N < 0:
            raise ValueError("budget N must be >= 0")
        if self.L is not None and self.mu is not None and self.mu > self.L:
            raise ValueError("mu must not exceed L")
        if not 0 <= self.tol < math.inf:  # also true for NaN
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


def _resolve(oracle: OracleSuite, cfg: MomentumConfig) -> tuple[float, float]:
    L = cfg.L if cfg.L is not None else oracle.L
    if L is None or not L > 0:  # also true for NaN
        raise ValueError("a positive L is required (config or oracle)")
    mu = cfg.mu if cfg.mu is not None else oracle.mu
    if VARIANTS[cfg.variant].needs_mu:
        if mu is None or not mu > 0:
            raise ValueError(f"variant {cfg.variant!r} requires mu > 0")
        if mu > L:
            raise ValueError("mu must not exceed L")
    mu = 0.0 if mu is None else mu
    if VARIANTS[cfg.variant].needs_mu_below_L and not mu < L:
        raise ValueError(f"{cfg.variant} requires mu < L strictly")
    return float(L), float(mu)


def chebyshev_delta_limit(L: float, mu: float) -> float:
    """Fixed point of the Chebyshev delta recurrence."""
    return (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))


def heavy_ball_coefficients(L: float, mu: float) -> tuple[float, float]:
    s = (math.sqrt(L) + math.sqrt(mu)) ** 2
    return 4.0 / s, (math.sqrt(L) - math.sqrt(mu)) ** 2 / s


def run_momentum(oracle: OracleSuite, x0, cfg: MomentumConfig, *,
                 record_every: int = 1, record_x: bool = False,
                 max_oracle_calls: Optional[int] = None,
                 divergence_radius: float = 1e6) -> Trace:
    """Run the configured momentum variant; see the module docstring."""
    L, mu = _resolve(oracle, cfg)
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x = np.array(x0, dtype=float)
    x_start = x.copy()
    x_prev = x.copy()
    # taylor_drori's auxiliary sequence, also its reported point
    z = x.copy() if cfg.variant == "taylor_drori" else None
    A_k = 0.0
    q = mu / L
    delta_cheb: Optional[float] = None
    k = 0
    try:
        while k < cfg.N:
            if cfg.variant in ("heavy_ball", "chebyshev"):
                g = ctr.grad(x)
            elif cfg.variant in ("nesterov_sc", "nesterov_cvx"):
                if cfg.variant == "nesterov_sc":
                    beta = (math.sqrt(L) - math.sqrt(mu)) / (math.sqrt(L) + math.sqrt(mu))
                else:
                    beta = (k + 1 - 1) / (k + 1 + 2)  # momentum (j-1)/(j+2), j = k+1 >= 1
                y = x + beta * (x - x_prev)
                g = ctr.grad(y)
            else:  # taylor_drori evaluates at y^k below
                A_next = ((1 + q) * A_k + 2.0 * (1 + math.sqrt((1 + A_k) * (1 + q * A_k)))) / (1 - q) ** 2
                tau = 1.0 - A_k / ((1 - q) * A_next)
                delta = 0.5 * ((1 - q) ** 2 * A_next - (1 + q) * A_k) / (1 + q + q * A_k)
                y = x + tau * (z - x)
                g = ctr.grad(y)
            gn = norm(g)
            if not math.isfinite(gn):
                return rec.close(k, x, RunStatus.DIVERGED, z)
            if gn <= cfg.tol:
                return rec.close(k, x, RunStatus.CONVERGED, z, grad_norm=gn)

            if cfg.variant == "heavy_ball":
                step, beta_hb = heavy_ball_coefficients(L, mu)
                x_new = x - step * g + beta_hb * (x - x_prev)
            elif cfg.variant == "chebyshev":
                if k == 0:
                    step, beta_ch = 2.0 / (L + mu), 0.0
                    delta_cheb = 1.0 / (2.0 * (L + mu) / (L - mu) + 1.0)
                else:
                    step = 4.0 * delta_cheb / (L - mu)
                    beta_ch = 2.0 * delta_cheb * (L + mu) / (L - mu) - 1.0
                    delta_cheb = 1.0 / (2.0 * (L + mu) / (L - mu) - delta_cheb)
                x_new = x - step * g + beta_ch * (x - x_prev)
            elif cfg.variant in ("nesterov_sc", "nesterov_cvx"):
                step = 1.0 / L
                x_new = y - step * g
            else:
                step = 1.0 / L
                x_new = y - step * g
                z = (1.0 - q * delta) * z + q * delta * y - (delta / L) * g
                A_k = A_next

            rec.record(k, x, grad_norm=gn, step_size=step)
            x_prev, x = x, x_new
            k += 1
            if not norm(x - x_start) <= divergence_radius:  # NaN and inf entries fail it too (radius finite)
                return rec.close(k, x, RunStatus.DIVERGED, z)
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED, z)


def chebyshev_delta_sequence(L: float, mu: float, n: int) -> np.ndarray:
    """delta_1 .. delta_n of the Chebyshev recurrence (diagnostic helper)."""
    if not L > mu > 0:
        raise ValueError("requires L > mu > 0")
    ratio = 2.0 * (L + mu) / (L - mu)
    out = np.empty(n)
    d = 1.0 / (ratio + 1.0)
    for i in range(n):
        out[i] = d
        d = 1.0 / (ratio - d)
    return out


def run_cg_quadratic(oracle: OracleSuite, x0, N: int, *, tol: float = 0.0,
                     record_every: int = 1, record_x: bool = False,
                     max_oracle_calls: Optional[int] = None) -> Trace:
    """Conjugate gradients via two-parameter subspace minimization.

    Each step minimizes the quadratic exactly over
    ``x - a g + b (x - x_prev)``; the 2x2 normal system is closed-form.
    A singular system (first step, or g and the momentum direction
    parallel) falls back to an exact-line-search gradient step.
    """
    if oracle.quadratic is None:
        raise UnsupportedProblemError("run_cg_quadratic needs a quadratic oracle (A-products and b)")
    if N < 0:
        raise ValueError("budget N must be >= 0")
    if not 0 <= tol < math.inf:  # also true for NaN
        raise ValueError(f"tol must be >= 0 and finite, got {tol}")
    quad = oracle.quadratic
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)

    def matvec(v):
        ctr.count_extra()
        return quad.matvec(v)

    x = np.array(x0, dtype=float)
    x_prev = x.copy()
    k = 0
    try:
        while k < N:
            g = ctr.grad(x)
            gn = norm(g)
            if gn <= tol:
                return rec.close(k, x, RunStatus.CONVERGED, grad_norm=gn)
            d = x - x_prev
            Ag = matvec(g)
            gAg = float(g.dot(Ag))
            gg = float(g.dot(g))
            use_fallback = float(d.dot(d)) == 0.0
            if not use_fallback:
                Ad = matvec(d)
                gAd = float(g.dot(Ad))
                dAd = float(d.dot(Ad))
                det = gAg * dAd - gAd * gAd
                if abs(det) <= 1e-14 * max(abs(gAg * dAd), 1e-300):
                    use_fallback = True
                else:
                    gd = float(g.dot(d))
                    a = (gg * dAd - gd * gAd) / det
                    b = (-gd * gAg + gg * gAd) / det
            if use_fallback:
                if gAg <= 0:
                    raise UnsupportedProblemError("quadratic form is not positive along the gradient")
                a, b = gg / gAg, 0.0
            rec.record(k, x, grad_norm=gn, step_size=a)
            x_prev, x = x, x - a * g + b * d
            k += 1
    except OracleBudgetError:
        pass
    return rec.close(k, x, RunStatus.BUDGET_EXHAUSTED)
