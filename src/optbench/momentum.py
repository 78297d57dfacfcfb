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

Each :data:`VARIANTS` entry carries its variant's step, which
:func:`run_momentum` runs through :func:`~optbench.core.oracles.run_steps`.
Objective values may increase along these trajectories; that is expected
and not flagged.  A run ends as diverged when a gradient norm is not
finite or the iterate leaves the distance monitor's radius.

:func:`run_cg_quadratic` performs the two-parameter subspace
minimization ``x+ = x - a g + b (x - x_prev)`` with (a, b) solved in
closed form, valid for quadratic catalog problems; it reaches the exact
minimizer in at most d iterations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core.linalg import norm
from .core.oracles import OracleSuite, RunStatus, Stop, Trace, UnsupportedProblemError, run_steps


def _chebyshev_coefficients(L: float, mu: float):
    """(step, momentum) of iterations 0, 1, ... of the Chebyshev recurrence."""
    yield 2.0 / (L + mu), 0.0
    delta = 1.0 / (2.0 * (L + mu) / (L - mu) + 1.0)
    while True:
        yield 4.0 * delta / (L - mu), 2.0 * delta * (L + mu) / (L - mu) - 1.0
        delta = 1.0 / (2.0 * (L + mu) / (L - mu) - delta)


def _gradient(ctr, y: np.ndarray, tol: float) -> np.ndarray:
    """The gradient at ``y``; its norm stops the run as diverged when not finite, as converged when ``<= tol``."""
    g = ctr.grad(y)
    gn = norm(g)
    if not math.isfinite(gn):
        raise Stop(RunStatus.DIVERGED)
    if gn <= tol:
        raise Stop(RunStatus.CONVERGED, grad_norm=gn)
    return g


def _two_term(coefficients, L, mu, tol, x_prev):
    """``x+ = x - a_k g(x) + b_k (x - x_prev)``, with ``coefficients(L, mu)`` yielding (a_k, b_k)."""
    coef = coefficients(L, mu)

    def step(ctr, k, x):
        nonlocal x_prev
        g = _gradient(ctr, x, tol)
        a, b = next(coef)
        x_new = x - a * g + b * (x - x_prev)
        x_prev = x
        return x_new, None, g, a
    return step, None


def _look_ahead(momentum, L, mu, tol, x_prev):
    """``y = x + beta_k (x - x_prev)`` and ``x+ = y - g(y)/L``, with ``momentum(L, mu)`` yielding beta_k."""
    beta = momentum(L, mu)

    def step(ctr, k, x):
        nonlocal x_prev
        y = x + next(beta) * (x - x_prev)
        g = _gradient(ctr, y, tol)
        x_prev = x
        return y - (1.0 / L) * g, None, g, 1.0 / L
    return step, None


def _taylor_drori(L, mu, tol, z):
    """The A_k, tau_k, delta_k recurrence; its auxiliary sequence z is the reported point."""
    q, A_k = mu / L, 0.0

    def step(ctr, k, x):
        nonlocal A_k, z
        A_next = ((1 + q) * A_k + 2.0 * (1 + math.sqrt((1 + A_k) * (1 + q * A_k)))) / (1 - q) ** 2
        tau = 1.0 - A_k / ((1 - q) * A_next)
        delta = 0.5 * ((1 - q) ** 2 * A_next - (1 + q) * A_k) / (1 + q + q * A_k)
        y = x + tau * (z - x)
        g = _gradient(ctr, y, tol)
        z = (1.0 - q * delta) * z + q * delta * y - (delta / L) * g
        A_k = A_next
        return y - (1.0 / L) * g, None, g, 1.0 / L
    return step, lambda: z


class Variant(NamedTuple):
    doc: str  # its ``list-methods`` line
    step: Callable  # (L, mu, tol, x0) -> (its run_steps step, the function giving its reported point, or None)
    needs_mu: bool = False  # mu > 0; otherwise a missing mu reads 0, taylor_drori's convex tuning
    needs_mu_below_L: bool = False  # the recurrence divides by L - mu (taylor_drori by (1 - mu/L)^2)


VARIANTS = {
    "heavy_ball": Variant("two-term momentum with constant coefficients",
                          partial(_two_term, lambda L, mu: itertools.repeat(heavy_ball_coefficients(L, mu))),
                          needs_mu=True),
    "chebyshev": Variant("Chebyshev semi-iterative recurrence", partial(_two_term, _chebyshev_coefficients),
                         needs_mu=True, needs_mu_below_L=True),
    "nesterov_sc": Variant("look-ahead momentum, strongly convex tuning",
                           partial(_look_ahead, lambda L, mu: itertools.repeat(chebyshev_delta_limit(L, mu))),
                           needs_mu=True),
    # momentum (j-1)/(j+2) at j = k+1
    "nesterov_cvx": Variant("look-ahead momentum with factor (k-1)/(k+2)",
                            partial(_look_ahead, lambda L, mu: (k / (k + 3) for k in itertools.count()))),
    "taylor_drori": Variant("worst-case-optimal accelerated recurrence", _taylor_drori, needs_mu_below_L=True),
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
    x = np.array(x0, dtype=float)
    step, reported = VARIANTS[cfg.variant].step(L, mu, cfg.tol, x)
    return run_steps(oracle, x, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, divergence_radius=divergence_radius, reported=reported)


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
    x_prev = np.array(x0, dtype=float)

    def step(ctr, k, x):
        nonlocal x_prev
        g = ctr.grad(x)
        gn = norm(g)
        if gn <= tol:
            raise Stop(RunStatus.CONVERGED, grad_norm=gn)
        d = x - x_prev
        ctr.count_extra()  # each A-product is one oracle call
        Ag = quad.matvec(g)
        gAg = float(g.dot(Ag))
        gg = float(g.dot(g))
        use_fallback = float(d.dot(d)) == 0.0
        if not use_fallback:
            ctr.count_extra()
            Ad = quad.matvec(d)
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
        x_prev = x
        return x - a * g + b * d, None, g, a

    return run_steps(oracle, x_prev, N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls)
