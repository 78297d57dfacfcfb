"""Projected stochastic gradient descent and Monte-Carlo statistics.

Step schedules (``rule.schedule(N)`` returns the step ``gamma(k, g)`` of
iteration k with applied gradient g):

* ``Const(gamma)``          -- fixed step;
* ``BudgetConst(M, R)``     -- gamma = R / (M sqrt(N)) for a known run length;
* ``InvK(mu)``              -- gamma_k = 1 / (mu (k+1)), the strongly convex rule;
* ``AdaGradNorm(R)``        -- gamma_k = R / sqrt(sum_{j<=k} ||g_j||^2);
* ``Decay(gamma0, eta)``    -- gamma_k = gamma0 (k+1)^{-eta} with eta in (1/2, 1),
  the slow decay used together with iterate averaging, whose averaged
  output attains the limit covariance H^{-1} Sigma H^{-1} of the CLT.

Averaging modes return the uniform mean of x^0..x^{N-1} or the mean of
the tail fraction.  Mini-batching averages ``batch`` independent draws;
``clip_lambda`` rescales the batched gradient to norm at most lambda
before the step (heavy-tail robustness).

:func:`run_sgd` and the zeroth-order :func:`optbench.zeroorder.run_zo_sgd`
are front ends over one projected-SGD loop; each supplies its own
gradient source.

Noise stream.  :func:`run_sgd` takes one noise row per ``stoch_grad``
call, in call order, from the run's ``Rng``.  When the suite's
``stoch_grad`` is the :class:`~optbench.core.noise.AdditiveNoise` that
``wrap_noise`` builds, the rows are drawn in chunks, ``grad(x)`` is
still evaluated once per draw, and each draw is still charged to the
budget before its row is used.  numpy fills a chunk in call order, so
chunking changes no value, and when the run ends by any exit the
``Rng`` is rewound to where one draw per call would have left it.  That
holds as long as ``grad`` draws nothing from the run's ``Rng``, so a noise
wrapper stacked under it needs a stream of its own.  A hand-built
``stoch_grad`` is called once per draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, get_args

import numpy as np

from .core.linalg import norm
from .core.noise import AdditiveNoise
from .core.oracles import CountingOracle, OracleSuite, Trace, run_steps
from .core.rng import Rng
from .core.sets import FeasibleSet, FullSpace


@dataclass(frozen=True)
class Const:
    kind: ClassVar[str] = "const"
    gamma: float

    def __post_init__(self):
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")

    def schedule(self, N: int) -> Callable[[int, np.ndarray], float]:
        gamma = self.gamma
        return lambda k, g: gamma


@dataclass(frozen=True)
class BudgetConst:
    kind: ClassVar[str] = "budget_const"
    M: float  # before R: the registry reads fields in order, and a missing M is reported first
    R: float

    def __post_init__(self):
        if not (self.R > 0 and self.M > 0):
            raise ValueError("R and M must be positive")

    def schedule(self, N: int) -> Callable[[int, np.ndarray], float]:
        gamma = self.R / (self.M * math.sqrt(max(N, 1)))
        return lambda k, g: gamma


@dataclass(frozen=True)
class InvK:
    kind: ClassVar[str] = "inv_k"
    mu: float

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")

    def schedule(self, N: int) -> Callable[[int, np.ndarray], float]:
        mu = self.mu
        return lambda k, g: 1.0 / (mu * (k + 1))


@dataclass(frozen=True)
class AdaGradNorm:
    kind: ClassVar[str] = "adagrad_norm"
    R: float

    def __post_init__(self):
        if not self.R > 0:
            raise ValueError("R must be positive")

    def schedule(self, N: int) -> Callable[[int, np.ndarray], float]:
        R, sq_accum = self.R, 0.0  # running sum of squared gradient norms

        def gamma(k, g):
            nonlocal sq_accum
            sq_accum += float(g.dot(g))
            return R / math.sqrt(sq_accum) if sq_accum > 0 else 0.0
        return gamma


@dataclass(frozen=True)
class Decay:
    kind: ClassVar[str] = "decay"
    gamma0: float
    eta: float = 0.6

    def __post_init__(self):
        if not self.gamma0 > 0:
            raise ValueError("gamma0 must be positive")
        if not 0.5 < self.eta < 1.0:
            raise ValueError("eta must lie in (1/2, 1)")

    def schedule(self, N: int) -> Callable[[int, np.ndarray], float]:
        gamma0, eta = self.gamma0, self.eta
        return lambda k, g: gamma0 * (k + 1) ** (-eta)


@dataclass(frozen=True)
class NoAveraging:
    pass


@dataclass(frozen=True)
class UniformAvg:
    pass


@dataclass(frozen=True)
class TailAvg:
    fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError("tail fraction must lie in (0, 1]")


StepRule = Const | BudgetConst | InvK | AdaGradNorm | Decay
STEP_RULES: dict[str, type] = {cls.kind: cls for cls in get_args(StepRule)}  # a class's fields are its config keys
Averaging = NoAveraging | UniformAvg | TailAvg


@dataclass(frozen=True)
class SgdConfig:
    N: int
    step_rule: StepRule
    batch: int = 1
    clip_lambda: Optional[float] = None
    averaging: Averaging = field(default_factory=NoAveraging)

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.clip_lambda is not None and not self.clip_lambda > 0:  # also rejects NaN
            raise ValueError("clip_lambda must be positive")


def clip(z: np.ndarray, lam: float) -> np.ndarray:
    """Rescale z to norm at most lam, preserving direction (0 stays 0)."""
    if not lam > 0:
        raise ValueError("lambda must be positive")
    z = np.asarray(z, dtype=float)
    n = norm(z)
    if n <= lam:
        return z.copy()
    return z * (lam / n)


def run_sgd(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: SgdConfig, rng: Rng, *,
            record_every: int = 1, record_x: bool = False,
            max_oracle_calls: Optional[int] = None) -> Trace:
    """Projected SGD x <- proj(x - gamma_k * g_k) with batching and averaging.

    Deterministic given the rng seed.  The recorded ``grad_norm`` is the
    norm of the applied (batched, possibly clipped) gradient.
    """
    if oracle.stoch_grad is None:
        raise ValueError("run_sgd needs a stochastic gradient oracle (wrap with AdditiveStochGrad)")
    b, lam = cfg.batch, cfg.clip_lambda
    if isinstance(oracle.stoch_grad, AdditiveNoise):
        draw, rewind = _noise_blocks(oracle.stoch_grad, rng)
    else:
        draw, rewind = (lambda ctr, k, x: ctr.stoch_grad(x, rng)), (lambda: None)

    def gradient(ctr, k, x):
        g = draw(ctr, k, x)
        if b > 1:
            for _ in range(b - 1):
                g = g + draw(ctr, k, x)
            g = g / b
        return g if lam is None else clip(g, lam)

    try:
        return _projected_sgd(oracle, fset, x0, cfg.N, cfg.step_rule, cfg.averaging,
                              draw if b == 1 and lam is None else gradient,
                              record_every, record_x, max_oracle_calls)
    finally:
        rewind()


# Noise values that the block path of run_sgd draws at once: 4 KB of float64 rows.
_CHUNK_VALUES = 512


def _noise_blocks(noise: AdditiveNoise, rng: Rng):
    """``draw(ctr, k, x)``, the bits of ``ctr.stoch_grad(x, rng)`` with the noise drawn in chunks.

    Each draw charges one call to ``ctr``, then evaluates ``noise.grad(x)``
    and adds the next row of the current chunk.  The chunk runs ahead of
    the draws, so ``rewind()`` ends the run: it restores ``rng``'s state
    from before the current chunk and redraws only the rows used, which
    leaves ``rng`` where one draw per call would have left it.
    """
    grad, n = noise.grad, max(1, _CHUNK_VALUES // noise.d)
    state, chunk, used = None, None, n

    def draw(ctr, k, x):  # k unused: the signature of a _projected_sgd gradient
        nonlocal state, chunk, used
        ctr.count_extra()
        if used == n:
            state, chunk, used = rng.state, noise.rows(rng, n), 0
        g = grad(x) + chunk[used]
        used += 1
        return g

    def rewind():
        if state is not None:
            rng.state = state
            noise.rows(rng, used)

    return draw, rewind


def _projected_sgd(oracle: OracleSuite, fset: FeasibleSet, x0, N: int, step_rule: StepRule,
                   averaging: Averaging, gradient: Callable[[CountingOracle, int, np.ndarray], np.ndarray],
                   record_every: int, record_x: bool, max_oracle_calls: Optional[int]) -> Trace:
    """The loop behind :func:`run_sgd` and :func:`optbench.zeroorder.run_zo_sgd`.

    ``gradient(ctr, k, x)`` returns iteration k's gradient, drawn through
    the run's counting oracle.  The reported point is the average of the
    averaged iterates, or the last iterate without averaging.
    """
    x = fset.project(np.array(x0, dtype=float))
    gamma_k = step_rule.schedule(N)

    if isinstance(averaging, UniformAvg):
        avg_start = 0
    elif isinstance(averaging, TailAvg):
        avg_start = N - math.ceil(averaging.fraction * N)
    else:
        avg_start = N  # no iterate is averaged
    avg_sum, avg_n = np.zeros_like(x), 0

    project_needed = not isinstance(fset, FullSpace)

    def step(ctr, k, x):
        nonlocal avg_sum, avg_n
        if k >= avg_start:
            avg_sum = avg_sum + x  # a fresh add: numpy's in-place add of a 1-element array is about 2x slower
            avg_n += 1
        g = gradient(ctr, k, x)
        gamma = gamma_k(k, g)
        x_new = x - gamma * g
        return fset.project(x_new) if project_needed else x_new, None, g, gamma

    return run_steps(oracle, x, N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, reported=lambda: avg_sum / avg_n if avg_n else None)


@dataclass(frozen=True)
class MonteCarloStats:
    replicas: int
    mean: np.ndarray
    covariance: np.ndarray
    seed: int


def monte_carlo_mean_cov(run_fn: Callable[[Rng], np.ndarray], replicas: int,
                         seed: int) -> MonteCarloStats:
    """Sample mean and unbiased covariance of ``run_fn`` outputs.

    Replica i receives the derived stream ``Rng((seed, i))``, so results
    do not depend on execution order and are reproducible from ``seed``.
    """
    if replicas < 2:
        raise ValueError("need at least 2 replicas")
    outs = []
    for i in range(replicas):
        v = np.asarray(run_fn(Rng((int(seed), i))), dtype=float)
        if v.ndim != 1:
            raise ValueError("run_fn must return a vector per replica")
        outs.append(v)
    X = np.stack(outs)
    mean = X.mean(axis=0)
    centered = X - mean
    cov = centered.T @ centered / (replicas - 1)
    cov = 0.5 * (cov + cov.T)
    return MonteCarloStats(replicas=replicas, mean=mean, covariance=cov, seed=int(seed))
