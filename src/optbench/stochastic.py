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

Averaging modes name the first iterate of the Polyak-Juditsky mean, of
x^0..x^{N-1} or of the tail fraction, that ``run_steps`` keeps and
reports.  Mini-batching averages ``batch`` independent draws;
``clip_lambda`` rescales the batched gradient to norm at most lambda
before the step (heavy-tail robustness).

:func:`run_sgd` and the zeroth-order :func:`optbench.zeroorder.run_zo_sgd`
are front ends over one projected-SGD step; each supplies its own
gradient source, and :func:`~optbench.core.oracles.run_steps` projects
the start and each step's point onto the feasible set.

Noise stream.  :func:`run_sgd` takes one noise row per ``stoch_grad``
call, in call order, from the run's ``Rng``.  When the suite's
``stoch_grad`` declares its draws (its ``noise`` attribute, the
:class:`~optbench.core.noise.AdditiveNoise` that ``wrap_noise`` hangs
on it), the rows come a chunk of :data:`~optbench.core.rng.BLOCK_VALUES`
values at a time through a :class:`~optbench.core.rng.Cursor`, with the
bits and the stream of one draw per call; ``base(x)`` is still evaluated
and charged to the budget (``count_extra``) once per draw.  That holds
as long as ``base`` draws nothing from the run's ``Rng``, so a noise
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
from .core.rng import BLOCK_VALUES, Cursor, Rng, chunk_uses
from .core.sets import FeasibleSet


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
    def average_from(self, N: int) -> Optional[int]:
        return None


@dataclass(frozen=True)
class UniformAvg:
    def average_from(self, N: int) -> Optional[int]:
        return 0


@dataclass(frozen=True)
class TailAvg:
    fraction: float = 0.5

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError("tail fraction must lie in (0, 1]")

    def average_from(self, N: int) -> Optional[int]:
        return N - math.ceil(self.fraction * N)


StepRule = Const | BudgetConst | InvK | AdaGradNorm | Decay
STEP_RULES: dict[str, type] = {cls.kind: cls for cls in get_args(StepRule)}  # a class's fields are its config keys
Averaging = NoAveraging | UniformAvg | TailAvg  # average_from(N): the first of N iterates averaged, None: none


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
    noise = getattr(oracle.stoch_grad, "noise", None)
    if noise is not None:
        draw, rewind = _noise_blocks(noise, rng, cfg.N * b)
    else:
        draw, rewind = (lambda ctr, k, x: ctr.stoch_grad(x, rng)), (lambda: None)

    def gradient(ctr, k, x):
        g = draw(ctr, k, x)
        if b > 1:
            for _ in range(b - 1):
                g = g + draw(ctr, k, x)
            g = g / b
        return g if lam is None else clip(g, lam)

    return _projected_sgd(oracle, fset, x0, cfg.N, cfg.step_rule, cfg.averaging.average_from(cfg.N),
                          draw if b == 1 and lam is None else gradient, rewind, record_every, record_x,
                          max_oracle_calls)


def _noise_blocks(noise: AdditiveNoise, rng: Rng, draws: int):
    """``(draw, rewind)``: ``draw(ctr, k, x)`` has the bits of ``ctr.stoch_grad(x, rng)``, for ``draws`` calls.

    Each draw charges one call to ``ctr``, evaluates ``noise.base(x)`` and
    adds the next row of a cursor chunk of ``BLOCK_VALUES`` values, the
    last one cut to the draws left; ``rewind()`` keeps the rows used.
    """
    grad, n = noise.base, chunk_uses(BLOCK_VALUES, math.prod(noise.shape))
    cursor = Cursor(rng, lambda m: noise.rows(rng, m))
    chunk, used, size = None, 0, 0

    def draw(ctr, k, x):  # k unused: the signature of a _projected_sgd gradient
        nonlocal chunk, used, size, draws
        ctr.count_extra()
        if used == size:
            size = min(n, draws)
            chunk, used, draws = cursor.take(size), 0, draws - size
        g = grad(x) + chunk[used]
        used += 1
        return g

    return draw, lambda: cursor.keep(used)


def _projected_sgd(oracle: OracleSuite, fset: FeasibleSet, x0, N: int, step_rule: StepRule,
                   average_from: Optional[int], gradient: Callable[[CountingOracle, int, np.ndarray], np.ndarray],
                   rewind: Callable[[], None], record_every: int, record_x: bool, max_oracle_calls: Optional[int],
                   divergence_radius: Optional[float] = None) -> Trace:
    """The step behind :func:`run_sgd` and :func:`optbench.zeroorder.run_zo_sgd`, run by ``run_steps``.

    ``gradient(ctr, k, x)`` returns iteration k's gradient, drawn through
    the run's counting oracle, and ``rewind()`` puts back, by any exit, the
    draws made ahead and not used.  ``run_steps`` keeps and reports the
    average from ``average_from`` and runs the distance monitor.
    """
    gamma_k = step_rule.schedule(N)

    def step(ctr, k, x):
        g = gradient(ctr, k, x)
        gamma = gamma_k(k, g)
        return x - gamma * g, None, g, gamma, None

    try:
        return run_steps(oracle, x0, N, step, record_every=record_every, record_x=record_x,
                         max_oracle_calls=max_oracle_calls, divergence_radius=divergence_radius,
                         average_from=average_from, fset=fset)
    finally:
        rewind()


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
