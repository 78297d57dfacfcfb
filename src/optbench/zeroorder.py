"""Kernel-smoothed zeroth-order optimization.

The two-point directional estimator

    g~(x) = d * (f~(x + tau r e) - f~(x - tau r e)) / (2 tau) * K(r) * e,

with e uniform on the unit sphere, r uniform on [-1, 1] and K an odd
polynomial kernel, is an unbiased gradient estimator for linear
functions and has bias O(tau^{beta-1}) on beta-smooth ones.  The kernel
must satisfy the moment conditions (expectations over uniform r):

    E[K] = 0,   E[r K] = 1,   E[r^j K] = 0 for j = 2..beta-1.

:func:`build_kernel` constructs the minimal-degree odd polynomial
satisfying them for beta in {2, 3, 4, 5} and verifies the conditions by
Gauss-Legendre quadrature at construction.  Odd kernels meet the even-j
conditions automatically, so beta = 2, 3 share K(u) = 3u and
beta = 4, 5 share K(u) = (75u - 105u^3)/4.

Draw order.  :func:`kernel_grad_estimate` takes all its randomness from
one :class:`Rng`, and per sample it draws the radius r, then the
direction e, then calls the oracle at x + tau r e and then at
x - tau r e (value noise draws from the same stream inside those calls).
That order is why equal seeds give equal streams, and no batch size
changes it.  A bare suite is counted by an unbudgeted
:class:`CountingOracle`, whose ``zo_value`` is the suite's exact
``value`` where the suite has no zeroth-order entry.  When that entry is
the exact ``value`` or declares one gaussian per call (the
:class:`~optbench.core.noise.AdditiveNoise` that ``zo_stoch`` hangs on
it), samples are drawn ahead, a chunk at a time.  Phase 1
(:meth:`Rng.raw_samples <optbench.core.rng.Rng.raw_samples>`) draws only
raw values, per sample and in that order: one raw 64-bit word for the
radius (the word that ``random()`` would consume), then one
``standard_normal`` fill of a row with the direction's d normals
followed by the two probes' noise.  The half of phase 2 that does not
depend on x follows on the chunk's arrays (:func:`_draw`): it turns
the words into ``random()``'s draws (:func:`~optbench.core.rng.random_of`)
and maps them to [-1, 1] (:func:`~optbench.core.rng.uniform_of`),
normalizes the directions (:func:`~optbench.core.rng.unit_rows`), and computes the
kernel weights K(r), the steps ``(tau r) e`` (as ``(s, -s)`` pairs from
:data:`WEIGH_BATCH` samples on) and the noise terms.  The other half,
:func:`_estimate`, serves one iteration once its ``2 * batch`` calls are
counted: it evaluates the noise-free ``value`` at the probes ``x +- s``,
adds the noise, computes the weights ``d/(2 tau) * (f~+ - f~-) * K(r)``
and sums the weighted directions in the order drawn.  From
``WEIGH_BATCH`` samples on it works on arrays (:func:`_weigh`): the
probes as one ``(2 batch, d)`` array in call order, their values from
one :func:`~optbench.core.oracles.values_at` call (one ``value.rows``
call where ``value`` has one, as ``quad_diag``'s does, else one call per
probe), and the in-order ``cumsum`` of the weighted directions.  Below
it, it works on scalars, one sample at a time.  Timed against each other on ``quad_diag`` under
``zo_stoch`` at d = 2, 10 and 50 (20 interleaved runs per cell, 2-vCPU
x86-64 host), the arrays took 1.21-1.23 times the scalars' time per
sample at batch 2, 0.96-1.06 at 3, 0.82-0.94 at 4, 0.75-0.91 at 5 and
0.66-0.87 at 6: they win from 4 samples on.  Every step is elementwise
or has the bits of the scalar call it replaces, so each estimate and the
stream's final state equal the per-sample loop's bit for bit.

One sampler, :func:`_sampler`, draws every zeroth-order sample, for
:func:`kernel_grad_estimate` (one iteration) and :func:`run_zo_sgd`
alike.  Where the entry is declared it draws ahead through a
:class:`~optbench.core.rng.Cursor`, which puts back what a chunk's
iterations leave, checks that the budget has room for an iteration's
``2 * batch`` calls and charges them to the run's
:class:`CountingOracle`.  Any other entry takes its per-sample loop: a
hand-built one may draw anything from the stream.

:func:`run_zo_sgd` is :func:`optbench.stochastic.run_sgd`'s loop driven
by the batched estimator at ``tau_k`` in place of a stochastic gradient;
each iteration consumes exactly ``2 * batch`` zeroth-order calls.  A
sample's draws do not depend on x, so where the entry is declared the
sampler draws them in chunks of up to
:data:`~optbench.core.rng.ZO_CHUNK_VALUES` raw values
(:func:`chunk_iterations`), each serving several iterations (one where a
batch alone holds more values).  Its one fallback is its own per-sample
loop, which serves an iteration with too few calls left, so that a
budget cut leaves the stream where the loop leaves it, and one whose
samples hold a direction that ``unit_rows`` does not keep, so that the
loop redraws it where :meth:`Rng.sphere` always has (with gaussian draws
that almost never happens).  The loop and each chunk start raise the
estimator's refusals of the iteration they serve (:func:`_scale`).  So a
run leaves its trace, its reported point, its errors and its ``Rng``
where estimating one iteration at a time leaves them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .core.noise import AdditiveNoise
from .core.oracles import CountingOracle, OracleSuite, Trace, values_at
from .core.rng import ZO_CHUNK_VALUES, Cursor, Rng, chunk_uses, random_of, uniform_of, unit_rows
from .core.sets import FeasibleSet
from .stochastic import StepRule, _projected_sgd

_SUPPORTED_BETA = (2, 3, 4, 5)
_QUAD_NODES = 64
_MOMENT_TOL = 1e-10
# The smallest batch whose samples are weighed as arrays; the module docstring gives the sweep that chose it.
WEIGH_BATCH = 4
_SIGNS = np.array([[1.0], [-1.0]])  # a step s times these is (s, -s), and x + (-s) has the bits of x - s


@dataclass(frozen=True)
class Kernel:
    """Odd polynomial kernel K(u) = sum_i c_i u^{2i+1} on [-1, 1]."""

    beta: int
    odd_coeffs: np.ndarray  # coefficients of u, u^3, u^5, ...; read-only from build_kernel
    kappa: float            # int_{-1}^{1} K(u)^2 du
    kappa_beta: float       # int_{-1}^{1} |u|^beta |K(u)| du
    # odd_coeffs highest power first, as Python floats
    horner: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "horner", tuple(float(c) for c in self.odd_coeffs[::-1]))

    def __call__(self, u):
        """K(u) for a float or a float array ``u``: the same bits either way, elementwise."""
        u2 = u * u
        acc = 0.0
        for c in self.horner:
            acc = acc * u2 + c
        return acc * u

    def moment(self, j: int, nodes: int = _QUAD_NODES) -> float:
        """E[u^j K(u)] over uniform u in [-1, 1], by Gauss-Legendre quadrature."""
        t, w = np.polynomial.legendre.leggauss(nodes)
        return 0.5 * float(np.sum(w * t ** j * self(t)))


@functools.cache
def build_kernel(beta: int) -> Kernel:
    """Minimal-degree odd kernel for smoothness order beta in {2, 3, 4, 5}.

    Cached: every caller shares one read-only kernel per beta.
    """
    if beta not in _SUPPORTED_BETA:
        raise ValueError(f"unsupported beta {beta}; supported: {_SUPPORTED_BETA}")
    l = beta - 1
    odd_orders = [j for j in range(1, l + 1) if j % 2 == 1] or [1]
    n = len(odd_orders)
    powers = [2 * i + 1 for i in range(n)]  # u, u^3, ...
    # E[u^m] = 1/(m+1) for even m; the system enforces E[u^j K] = 1{j==1}.
    M = np.array([[1.0 / (j + p + 1) for p in powers] for j in odd_orders])
    rhs = np.array([1.0 if j == 1 else 0.0 for j in odd_orders])
    coeffs = np.linalg.solve(M, rhs)
    coeffs.setflags(write=False)

    t, w = np.polynomial.legendre.leggauss(200)
    kern = Kernel(beta=beta, odd_coeffs=coeffs, kappa=0.0, kappa_beta=0.0)
    kvals = kern(t)
    kappa = float(np.sum(w * kvals ** 2))
    kappa_beta = float(np.sum(w * np.abs(t) ** beta * np.abs(kvals)))
    kern = Kernel(beta=beta, odd_coeffs=coeffs, kappa=kappa, kappa_beta=kappa_beta)

    if abs(kern.moment(0)) > _MOMENT_TOL:
        raise AssertionError("kernel moment condition E[K] = 0 failed")
    if abs(kern.moment(1) - 1.0) > _MOMENT_TOL:
        raise AssertionError("kernel moment condition E[uK] = 1 failed")
    for j in range(2, l + 1):
        if abs(kern.moment(j)) > _MOMENT_TOL:
            raise AssertionError(f"kernel moment condition E[u^{j}K] = 0 failed")
    if not math.isfinite(kern.kappa_beta):
        raise AssertionError("kernel weight integral diverged")
    return kern


def kernel_grad_estimate(oracle: Union[OracleSuite, CountingOracle], x, tau: float,
                         kernel: Kernel, rng: Rng, batch: int = 1) -> np.ndarray:
    """Average of ``batch`` two-point kernel estimates; 2*batch oracle calls.

    Sample i draws r_i, then e_i, then calls the oracle at x + tau r_i e_i
    and at x - tau r_i e_i (the module docstring's draw order).  ``x``
    must have shape ``(dim,)`` of the suite, ``dim`` must be >= 1, and
    ``tau`` must pass :func:`estimator_scale`.  The estimate is iteration
    0 of a one-iteration :func:`_sampler`: a chunk of one iteration where
    :func:`_declared` finds the entry's draws, else the per-sample loop.
    """
    if batch < 1:
        raise ValueError("batch must be >= 1")
    counter = oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)
    gradient, _ = _sampler(counter.suite, lambda k: tau, 1, batch, kernel, rng)
    return gradient(counter, 0, np.asarray(x, dtype=float))


def estimator_scale(dim: int, tau: float) -> float:
    """``dim / (2 tau)``, the factor of every two-point estimate at ``tau``; a ValueError unless both are finite.

    ``tau`` must be positive and finite.  A tau so small that the factor
    overflows (1e-320 at any dim) would weigh the samples by inf and NaN,
    so it is refused as well.
    """
    if not 0 < tau < math.inf:
        raise ValueError("tau must be positive and finite")
    scale = dim / (2.0 * tau)
    if scale == math.inf:
        raise ValueError(f"tau = {tau!r} is too small: the estimator's scale dim/(2 tau) overflows at dim {dim}")
    return scale


def _declared(suite: OracleSuite):
    """``(value, noise)`` when :func:`_draw` can draw the suite's zeroth-order noise, else None.

    ``value`` is the entry's rng-free part and ``noise`` the
    :class:`AdditiveNoise` whose draws the entry adds; a suite without an
    entry gives its exact ``value`` and no noise.  An entry without a
    declaration (a hand-built one), a declaration of other than one
    gaussian per call and a suite the estimator refuses (dim 0) take the
    per-sample loop.
    """
    if suite.dim < 1:
        return None
    entry = suite.zo_value
    if entry is None:
        return suite.value, None
    noise = getattr(entry, "noise", None)
    if noise is None or noise.shape != () or noise.distribution != "gaussian":
        return None
    return noise.base, noise


def _scale(x, dim: int, tau: float) -> float:
    """The estimator's refusals of an iteration at ``x`` and ``tau``, then its :func:`estimator_scale`.

    A ValueError unless ``x`` has shape ``(dim,)`` and ``dim`` is at least 1.
    """
    if x.shape != (dim,):
        raise ValueError(f"x has shape {x.shape}, the suite takes ({dim},)")
    if dim < 1:
        raise ValueError("the estimator needs a suite of dim >= 1")
    return estimator_scale(dim, tau)


def _draw(drawn, noise: Optional[AdditiveNoise], dim: int, taus, batch: int, kernel: Kernel):
    """``(servable, chunk)``: the samples of ``len(taus)`` iterations of ``batch`` each, from their raw draws.

    ``drawn`` is :meth:`Rng.raw_samples`'s ``(words, raw)`` for those
    samples, ``noise`` is what :func:`_declared` returns and ``taus[j]`` is
    iteration j's tau.  The half of phase 2 that does not depend on x:
    ``chunk`` holds, per sample, the step ``(tau r) e``, the direction e,
    the kernel weight K(r) and its two probes' noise terms, as
    :func:`_estimate` takes them.  ``servable`` counts the samples of the
    iterations before the first whose samples hold a direction that
    :func:`unit_rows` does not keep.
    """
    words, raw = drawn
    n = batch * len(taus)
    dirs, kept = unit_rows(raw[:, :dim])
    servable = n if kept.all() else int(kept.argmin()) // batch * batch
    r = uniform_of(random_of(words))
    steps, weights = (np.array(taus).repeat(batch) * r)[:, None] * dirs, kernel(r)
    xi = None if noise is None else noise.terms(raw[:, dim:])  # two per sample
    if batch >= WEIGH_BATCH:
        return servable, (steps[:, None] * _SIGNS, dirs, weights, xi)
    return servable, (list(steps), list(dirs), weights.tolist(), [0.0, 0.0] * n if xi is None else xi.ravel().tolist())


def _estimate(value, x, chunk, i: int, batch: int, scale: float) -> np.ndarray:
    """The estimate at ``x`` from samples ``i`` to ``i + batch - 1`` of a :func:`_draw` chunk.

    ``value`` is the entry's rng-free part and ``scale`` the iteration's
    :func:`estimator_scale`.  From :data:`WEIGH_BATCH` samples on they are
    weighed as arrays (:func:`_weigh`), below it on scalars, one at a
    time.  Without noise a probe value gets ``+ 0.0``: that only turns a
    -0.0 value into +0.0, which no estimate shows, as the sum gets
    ``+ 0.0`` too.
    """
    steps, dirs, weights, xi = chunk
    end = i + batch
    if batch >= WEIGH_BATCH:
        total = _weigh(value, x, steps[i:end], dirs[i:end], weights[i:end], None if xi is None else xi[i:end], scale)
    else:
        total = None
        for j in range(i, end):
            s, e = steps[j], dirs[j]
            w = scale * ((float(value(x + s)) + xi[2 * j]) - (float(value(x - s)) + xi[2 * j + 1])) * weights[j]
            total = w * e if total is None else total + w * e
    return (total + 0.0) / batch


def _weigh(value, x, signed, dirs, kernel_weights, xi, scale):
    """The sum, in sample order, of the weighted directions of n samples, as arrays.

    Sample i has the steps ``signed[i] = (s_i, -s_i)`` to its two probes,
    ``s_i = (tau r_i) e_i`` (an ``(n, 2, d)`` array), the direction
    ``dirs[i] = e_i``, the kernel weight ``kernel_weights[i] = K(r_i)`` and
    the noise terms ``xi[i]`` of its two probes (None: no noise).  ``value``
    is evaluated at every probe by one :func:`values_at` call, in call
    order.  Every step is elementwise or has the bits of the per-sample
    loop's (``x + (-s)`` is ``x - s``), so the sum equals that loop's
    running sum bit for bit.
    """
    n, _, d = signed.shape
    probes = (x + signed).reshape(2 * n, d)  # each sample's x + s, then its x - s: the order of the calls
    f = values_at(value, probes).reshape(n, 2)
    if xi is not None:
        f = f + xi
    weights = scale * (f[:, 0] - f[:, 1]) * kernel_weights
    # cumsum adds the rows strictly in order, as the per-sample loop does: sum(axis=0)
    # sums pairwise when d = 1 (from 8 rows on), and weights @ dirs goes through BLAS.
    return (weights[:, None] * dirs).cumsum(axis=0)[-1]


@dataclass(frozen=True)
class ConstTau:
    tau: float = 1e-3

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError("tau must be positive and finite")

    def at(self, k: int) -> float:
        return self.tau


@dataclass(frozen=True)
class PowerDecayTau:
    tau0: float
    exponent: float

    def __post_init__(self):
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
        if not self.exponent >= 0:  # also true for NaN
            raise ValueError("exponent must be >= 0")

    def at(self, k: int) -> float:
        return self.tau0 * (k + 1) ** (-self.exponent)


TauSchedule = ConstTau | PowerDecayTau


@dataclass(frozen=True)
class ZoConfig:
    N: int
    step_rule: StepRule
    kernel: Kernel
    tau_schedule: TauSchedule = field(default_factory=ConstTau)
    batch: int = 1

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be >= 0")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")


def run_zo_sgd(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: ZoConfig, rng: Rng, *,
               record_every: int = 1, record_x: bool = False,
               max_oracle_calls: Optional[int] = None) -> Trace:
    """Projected SGD on the kernel gradient estimate (2*batch calls/iter).

    Iteration k's gradient has the bits of ``kernel_grad_estimate`` at
    ``tau_schedule.at(k)``.  Where :func:`_declared` finds the suite's
    zeroth-order draws, :func:`_sampler` draws the samples of many
    iterations as one chunk; the run's ``Rng`` ends, by any exit, where
    estimating one iteration at a time leaves it.  Any other suite has
    each iteration estimated by ``kernel_grad_estimate``.  It ends
    ``diverged`` 1e6 from the start, as gd does: a tau below x's
    resolution blows it up.
    """
    tau, kernel, batch = cfg.tau_schedule, cfg.kernel, cfg.batch

    def estimate(ctr, k, x):  # the module attribute, looked up per call: a traced run rebinds it
        return kernel_grad_estimate(ctr, x, tau.at(k), kernel, rng, batch)

    if _declared(oracle) is None:
        gradient, rewind = estimate, (lambda: None)
    else:
        gradient, rewind = _sampler(oracle, tau.at, cfg.N, batch, kernel, rng)
    return _projected_sgd(oracle, fset, x0, cfg.N, cfg.step_rule, None, gradient, rewind, record_every, record_x,
                          max_oracle_calls, divergence_radius=1e6)


def chunk_iterations(batch: int, width: int) -> int:
    """The iterations whose samples one chunk of :func:`_sampler` draws: ``batch`` samples each.

    As many as :data:`~optbench.core.rng.ZO_CHUNK_VALUES` raw values hold at
    ``width`` values per sample, and at least one.  The budget is the
    module's ``ZO_CHUNK_VALUES``, read at each call, so a test may set it.
    """
    return chunk_uses(ZO_CHUNK_VALUES, batch * width)


def _sampler(suite: OracleSuite, tau_at, N: int, batch: int, kernel: Kernel, rng: Rng):
    """``(gradient, rewind)``: the estimates of N iterations of ``batch`` samples each, at ``tau_at(k)``.

    ``gradient(ctr, k, x)`` is iteration k's estimate through the counting
    oracle ``ctr``, and ``rewind()`` puts back, by any exit, the samples
    drawn ahead and not weighed.  Where :func:`_declared` finds no draws,
    every iteration takes the per-sample loop.  Otherwise a chunk is one
    :class:`~optbench.core.rng.Cursor` take of :meth:`Rng.raw_samples`,
    ``width`` raw values per sample, turned into samples by :func:`_draw`,
    for the next :func:`chunk_iterations` ``(batch, width)`` iterations, or
    the ones left, each sample's step taking its own iteration's tau.  A
    chunk starts with iteration k's refusals (:func:`_scale`) and ends
    before the first iteration whose tau :func:`estimator_scale` refuses
    or whose samples hold a direction that :func:`unit_rows` does not
    keep.  An iteration checks that the budget has room for its
    ``2 * batch`` probes, counts them and weighs its samples with
    :func:`_estimate`.  The per-sample loop serves an iteration without
    room and one that starts a chunk that keeps none of its samples;
    before it does, the chunk keeps the samples weighed.
    """
    dim = suite.dim

    def loop(ctr, k, x):
        tau = tau_at(k)
        scale = _scale(x, dim, tau)
        zo, total = ctr.zo_value, None
        for _ in range(batch):
            r = rng.uniform(-1.0, 1.0)
            e = rng.sphere(dim)
            s = (tau * r) * e
            w = scale * (zo(x + s, rng) - zo(x - s, rng)) * kernel(r)
            total = w * e if total is None else total + w * e
        # Adding 0.0 turns a -0.0 total into the +0.0 that a running sum from a zero start gives.
        return (total + 0.0) / batch

    declared = _declared(suite)
    if declared is None:
        return loop, lambda: None
    value, noise = declared
    width = dim if noise is None else dim + 2
    per_chunk = chunk_iterations(batch, width)
    cursor = Cursor(rng, lambda n: rng.raw_samples(n, width))
    used = kept = 0  # the chunk's samples weighed and kept
    scales = chunk = None

    def gradient(ctr, k, x):
        nonlocal used, kept, scales, chunk
        if not ctr.has_room(2 * batch):
            cursor.keep(used)
            kept = used
            return loop(ctr, k, x)
        if used == kept:
            t = tau_at(k)
            taus, scales = [t], [_scale(x, dim, t)]
            for j in range(k + 1, min(N, k + per_chunk)):
                t = tau_at(j)
                try:
                    scales.append(estimator_scale(dim, t))
                except ValueError:  # iteration j's refusal, raised where j starts the next chunk
                    break
                taus.append(t)
            used = 0
            kept, chunk = _draw(cursor.take(batch * len(taus)), noise, dim, taus, batch, kernel)
            cursor.keep(kept)
            if not kept:
                return loop(ctr, k, x)
        ctr.charge(2 * batch)
        i, used = used, used + batch
        return _estimate(value, x, chunk, i, batch, scales[i // batch])

    return gradient, lambda: cursor.keep(used)
