"""Noise models applied as oracle decorators.

Each wrapper returns a new :class:`OracleSuite` whose perturbed entries
satisfy the declared bound on every call:

* absolute gradient noise:   ||g~ - g|| <= delta
* relative gradient noise:   ||g~ - g|| <= alpha * ||g||
* additive stochastic gradient noise with scale sigma
* bounded zeroth-order value noise:  |f~ - f| <= delta
* stochastic zeroth-order value noise with E[xi^2] <= delta_tilde^2

Gradient noise replaces both ``grad`` and ``subgrad`` (consistently);
value noise replaces only the zeroth-order entry, so traces still report
the true objective.  A wrapped suite that draws its own randomness
(absolute or relative noise in random-direction mode) holds the ``Rng``
passed to ``wrap_noise``; create one wrapper per run for independent
streams.  Those wrappers take their directions from
:meth:`Rng.spheres`, which draws them in blocks: the ``Rng`` they hold
runs ahead of the calls made by at most one block, and every gradient is
the one that per-call :meth:`Rng.sphere` draws would give.  One
:class:`AdditiveNoise` builds ``additive_stoch_grad``'s gradient and
``zo_stoch``'s value, and each entry carries it as ``noise`` so that a
caller may draw the noise in blocks.

The random-direction wrappers check their bound on every call, and an
``AssertionError`` ends the call that breaks it.  For a gradient of at
most :data:`~optbench.core.linalg.SCREEN_MAX_DIM` entries (decided once
per wrapper) a screen on Python floats (``math.hypot``, ``math.dist``)
passes the ordinary call first, with a margin of 1e-13 where the exact
test allows 1e-12; every other call (near the bound, NaN or inf, or of
a longer gradient) is judged by the exact test, so the screen changes
no outcome, no gradient and no stream.

Each spec class names its config ``kind`` and wraps a suite itself.
:data:`NOISE_KINDS` maps a kind to its class; the class's fields are its config keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, ClassVar, Optional, get_args

import numpy as np

from .linalg import SCREEN_MAX_DIM, norm
from .oracles import OracleSuite
from .rng import Rng


class NoiseCompatibilityError(TypeError):
    """The oracle lacks the entry this noise model perturbs."""


def _check_scale(name: str, value: float):
    if not 0 <= value < math.inf:  # also false for NaN
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


@dataclass(frozen=True)
class NoNoise:
    kind: ClassVar[str] = "none"

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        return oracle


def _require_grad(oracle: OracleSuite, what: str):
    if oracle.grad is None:
        raise NoiseCompatibilityError(f"{what} requires an oracle with grad")


@dataclass(frozen=True)
class AbsoluteGrad:
    """Additive gradient perturbation with ||v(x)||_2 <= delta.

    ``fixed`` mode adds ``v``.  ``random_direction`` mode adds ``delta * e``
    for the next unit direction ``e`` of the wrapper's stream, once
    ``norm(e) <= 1 + 1e-12`` holds (else an ``AssertionError``).  The
    screen passes an ``e`` whose ``math.hypot`` is at most ``1 + 1e-13``:
    that is within an ulp of the true norm at every scale, and ``norm``
    rounds (under ``(d/2 + 2) * 2**-53`` relative; a square that underflows
    only lowers it) far inside the gap to 1e-12, so ``norm(e)`` passes
    too.  A longer, NaN or inf direction, and one near the bound, is
    judged by ``norm``.
    """

    kind: ClassVar[str] = "absolute_grad"
    delta: float
    mode: Optional[str] = None  # "fixed" | "random_direction"; None: "fixed" iff v is given
    v: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_scale("delta", self.delta)
        if self.mode is None:
            object.__setattr__(self, "mode", "random_direction" if self.v is None else "fixed")
        if self.mode not in ("fixed", "random_direction"):
            raise ValueError(f"unknown AbsoluteGrad mode {self.mode!r}")
        if self.v is not None:
            if self.mode != "fixed":
                raise ValueError(f"v is read in fixed mode only, not in {self.mode!r} mode")
            object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
            if self.v.ndim != 1:
                raise ValueError("v must be a flat list of numbers")
        if self.mode == "fixed":
            if self.v is None:
                raise ValueError("fixed mode requires the perturbation vector v")
            if not norm(self.v) <= self.delta + 1e-12:
                raise ValueError("||v|| must not exceed delta")

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        _require_grad(oracle, "gradient noise")
        base = oracle.grad
        delta, d = self.delta, oracle.dim
        if self.mode == "fixed":
            v = self.v  # ||v|| <= delta enforced at construction
            if v.shape != (d,):
                raise NoiseCompatibilityError(f"v has shape {v.shape}, the problem takes ({d},)")

            def noisy(x):
                return base(x) + v
        else:
            direction = rng.spheres(d).__next__
            screened = d <= SCREEN_MAX_DIM

            def noisy(x):
                e = direction()
                if not (screened and math.hypot(*e.tolist()) <= 1 + 1e-13) and norm(e) > 1 + 1e-12:
                    raise AssertionError("absolute noise exceeds its bound delta")
                return base(x) + delta * e
        return replace(oracle, grad=noisy, subgrad=noisy)


@dataclass(frozen=True)
class RelativeGrad:
    """Multiplicative gradient perturbation with ||g~ - g|| <= alpha ||g||.

    ``shrink`` and ``grow`` scale g by ``1 - alpha`` and ``1 + alpha``.
    ``random_direction`` returns ``out = g + alpha ||g|| e`` for the next
    unit direction ``e`` of the wrapper's stream and tests the bound
    relative to ||g||: ``norm((out - g) / ||g||)`` must be at most
    ``alpha (1 + 1e-12)`` plus 4 ulp of ||g|| over ||g||, unless g holds a
    NaN or inf (else an ``AssertionError``).  The screen returns ``out``
    at once when ||g|| is finite and ``math.dist(out, g)`` is at most
    ``alpha (1 + 1e-13) ||g||``.  Both tests take the same rounded
    differences ``out - g``; ``math.dist`` is within an ulp of their true
    norm at every scale, and the exact test's quotients and sum of squares
    (of entries at most about 1) round far inside the gap to 1e-12.  Where
    ``alpha ||g||`` is subnormal, the screen's bound and distance each
    round by at most half of the smallest subnormal, less than the exact
    test's 4 ulp of ||g||.  So the screen needs no window on ||g||; an inf
    ||g|| (a finite g whose norm overflows) would pass it with an inf
    ``out``, so it goes to the exact test, as do NaN, near-bound and
    longer gradients.
    """

    kind: ClassVar[str] = "relative_grad"
    alpha: float
    mode: str = "shrink"  # "shrink" | "grow" | "random_direction"

    def __post_init__(self):
        if not 0 <= self.alpha < 1:
            raise ValueError("alpha must lie in [0, 1)")
        if self.mode not in ("shrink", "grow", "random_direction"):
            raise ValueError(f"unknown RelativeGrad mode {self.mode!r}")

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        _require_grad(oracle, "gradient noise")
        base = oracle.grad
        alpha, d = self.alpha, oracle.dim
        if self.mode == "shrink":
            def noisy(x):
                return (1.0 - alpha) * base(x)
        elif self.mode == "grow":
            def noisy(x):
                return (1.0 + alpha) * base(x)
        else:
            direction = rng.spheres(d).__next__
            screened, bound = d <= SCREEN_MAX_DIM, alpha * (1 + 1e-13)

            def noisy(x):
                g = base(x)
                gn = math.sqrt(np.vdot(g, g))  # norm(g)'s bits; unlike dot, vdot does not warn when the squares overflow
                if gn == math.inf and np.isfinite(g).all():  # the squares overflow from ||g|| of about 1.3e154
                    gn = math.hypot(*g.tolist())
                out = g + alpha * gn * direction()
                if screened and gn < math.inf and math.dist(out.tolist(), g.tolist()) <= bound * gn:
                    return out
                # Compared relative to ||g||: the squares of a tiny g underflow.  Rounding g + alpha ||g|| e
                # moves out by about an ulp of ||g|| whatever alpha is, so 4 ulp are allowed beside alpha's share.
                # A NaN ratio fails the test: a finite g must not come out inf (a NaN or inf g passes as it is).
                if (gn > 0 and not norm((out - g) / gn) <= alpha * (1 + 1e-12) + 4 * math.ulp(gn) / gn
                        and np.isfinite(g).all()):
                    raise AssertionError("relative noise exceeds its bound alpha ||g||")
                return out
        return replace(oracle, grad=noisy, subgrad=noisy)


@dataclass(frozen=True)
class AdditiveStochGrad:
    """Stochastic gradient g(x) + sigma * xi with i.i.d. noise per call."""

    kind: ClassVar[str] = "additive_stoch_grad"
    sigma: float
    distribution: str = "gaussian"  # or "student_t3" (heavy tails, Var = 3 sigma^2)

    def __post_init__(self):
        _check_scale("sigma", self.sigma)
        if self.distribution not in ("gaussian", "student_t3"):
            raise ValueError(f"unknown distribution {self.distribution!r}")

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        _require_grad(oracle, "stochastic gradient noise")
        noise = AdditiveNoise(oracle.grad, self.sigma, (oracle.dim,), self.distribution)
        return replace(oracle, stoch_grad=noise.entry())


@dataclass(frozen=True)
class AdditiveNoise:
    """The declared draws of an entry ``base(x) + scale * xi``, built by :meth:`entry`.

    A call ``entry(x, rng)`` evaluates the rng-free ``base(x)`` and then
    draws one ``xi`` of ``shape`` from ``rng`` through ``draw(rng, size)``:
    standard gaussian, or Student-t with 3 degrees of freedom for
    ``"student_t3"``; ``shape=()`` draws a Python float.  The entry carries
    this declaration as its ``noise`` attribute.  ``rows(rng, n)`` draws
    the scaled ``xi`` of n successive calls in one ``(n, *shape)`` fill
    through the same ``draw``; numpy fills it in call order, so the rows
    equal those calls' draws bit for bit and leave ``rng`` in the same
    state.  ``terms(xi)`` gives the terms ``scale * xi``
    that calls with the raw draws ``xi`` add to their base values, with
    those calls' bits.  :class:`AdditiveStochGrad` builds a gradient entry
    (``shape=(dim,)``), :class:`ZOStochValue` a value entry.  Neither holds
    per-run state, so one suite serves concurrent runs.
    """

    base: Callable[[np.ndarray], object]
    scale: float
    shape: tuple = ()
    distribution: str = "gaussian"

    def entry(self) -> Callable[[np.ndarray, Rng], object]:
        base, scale, size, draw = self.base, self.scale, self.shape or None, self.draw

        def noisy(x, rng):
            return base(x) + scale * draw(rng, size)
        noisy.noise = self
        return noisy

    def draw(self, rng: Rng, size):
        return rng.gaussian(size) if self.distribution == "gaussian" else rng.student_t(3, size)

    def rows(self, rng: Rng, n: int) -> np.ndarray:
        return self.scale * self.draw(rng, (n, *self.shape))

    def terms(self, xi: np.ndarray) -> np.ndarray:
        return self.scale * xi


@dataclass(frozen=True)
class ZOBoundedValue:
    """Adversarial bounded value noise |delta(x)| <= delta for the ZO oracle."""

    kind: ClassVar[str] = "zo_bounded"
    delta: float
    mode: str = "deterministic_worst"  # or "random"

    def __post_init__(self):
        _check_scale("delta", self.delta)
        if self.mode not in ("deterministic_worst", "random"):
            raise ValueError(f"unknown ZOBoundedValue mode {self.mode!r}")

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        base_value = oracle.value
        delta = self.delta
        if self.mode == "deterministic_worst":
            # Sign noise along a fixed random hyperplane: the two probe points
            # of a symmetric difference land on opposite sides near the
            # minimizer, the worst case for two-point estimators.
            w = rng.sphere(oracle.dim)

            def zo(x, rng_):
                return base_value(x) + (delta if float(np.dot(w, x)) >= 0 else -delta)
        else:
            def zo(x, rng_):
                return base_value(x) + delta * rng_.uniform(-1.0, 1.0)
        return replace(oracle, zo_value=zo)


@dataclass(frozen=True)
class ZOStochValue:
    """Stochastic value noise with E[xi^2] <= delta_tilde^2 (gaussian)."""

    kind: ClassVar[str] = "zo_stoch"
    delta_tilde: float

    def __post_init__(self):
        _check_scale("delta_tilde", self.delta_tilde)

    def wrap(self, oracle: OracleSuite, rng: Rng) -> OracleSuite:
        return replace(oracle, zo_value=AdditiveNoise(oracle.value, self.delta_tilde).entry())


NoiseSpec = NoNoise | AbsoluteGrad | RelativeGrad | AdditiveStochGrad | ZOBoundedValue | ZOStochValue
NOISE_KINDS: dict[str, type] = {cls.kind: cls for cls in get_args(NoiseSpec)}


def wrap_noise(oracle: OracleSuite, noise: NoiseSpec, rng: Rng) -> OracleSuite:
    """Decorate ``oracle`` with the given noise model: ``noise.wrap(oracle, rng)``.

    The returned suite is deterministic given ``rng``'s seed; the noise
    model's bound holds on every perturbed call.
    """
    return noise.wrap(oracle, rng)
