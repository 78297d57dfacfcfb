"""Feasible sets with Euclidean projection and linear minimization oracles.

Four variants: the whole space, an axis-aligned box, a Euclidean ball and
the unit probability simplex.  Every variant projects; the bounded ones
additionally support ``lmo`` (argmin of a linear form over the set) and
report their diameter.

Tie-breaking in ``lmo`` is deterministic: a zero gradient component picks
the lower bound of a box, the first basis vector on the simplex, and the
center of a ball.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import norm


class DimensionMismatchError(ValueError):
    pass


class UnboundedSetError(ValueError):
    pass


def _as_vector(y, d: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.ndim != 1 or y.shape[0] != d:
        raise DimensionMismatchError(f"expected a vector of dimension {d}, got shape {y.shape}")
    return y


@dataclass(frozen=True)
class FullSpace:
    """R^d: projection is the identity, no LMO."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def diameter(self) -> float:
        return float("inf")

    def project(self, y) -> np.ndarray:
        return _as_vector(y, self.d).copy()

    def lmo(self, g) -> np.ndarray:
        raise UnboundedSetError("lmo is undefined on an unbounded set")


@dataclass(frozen=True)
class Box:
    """Axis-aligned box {lo <= x <= hi} (componentwise)."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1:
            raise ValueError("lo and hi must be 1-d arrays of equal length")
        if np.any(lo > hi):
            raise ValueError("box requires lo <= hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @property
    def diameter(self) -> float:
        return norm(self.hi - self.lo)

    def project(self, y) -> np.ndarray:
        return _as_vector(y, self.dim).clip(self.lo, self.hi)

    def lmo(self, g) -> np.ndarray:
        g = _as_vector(g, self.dim)
        # g > 0 -> lower bound, g < 0 -> upper bound, g == 0 -> lower bound.
        return np.where(g < 0, self.hi, self.lo)  # a fresh float array: lo and hi are float


@dataclass(frozen=True)
class Ball:
    """Euclidean ball {||x - center|| <= radius}."""

    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.asarray(self.center, dtype=float)
        if c.ndim != 1:
            raise ValueError("center must be a 1-d array")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "center", c)

    @property
    def dim(self) -> int:
        return self.center.shape[0]

    @property
    def diameter(self) -> float:
        return 2.0 * self.radius

    def project(self, y) -> np.ndarray:
        y = _as_vector(y, self.dim)
        z = y - self.center
        n = norm(z)
        if n <= self.radius:
            return y.copy()
        return self.center + z * (self.radius / n)

    def lmo(self, g) -> np.ndarray:
        g = _as_vector(g, self.dim)
        n = norm(g)
        if n == 0.0:
            return self.center.copy()
        return self.center - g * (self.radius / n)


@dataclass(frozen=True)
class Simplex:
    """Unit probability simplex {x >= 0, sum(x) = 1}."""

    d: int

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("dimension must be >= 1")

    @property
    def dim(self) -> int:
        return self.d

    @property
    def diameter(self) -> float:
        # ||e_i - e_j|| = sqrt(2) between distinct vertices.
        return float(np.sqrt(2.0)) if self.d > 1 else 0.0

    def project(self, y) -> np.ndarray:
        """Sort-and-threshold simplex projection, O(d log d)."""
        y = _as_vector(y, self.d)
        u = np.sort(y)[::-1]
        css = np.cumsum(u)
        ks = np.arange(1, self.d + 1)
        cond = u - (css - 1.0) / ks > 0
        rho = int(np.nonzero(cond)[0][-1])
        theta = (css[rho] - 1.0) / (rho + 1)
        return np.maximum(y - theta, 0.0)

    def lmo(self, g) -> np.ndarray:
        g = _as_vector(g, self.d)
        out = np.zeros(self.d)
        out[int(np.argmin(g))] = 1.0  # argmin takes the lowest index on ties
        return out


FeasibleSet = FullSpace | Box | Ball | Simplex
