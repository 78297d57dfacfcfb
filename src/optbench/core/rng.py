"""Seeded random number generation.

A thin wrapper around numpy's PCG64 generator that fixes the draw
conventions used throughout the library: uniform on [-1, 1], standard
gaussians, and uniform points on the unit Euclidean sphere (normalized
gaussian vectors).  Identical seeds always yield identical streams.

Derived streams are produced with :meth:`Rng.spawn`, which appends an
integer key to the entropy sequence of the parent.  Two spawns with
different keys are statistically independent, and the mapping
``(seed, key) -> stream`` is stable, so replica seeds in Monte-Carlo
code are reproducible regardless of execution order.
"""

from __future__ import annotations

import math

import numpy as np


class Rng:
    """Deterministic random source backed by ``numpy.random.PCG64``."""

    def __init__(self, seed):
        if isinstance(seed, tuple):
            self._entropy = seed
        else:
            self._entropy = (int(seed),)
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._entropy)))

    @property
    def entropy(self) -> tuple:
        return self._entropy

    @property
    def state(self) -> dict:
        """The generator's state; assigning a saved state rewinds the stream to it."""
        return self._gen.bit_generator.state

    @state.setter
    def state(self, value: dict):
        self._gen.bit_generator.state = value

    def spawn(self, key: int) -> "Rng":
        """Independent child stream; deterministic in (parent entropy, key)."""
        return Rng(self._entropy + (int(key),))

    def uniform(self, low: float = -1.0, high: float = 1.0, size=None):
        if size is None and type(low) is type(high) is float:
            span = high - low
            if 0.0 <= span < math.inf:
                # numpy's own random_uniform formula, so the bits of Generator.uniform;
                # a negative or non-finite span falls through to its error below
                return low + span * self._gen.random()
        return self._gen.uniform(low, high, size)

    def gaussian(self, size=None):
        return self._gen.standard_normal(size)

    def student_t(self, df: float, size=None):
        return self._gen.standard_t(df, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def sphere(self, d: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^d (normalized gaussian)."""
        v, n = self.sphere_draw(d)
        return v / n

    def sphere_draw(self, d: int) -> tuple[np.ndarray, float]:
        """The draw behind :meth:`sphere`: a standard gaussian d-vector and its norm, redrawn while that is <= 1e-12."""
        while True:
            v = self._gen.standard_normal(d)
            n = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a 1-d float vector
            if n > 1e-12:
                return v, n
