"""Seeded random number generation.

A thin wrapper around numpy's PCG64 generator that fixes the draw
conventions used throughout the library: uniform on [-1, 1], standard
gaussians, and uniform points on the unit Euclidean sphere (normalized
gaussian vectors), one at a time or a block of draws at a time.
Identical seeds always yield identical streams.  An :class:`Rng` builds
its generator on its first draw (or read of its state), so a run that
draws nothing never imports ``numpy.random``; a test may assign
``rng._gen`` to stand a stub in for the generator.  A stub must pass
``bit_generator`` through to the generator it stands in for: the state
is read and set there, and :meth:`Rng.raw_samples` draws its raw words
there.

This module owns drawing ahead.  :class:`Cursor` draws a stream ahead
of its uses, a chunk at a time, and puts back what a chunk's uses leave;
:func:`chunk_uses` sizes a chunk from a budget of values:
:data:`BLOCK_VALUES` for :meth:`Rng.spheres` and ``run_sgd``'s noise
rows, :data:`ZO_CHUNK_VALUES` for the kernel estimator's samples, which
:meth:`Rng.raw_samples` draws.  :func:`unit_rows` turns gaussian rows
into sphere points, for :meth:`Rng.spheres` and for the estimator's
directions, and :func:`random_of` turns raw words into
``Generator.random()`` draws.

Derived streams are produced with :meth:`Rng.spawn`, which appends an
integer key to the entropy sequence of the parent.  Two spawns with
different keys are statistically independent, and the mapping
``(seed, key) -> stream`` is stable, so replica seeds in Monte-Carlo
code are reproducible regardless of execution order.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .linalg import row_dots

# A gaussian draw whose norm is at most this is redrawn before it is scaled onto the sphere.
SPHERE_MIN_NORM = 1e-12
# The values of one block draw (Rng.spheres, run_sgd's noise rows): 4 KB of float64.
BLOCK_VALUES = 512
# The raw values of one chunk of the kernel estimator's samples: 32 KB of float64.  Rng.spheres and run_sgd keep
# BLOCK_VALUES: at 4096 averaged-SGD replicas ran no faster.
ZO_CHUNK_VALUES = 4096


def unit_rows(raw):
    """``(units, kept)``: each row of a float64 ``(n, d)`` gaussian block over its norm, and which rows to keep.

    A unit row has the bits of :meth:`Rng.sphere`'s ``v / sqrt(v.dot(v))``; a row whose
    norm is at most :data:`SPHERE_MIN_NORM`, which :meth:`Rng.sphere` redraws, is not
    kept.  The rows of ``raw`` must each be contiguous.
    """
    norms = np.sqrt(row_dots(raw, raw))
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero row is not kept
        units = raw / norms[:, None]
    return units, norms > SPHERE_MIN_NORM


def random_of(words):
    """The ``Generator.random()`` draws that consume the raw 64-bit words ``words`` (a uint64 array).

    numpy's ``next_double`` for PCG64, ``(w >> 11) * 2**-53``: the shift
    keeps 53 bits, which convert to float64 exactly, and the scaling by a
    power of two is exact too, so each draw has the bits of the
    ``random()`` call that would have consumed its word.
    """
    return (words >> 11) * 2.0 ** -53


def uniform_of(u):
    """numpy's uniform formula ``low + (high - low) * u`` on [-1, 1] for a ``Generator.random()`` draw ``u``.

    Elementwise on an array of draws, with the bits of one scalar
    ``uniform(-1.0, 1.0)`` call per draw (``high - low`` is 2.0 exactly).
    """
    return -1.0 + 2.0 * u


def chunk_uses(budget: int, width: int) -> int:
    """The uses of ``width`` values each that one chunk of ``budget`` values holds, and at least one."""
    return max(1, budget // width)


class Cursor:
    """A stream drawn ahead of its uses, a chunk at a time, with what a chunk's uses leave put back.

    ``fill(n)`` draws the values of n uses from ``rng`` in the order n
    separate uses would draw them (numpy fills a block in call order).
    :meth:`take` draws the next chunk.  :meth:`keep` ends the chunk after
    its first n uses: it sets ``rng`` back to the chunk's start and draws
    those n again, which leaves the stream where n separate uses leave it,
    or does nothing when n is the whole chunk.  So a caller that sizes its
    last chunk to the uses it has left, and keeps the uses made whenever
    it stops early, leaves ``rng`` where drawing per use does.  Between a
    chunk's :meth:`take` and :meth:`keep` nothing else may draw from
    ``rng``.
    """

    __slots__ = ("_rng", "_fill", "_start", "_size")

    def __init__(self, rng: Rng, fill):
        self._rng, self._fill, self._start, self._size = rng, fill, None, 0

    def take(self, n: int):
        """``fill(n)``: the next chunk, of n uses."""
        self._start, self._size = self._rng.state, n
        return self._fill(n)

    def keep(self, n: int):
        """End the chunk after its first n uses, n at most the chunk's."""
        if n < self._size:
            self._rng.state = self._start
            self._fill(n)
        self._size = n


class Rng:
    """Deterministic random source backed by ``numpy.random.PCG64``."""

    def __init__(self, seed):
        if isinstance(seed, tuple):
            self._entropy = seed
        else:
            self._entropy = (int(seed),)
        if any(operator.index(e) < 0 for e in self._entropy):  # what SeedSequence refuses
            raise ValueError(f"seed entropy must be non-negative integers, got {self._entropy}")

    @functools.cached_property
    def _gen(self):
        """The PCG64 generator of the stream, built on first use and then read as a plain instance attribute.

        So an ``Rng`` that never draws builds nothing and does not import
        ``numpy.random``.  Assigning ``rng._gen`` puts another generator
        (a test's stub, say) in its place, built or not.
        """
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(self._entropy)))

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
        return self._gen.uniform(low, high, size)

    def gaussian(self, size=None):
        return self._gen.standard_normal(size)

    def student_t(self, df: float, size=None):
        return self._gen.standard_t(df, size)

    def integers(self, low: int, high: int, size=None):
        return self._gen.integers(low, high, size=size)

    def sphere(self, d: int) -> np.ndarray:
        """Uniform point on the unit sphere in R^d, d >= 1: a standard gaussian d-vector over its norm.

        A draw of norm at most :data:`SPHERE_MIN_NORM` is redrawn.
        """
        if d < 1:
            raise ValueError(f"the unit sphere needs d >= 1, got {d}")
        while True:
            v = self._gen.standard_normal(d)
            n = math.sqrt(v.dot(v))  # what np.linalg.norm computes for a 1-d float vector
            if n > SPHERE_MIN_NORM:
                return v / n

    def spheres(self, d: int):
        """An iterator over the points of successive :meth:`sphere` calls, bit for bit, drawn a block at a time.

        A block is one ``standard_normal((n, d))`` fill,
        ``n = chunk_uses(BLOCK_VALUES, d)``, which numpy fills in the order of
        n ``sphere(d)`` draws.  A row that :func:`unit_rows` does not keep
        is skipped, where :meth:`sphere` would redraw.  The stream runs
        ahead of the points taken by at most one block, so only a caller
        that draws nothing else from this ``Rng`` may use it.
        """
        if d < 1:
            raise ValueError(f"the unit sphere needs d >= 1, got {d}")
        return self._sphere_rows(d, chunk_uses(BLOCK_VALUES, d))

    def raw_samples(self, n: int, width: int):
        """``(words, raw)``: the raw draws of n samples, each one raw 64-bit word and then one gaussian row.

        Per sample: one ``bit_generator.random_raw()`` word, the word that a
        ``random()`` call would consume (:func:`random_of` turns it into
        that call's draw), then one ``standard_normal`` fill of a ``width``
        row of ``raw``.  ``words`` is a uint64 array.
        """
        gen = self._gen
        word, normal = gen.bit_generator.random_raw, gen.standard_normal
        raw = np.empty((n, width))
        words = []
        for row in raw:
            words.append(word())
            normal(out=row)
        return np.array(words, dtype=np.uint64), raw

    def _sphere_rows(self, d: int, n: int):
        while True:
            units, kept = unit_rows(self._gen.standard_normal((n, d)))
            for keep, row in zip(kept.tolist(), units):
                if keep:
                    yield row
