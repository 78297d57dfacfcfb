"""Oracle bundles, call counting and run traces.

An :class:`OracleSuite` packages everything a method may ask about an
objective: values, a subgradient selection, the gradient when it exists,
a stochastic gradient, a (possibly noisy) zeroth-order value, plus the
analytically known constants of the instance (Lipschitz constants, the
gradient-domination constant, the optimal value and a minimizer).

Suites are treated as immutable after construction.  Runs that need
randomness receive their own :class:`~optbench.core.rng.Rng`, and every
run wraps the suite in its own :class:`CountingOracle`, so concurrent
runs over one suite never interfere.

:func:`run_steps` is the loop of every method: it owns the run's
counter and recorder, its budget, its stops and its divergence test, and
calls the method's step once per iteration.  Given the run's feasible
set, it also prepares the start point and projects each step's point,
so a step returns its raw next point, what row k records, and the row's
tag.  :func:`grad_or_stop` is the gradient-norm stop that the fixed-step
and momentum methods share.
"""

from __future__ import annotations

import enum
import functools
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import SCREEN_MAX_DIM, norm, row_dots
from .sets import FeasibleSet, FullSpace


class OracleBudgetError(RuntimeError):
    """Raised when a call would exceed the run's oracle-call budget."""


class ZeroSubgradientError(RuntimeError):
    """A zero subgradient was returned away from the optimum."""


class UnsupportedProblemError(TypeError):
    """The oracle lacks a structure required by the method."""


def _quiet_norm(v) -> float:
    """``norm(v)``'s bits; unlike ``dot``, ``vdot`` does not warn when the squares overflow (a diverged iterate)."""
    return math.sqrt(np.vdot(v, v))


@dataclass(frozen=True)
class QuadraticForm:
    """Structure access for f(x) = 0.5 x'Ax - b'x (+ const): A-products."""

    matvec: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ConstraintOracle:
    """Functional constraint g(x) <= 0 with a subgradient selection and Lipschitz bound."""

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    lipschitz: Optional[float] = None


@dataclass(frozen=True)
class OracleSuite:
    """An objective's oracle entries and known constants.

    ``value`` and ``dist_fn`` are pure functions of x: a caller may
    evaluate them at any time after x is made, and a trace row's f and
    distance are evaluated with the row's block (see
    :class:`TraceRecorder`).  A ``rows`` attribute on ``value`` declares
    only that ``value.rows(X)`` gives the values of the rows of a float64
    ``(n, d)`` array in one call, with the bits of a per-row call;
    :func:`values_at` is its one reader.
    """

    value: Callable[[np.ndarray], float]
    subgrad: Callable[[np.ndarray], np.ndarray]
    dim: int
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    stoch_grad: Optional[Callable[[np.ndarray, object], np.ndarray]] = None
    zo_value: Optional[Callable[[np.ndarray, object], float]] = None
    fstar: Optional[float] = None
    xstar: Optional[np.ndarray] = None
    minimizers: Optional[Sequence[np.ndarray]] = None
    dist_fn: Optional[Callable[[np.ndarray], float]] = None
    L: Optional[float] = None
    M: Optional[float] = None
    mu: Optional[float] = None
    alpha_sharp: Optional[float] = None
    constraint: Optional[ConstraintOracle] = None
    quadratic: Optional[QuadraticForm] = None
    x0: Optional[np.ndarray] = None  # a catalog instance's documented start

    def dist_to_opt(self, x: np.ndarray) -> Optional[float]:
        """Distance to the known minimizer set, None when unknown."""
        if self.dist_fn is not None:
            return float(self.dist_fn(x))
        if self.minimizers is not None:
            return min(_quiet_norm(x - m) for m in self.minimizers)
        if self.xstar is not None:
            return _quiet_norm(x - self.xstar)
        return None

    def constant(self, name: str, given: Optional[float] = None, key: Optional[str] = None) -> float:
        """``given``, else this problem's ``name`` (``L``, ``mu``, ``M``, ``fstar`` or ``alpha_sharp``), as a float.

        The one reader of a constant a method's config leaves out: the
        registry's builders call it when a config is parsed, the entry
        points once more for configs built by hand.  When neither is
        known, the error names ``key``, the config key that gives the
        constant (by default ``name``).
        """
        value = getattr(self, name) if given is None else given
        if value is None:
            raise ValueError(f"{key or name} not given and unknown for this problem")
        return float(value)


class CountingOracle:
    """Per-run view of a suite that counts oracle calls and enforces a budget; the only code that changes ``calls``.

    Each counted call is one Python frame: the suite's entries are looked
    up once, at construction, and the budget test is inlined.  A call
    refuses a missing entry with :class:`UnsupportedProblemError` before
    it counts, and a call that finds ``calls >= max_calls`` raises
    :class:`OracleBudgetError` without calling the suite.

    An array entry's result is returned as the suite's entry gave it when
    that is already a float64 array, not copied.  A run's recorder holds
    the iterates and gradients of its pending trace rows until it derives
    their columns, so an entry must not change an array it returned
    afterwards: the catalog's entries return a fresh array on every call,
    or a read-only one (``slp``'s constant gradient and constraint rows).
    """

    def __init__(self, suite: OracleSuite, max_calls: Optional[int] = None):
        self.suite = suite
        self.max_calls = max_calls
        self.calls = 0
        # no budget: a cap no run reaches; an int compares with calls faster than math.inf
        self._cap = sys.maxsize if max_calls is None else max_calls
        constraint = suite.constraint
        self._value, self._subgrad, self._grad = suite.value, suite.subgrad, suite.grad
        self._stoch_grad, self._zo_value = suite.stoch_grad, suite.zo_value
        self._g_value = None if constraint is None else constraint.value
        self._g_subgrad = None if constraint is None else constraint.subgrad

    def _exhausted(self):
        raise OracleBudgetError(f"oracle budget of {self.max_calls} calls exhausted")

    def has_room(self, n: int) -> bool:
        """Whether ``n`` more budgeted calls fit in the budget."""
        return self.calls + n <= self._cap

    def count_extra(self):
        """Count one access outside the suite's entries (an A-product, a row's f made with its block, an SGD draw)."""
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1

    def charge(self, n: int):
        """Count ``n`` accesses outside the suite's entries, all or none (a zeroth-order batch drawn ahead)."""
        if self.calls + n > self._cap:
            self._exhausted()
        self.calls += n

    def count_unbudgeted(self):
        """Count one access outside the budget: a value :meth:`TraceRecorder.close` needs after the run."""
        self.calls += 1

    def value(self, x) -> float:
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return float(self._value(x))

    def subgrad(self, x) -> np.ndarray:
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return np.asarray(self._subgrad(x), dtype=float)

    def grad(self, x) -> np.ndarray:
        fn = self._grad
        if fn is None:
            raise UnsupportedProblemError("oracle has no gradient entry")
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return np.asarray(fn(x), dtype=float)

    def stoch_grad(self, x, rng) -> np.ndarray:
        fn = self._stoch_grad
        if fn is None:
            raise UnsupportedProblemError("oracle has no stochastic gradient entry")
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return np.asarray(fn(x, rng), dtype=float)

    def zo_value(self, x, rng) -> float:
        """The suite's ``zo_value(x, rng)``, or its exact ``value(x)`` when it has no zeroth-order entry."""
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        fn = self._zo_value
        return float(self._value(x) if fn is None else fn(x, rng))

    def constraint_value(self, x) -> float:
        fn = self._g_value
        if fn is None:
            raise UnsupportedProblemError("oracle has no constraint")
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return float(fn(x))

    def constraint_subgrad(self, x) -> np.ndarray:
        fn = self._g_subgrad
        if fn is None:
            raise UnsupportedProblemError("oracle has no constraint")
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return np.asarray(fn(x), dtype=float)


class RunStatus(enum.Enum):
    CONVERGED = "converged"
    BUDGET_EXHAUSTED = "budget_exhausted"
    EARLY_STOPPED = "early_stopped"
    DIVERGED = "diverged"


@dataclass
class TraceRow:
    iter: int
    f_value: float
    f_gap: Optional[float]
    dist_to_opt: Optional[float]
    grad_norm: Optional[float]
    step_size: float
    oracle_calls: int
    x: Optional[np.ndarray] = None
    tag: Optional[str] = None


TRACE_FIELDS = tuple(f.name for f in fields(TraceRow))


class Trace:
    """A run's trace rows, stored one list per :class:`TraceRow` field, and how it ended.

    ``columns`` maps each name of :data:`TRACE_FIELDS` to a list with one
    entry per row; ``x`` and ``tag`` hold ``None`` on rows without them.
    :attr:`rows` builds the row objects on first access and caches them;
    :attr:`final` reads the last entry of each column.  A trace is built
    either from its ``columns`` (what :class:`TraceRecorder` does) or from
    a list of ``rows``.
    """

    def __init__(self, rows: Optional[list[TraceRow]] = None, status: Optional[RunStatus] = None,
                 x_out: Optional[np.ndarray] = None, f_out: Optional[float] = None, *,
                 columns: Optional[dict[str, list]] = None):
        if columns is None:
            self.rows = list(rows or ())
            columns = {name: [getattr(r, name) for r in self.rows] for name in TRACE_FIELDS}
        self.columns = columns
        self.status = status
        self.x_out = x_out
        self.f_out = f_out

    @functools.cached_property
    def rows(self) -> list[TraceRow]:
        return [TraceRow(*values) for values in zip(*(self.columns[n] for n in TRACE_FIELDS))]

    @property
    def final(self) -> TraceRow:
        return TraceRow(*(self.columns[n][-1] for n in TRACE_FIELDS))


ROW_BLOCK = 512
"""The trace rows a :class:`TraceRecorder` keeps raw before it derives their columns in one pass."""


def values_at(value: Callable[[np.ndarray], float], X) -> np.ndarray:
    """``value`` at each point of ``X`` (a float64 ``(n, d)`` array, or a sequence of points), as a float64 array.

    One ``value.rows`` call where ``value`` has that attribute, else one
    ``value`` call per point, in order, on the points as given; either way
    with the bits of per-point calls (see :class:`OracleSuite`).
    """
    rows = getattr(value, "rows", None)
    if rows is None:
        return np.array([float(value(x)) for x in X])
    return rows(np.asarray(X, dtype=float))


def _row_norms(V) -> np.ndarray:
    """``||V[i]||`` of each row of a float64 ``(n, d)`` array, with the bits of :func:`norm` on the row."""
    return np.sqrt(row_dots(V, V))


class TraceRecorder:
    """Accumulates trace rows for one run; the only code that evaluates f for a row.

    Rows are kept every ``record_every`` iterations; the first and the
    terminal row are always kept.  When a row is recorded, the recorder
    charges a due row without a given ``f_value`` to the run's counter and
    its budget, like any other call, reads ``counter.calls``, and keeps
    the row's parts raw, the iterate and the step's gradient by
    reference.  :meth:`close` writes the terminal row and ends the run.

    Everything computed from x is computed with the row's block, when the
    block is derived: up to :data:`ROW_BLOCK` rows at once, when the block
    fills, at :meth:`close` and when :attr:`columns` is read.  The f of
    every row that needs it comes from one :func:`values_at` call, and a
    suite's ``dist_fn`` is called once per row; both run outside the
    block's ``errstate``, so an overflow in either warns (or raises under
    a warnings filter) as a per-row call would.  The other columns are
    computed as arrays with the bits of the row's own arithmetic:
    ``grad_norm`` as ``norm(g)``, and ``dist_to_opt``, without a
    ``dist_fn``, as the first least of the norms of ``x - m`` over the
    minimizer set in its order, or ``{xstar}`` (a NaN first stays, a later
    one is passed over, as Python's ``min`` does); ``f_gap`` is
    ``float(f) - fstar``.  The iterates are stacked at most once per
    block, where ``record_x``, the distances or ``values_at`` need them.
    The norms and distances are computed under
    ``np.errstate(over="ignore", invalid="ignore")``: an overflowing norm
    or distance shows in its column as inf, with no warning from the block
    (nor an exception from a warnings filter set to ``"error"``).  ``columns`` maps each name of
    :data:`TRACE_FIELDS` to a list with one entry per row.
    """

    def __init__(self, suite: OracleSuite, counter: CountingOracle,
                 record_every: int = 1, record_x: bool = False):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.suite = suite
        self.counter = counter
        self.record_every = record_every
        self.record_x = record_x
        self._columns: dict[str, list] = {name: [] for name in TRACE_FIELDS}
        # one (it, x, f, g, grad_norm, step_size, calls, tag) per row not yet derived; f is None
        # on a row whose f is evaluated with its block, g on a row whose grad_norm is given (or None)
        self._pending: list[tuple] = []

    @property
    def columns(self) -> dict[str, list]:
        self._derive()
        return self._columns

    def due(self, it: int) -> bool:
        return it % self.record_every == 0

    def record(self, it: int, x: np.ndarray, f_value: Optional[float] = None,
               grad_norm: Optional[float] = None, step_size: float = 0.0,
               tag: Optional[str] = None):
        """Record row ``it`` at ``x`` when it is due, with its ``grad_norm`` given (or None)."""
        if self.due(it):
            self.record_step(it, x, f_value, None, step_size, tag, grad_norm)

    def record_step(self, it: int, x: np.ndarray, f_value: Optional[float], g: Optional[np.ndarray],
                    step_size: float, tag: Optional[str], grad_norm: Optional[float] = None):
        """Record row ``it``, due: its ``grad_norm`` is the norm of ``g``, or the one given when ``g`` is None.

        :func:`run_steps` writes its rows with the step's ``g``.
        """
        if f_value is None:
            self.counter.count_extra()  # charged now, as a value call would be; f is evaluated with the block
        pending = self._pending
        pending.append((it, x, f_value, g, grad_norm if grad_norm is None else float(grad_norm), step_size,
                        self.counter.calls, tag))
        if len(pending) == ROW_BLOCK:
            self._derive()

    def _derive(self):
        """Append the pending rows to :attr:`columns`, with everything computed from their iterates."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        n = len(pending)
        its, xs, fs, gs, grad_norms, steps, calls, tags = zip(*pending)
        suite = self.suite
        dist_fn, minimizers = suite.dist_fn, suite.minimizers
        if minimizers is None and suite.xstar is not None:
            minimizers = (suite.xstar,)
        X = np.array(xs, dtype=float) if self.record_x or (dist_fn is None and minimizers is not None) else None
        # f and dist_fn run outside the errstate below: an overflow in either warns as a per-row call does
        deferred = [i for i, f in enumerate(fs) if f is None]
        if deferred:
            points = [xs[i] for i in deferred] if X is None else X[deferred]
            F = iter(values_at(suite.value, points).tolist())
            fs = [next(F) if f is None else f for f in fs]
        dists = [None] * n if dist_fn is None else [float(dist_fn(x)) for x in xs]
        with np.errstate(over="ignore", invalid="ignore"):
            given = [g for g in gs if g is not None]
            if given:
                V = iter(_row_norms(np.array(given, dtype=float)).tolist())
                grad_norms = [v if g is None else next(V) for g, v in zip(gs, grad_norms)]
            if dist_fn is None and minimizers is not None:
                best = None
                for m in minimizers:
                    dist = _row_norms(X - m)
                    best = dist if best is None else np.where(dist < best, dist, best)  # NaN < v is False
                dists = best.tolist()
        f_values, fstar = list(map(float, fs)), suite.fstar
        c = self._columns
        c["iter"].extend(its)
        c["f_value"].extend(f_values)
        c["f_gap"].extend([None] * n if fstar is None else [f - fstar for f in f_values])
        c["dist_to_opt"].extend(dists)
        c["grad_norm"].extend(grad_norms)
        c["step_size"].extend(map(float, steps))
        c["oracle_calls"].extend(calls)
        c["x"].extend(X if self.record_x else [None] * n)
        c["tag"].extend(tags)

    def close(self, it: int, x: np.ndarray, status: RunStatus,
              x_out: Optional[np.ndarray] = None, *, f_value: Optional[float] = None,
              grad_norm: Optional[float] = None) -> Trace:
        """Record the terminal row at iteration ``it``, derive the pending rows and return the trace.

        The row carries ``f_value`` and ``grad_norm`` when the run knows
        them; when it does not know f, the row is charged outside the budget
        (so a run's total exceeds its budget by at most this charge and the
        reported point's) and its f is evaluated with its block.  The
        reported point is ``x``, or ``x_out`` (an average, an auxiliary
        sequence, a best iterate).  An ``x_out`` with the bytes of ``x``
        reuses the row's f; another is charged outside the budget too and
        evaluated after the row.  Bytes, not values: ``-0.0 == 0.0``, but f
        may tell the two apart.
        """
        if f_value is None:
            self.counter.count_unbudgeted()
        self._pending.append((it, x, f_value, None, grad_norm if grad_norm is None else float(grad_norm), 0.0,
                              self.counter.calls, None))
        columns = self.columns
        f_out = columns["f_value"][-1]
        if x_out is not None and x_out.tobytes() != x.tobytes():
            self.counter.count_unbudgeted()
            x, f_out = x_out, float(self.suite.value(x_out))
        return Trace(status=status, x_out=np.array(x, dtype=float), f_out=f_out, columns=columns)


class Stop(Exception):
    """Raised by a :func:`run_steps` step to end the run at its iterate, with the terminal row's known values."""

    def __init__(self, status: RunStatus, f_value: Optional[float] = None, grad_norm: Optional[float] = None):
        super().__init__(status)
        self.status, self.f_value, self.grad_norm = status, f_value, grad_norm


def grad_or_stop(ctr: CountingOracle, x: np.ndarray, tol: float, status: RunStatus) -> np.ndarray:
    """The gradient at ``x``; its norm stops the run as diverged when not finite, as ``status`` when ``<= tol``.

    The norm judged is ``norm(g)``, and a :class:`Stop` carries its bits.
    A screen on Python floats passes a ``g`` of at most
    :data:`~optbench.core.linalg.SCREEN_MAX_DIM` entries on without it:
    when ``math.hypot`` of its entries lies strictly inside
    ``(max(tol * (1 + 1e-9), 1e-150), 1e150)``.  In that window the sum
    of squares ``norm`` takes neither overflows nor underflows, and its
    rounding (under ``(d/2 + 2) * 2**-53`` relative) stays far inside the
    1e-9 margin, so ``norm(g)`` is finite and ``> tol`` there too.  Every
    other norm (near ``tol``, tiny, huge, NaN or inf), and every longer
    ``g``, goes to the exact test.
    """
    g = ctr.grad(x)
    if len(g) <= SCREEN_MAX_DIM:
        screened = math.hypot(*g.tolist())
        if 1e-150 < screened < 1e150 and screened > tol * (1 + 1e-9):
            return g
    gn = norm(g)
    if not math.isfinite(gn):
        raise Stop(RunStatus.DIVERGED)
    if gn <= tol:
        raise Stop(status, grad_norm=gn)
    return g


def run_steps(oracle: OracleSuite, x0, N: int, step: Callable, *, record_every: int,
              record_x: bool, max_oracle_calls: Optional[int], first: int = 0,
              divergence_radius: Optional[float] = None, reported: Optional[Callable] = None,
              average_from: Optional[int] = None, fset: Optional[FeasibleSet] = None) -> Trace:
    """Run iterations ``first .. N-1`` of ``step`` from ``x0`` and return the trace.

    The run starts at ``fset.project(x0)``, or at ``x0`` as a float array
    when no set is given.  ``step(ctr, k, x)`` makes iteration k's oracle
    calls through ``ctr`` and returns ``(x_next, f, g, h, tag)``: the next
    point before projection, ``f(x)`` if the step computed it (else None),
    the vector whose norm row k records as ``grad_norm``, the step size,
    and the row's tag (or None).  Row k is recorded at ``x`` when due,
    after the step's calls: its f evaluation is charged and its call count
    read then, and everything computed from ``x`` when the recorder
    derives its block (see :class:`TraceRecorder`).  Until then the
    recorder holds ``x`` and ``g`` themselves, so a step must not change
    an iterate or a gradient in place once it has returned it; none does.
    The next iterate is ``fset.project(x_next)``, or ``x_next`` itself
    without a set or on ``FullSpace``.  The run ends as a :class:`Stop`
    the step raises says, at ``x``; as ``diverged`` once ``norm(x - x0)``
    is not ``<= divergence_radius`` (NaN and inf iterates fail the test
    too); and as ``budget_exhausted`` when a call would exceed
    ``max_oracle_calls`` (at ``x``) or after iteration ``N-1``, and as
    ``diverged`` instead when that ``x`` is not finite.
    From iteration ``average_from`` on (None: none) the run adds ``x`` to a
    running sum from zeros before each step, a fresh add (numpy's in-place
    add of a 1-element array is about 2x slower), and reports the mean of
    the iterates added; else ``reported()`` when given and not None, else
    the last iterate.

    The distance test is screened on Python floats when the start has at
    most :data:`~optbench.core.linalg.SCREEN_MAX_DIM` entries (decided once
    per run): an iterate passes without ``norm(x - x0)`` when
    ``math.dist`` of it and the start lies inside
    ``(1e-150, min(divergence_radius * (1 - 1e-9), 1e150)]``.  Both take
    the same rounded differences; in that window their sum of squares
    neither overflows nor underflows, and ``norm``'s rounding (under
    ``(d/2 + 2) * 2**-53`` relative) stays far inside the 1e-9 margin, so
    ``norm(x - x0) <= divergence_radius`` holds there too.  Every other
    distance (near the radius, tiny, huge, NaN or inf) goes to the exact
    test, and so does every distance of a longer run.  The floor guards a
    tiny radius: below it a square can be subnormal, and a subnormal
    square can round up, so ``norm`` of a difference ``(1.99e-162, 0)``
    is ``2.22e-162`` and a radius between the two must end the run.
    """
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    record = rec.record_step
    x0 = np.array(x0, dtype=float) if fset is None else fset.project(x0)
    project = None if fset is None or isinstance(fset, FullSpace) else fset.project
    x, k = x0, first
    # the screen and its upper end: see the docstring
    screened, start = x0.size <= SCREEN_MAX_DIM, x0.tolist()
    screen = None if divergence_radius is None else min(divergence_radius * (1 - 1e-9), 1e150)
    status, f_value, grad_norm = RunStatus.BUDGET_EXHAUSTED, None, None
    avg_from = N if average_from is None else average_from
    avg_sum, avg_n = np.zeros(oracle.dim), 0
    try:
        while k < N:
            if k >= avg_from:
                avg_sum = avg_sum + x
                avg_n += 1
            x_next, f, g, h, tag = step(ctr, k, x)
            if k % record_every == 0:  # rec.due(k), inlined: it is tested on every iteration
                record(k, x, f, g, h, tag)
            x = x_next if project is None else project(x_next)
            k += 1
            if divergence_radius is not None and not (screened and 1e-150 < math.dist(x.tolist(), start) <= screen
                                                      or _quiet_norm(x - x0) <= divergence_radius):
                status = RunStatus.DIVERGED
                break
    except Stop as stop:
        status, f_value, grad_norm = stop.status, stop.f_value, stop.grad_norm
    except OracleBudgetError:
        pass
    if status is RunStatus.BUDGET_EXHAUSTED and not np.isfinite(x).all():
        status = RunStatus.DIVERGED
    x_out = avg_sum / avg_n if avg_n else None if reported is None else reported()
    return rec.close(k, x, status, x_out, f_value=f_value, grad_norm=grad_norm)
