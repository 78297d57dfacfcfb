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
import math
import sys
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import norm, row_dots
from .sets import FeasibleSet, FullSpace


class OracleBudgetError(RuntimeError):
    """Raised when a call would exceed the run's oracle-call budget."""


class ZeroSubgradientError(RuntimeError):
    """A zero subgradient was returned away from the optimum."""


class UnsupportedProblemError(TypeError):
    """The oracle lacks a structure required by the method."""


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

    def dist_to_opt(self, x: np.ndarray) -> Optional[float]:
        """Distance to the known minimizer set, None when unknown."""
        if self.dist_fn is not None:
            return float(self.dist_fn(x))
        if self.minimizers is not None:
            return min(norm(x - m) for m in self.minimizers)
        if self.xstar is not None:
            return norm(x - self.xstar)
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
    """Per-run view of a suite that counts oracle calls and enforces a budget.

    Each counted call is one Python frame: the suite's entries are looked
    up once, at construction, and the budget test is inlined.  A call
    refuses a missing entry with :class:`UnsupportedProblemError` before
    it counts, and a call that finds ``calls >= max_calls`` raises
    :class:`OracleBudgetError` without calling the suite.

    ``value_final`` is exempt from the budget.  Only :class:`TraceRecorder`
    calls it, to evaluate a run's terminal row and a reported point other
    than the terminal row's, so a run's total never exceeds the budget by
    more than those two evaluations.

    An array entry's result is returned as the suite's entry gave it when
    that is already a float64 array, not copied.  A run's recorder holds
    the iterates and gradients of its pending trace rows until it derives
    their columns, so an entry must not change an array it returned
    afterwards (the catalog's entries return a fresh array on every call).
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
        """Count one oracle access made outside the suite's entries (an A-product, a row's f made with its block)."""
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1

    def value(self, x) -> float:
        if self.calls >= self._cap:
            self._exhausted()
        self.calls += 1
        return float(self._value(x))

    def value_final(self, x) -> float:
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
            rows = list(rows or ())
            columns = {name: [getattr(r, name) for r in rows] for name in TRACE_FIELDS}
        self.columns = columns
        self.status = status
        self.x_out = x_out
        self.f_out = f_out
        self._rows = rows

    @property
    def rows(self) -> list[TraceRow]:
        if self._rows is None:
            self._rows = [TraceRow(*values) for values in zip(*(self.columns[n] for n in TRACE_FIELDS))]
        return self._rows

    @property
    def final(self) -> TraceRow:
        return TraceRow(*(self.columns[n][-1] for n in TRACE_FIELDS))


ROW_BLOCK = 512
"""The trace rows a :class:`TraceRecorder` keeps raw before it derives their columns in one pass."""

ROWS_CALL_MIN = 6
"""The fewest deferred rows of a block whose f a :class:`TraceRecorder` evaluates with one ``value.rows`` call.

Below it each such row takes one ``value`` call: stacking the rows and
the array's fixed cost outweigh that many calls.  Timed against each other
(40 runs of each, 2-vCPU x86-64 host), per-row calls took 0.23-0.27 of
the block call's time at 1 row, 0.40-0.46 at 2, 0.56-0.64 at 3,
0.69-0.77 at 4, 0.78-1.03 at 5, 0.85-1.07 at 6, 1.14-1.24 at 8 and
1.31-1.51 at 12 on ``quad_diag`` (d = 2), ``degenerate3`` and ``norm2``
(d = 3), about even at 6; on ``slp`` they stayed faster up to 16 rows
(0.16-0.44).  Both give the bits of a per-row ``value`` call.
"""


def _row_norms(V) -> np.ndarray:
    """``||V[i]||`` of each row of a float64 ``(n, d)`` array, with the bits of :func:`norm` on the row."""
    return np.sqrt(row_dots(V, V))


class TraceRecorder:
    """Accumulates trace rows for one run; the only code that evaluates f for a row.

    Rows are kept every ``record_every`` iterations; the first and the
    terminal row are always kept.  A due row without a given ``f_value``
    is charged to the run's counter and its budget when it is recorded,
    like any other call.  :meth:`close` writes the terminal row and ends
    the run.

    When a row is recorded, the recorder reads ``counter.calls``, calls
    a suite's ``dist_fn(x)`` and evaluates f through the counter, unless
    the suite's ``value`` has a row-batched ``rows`` entry (see
    :mod:`~optbench.core.problems`).  Then f runs with the row's block:
    one ``value.rows`` call for every row of the block that needs it (a
    ``value`` call each below :data:`ROWS_CALL_MIN` such rows),
    outside the block's ``errstate``, so an overflow in f warns (or
    raises under a warnings filter) as a per-row call would, when the
    block is derived.  A ``rows`` entry states that f is a pure function
    of x; a suite without one (a hand-built suite, a wrapper that
    replaces ``value``) keeps the per-row call.  A row's other parts are
    kept raw, the iterate and the step's gradient by reference, and its
    derived columns are computed for up to :data:`ROW_BLOCK` rows at
    once, as arrays, with the bits of the row's own arithmetic:
    ``grad_norm`` as ``norm(g)``, and ``dist_to_opt`` as the norm of
    ``x - xstar`` or, over a minimizer set, the first least of the norms
    of ``x - m`` in the set's order (a NaN first stays, a later one is
    passed over, as Python's ``min`` does); ``f_gap`` is
    ``float(f) - fstar``, as before.  A block is derived when it fills,
    at :meth:`close` and when :attr:`columns` is read, its norms and
    distances under ``np.errstate(over="ignore", invalid="ignore")``: an
    overflowing norm or distance shows in its column as inf, with no
    warning from the block (nor an exception from a warnings filter set to
    ``"error"``).  ``columns`` maps each name of :data:`TRACE_FIELDS` to a
    list with one entry per row.
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
        self._dist_fn = suite.dist_fn
        self._value_rows = getattr(suite.value, "rows", None)
        # one (it, x, f, g, grad_norm, step_size, calls, tag, dist_fn(x) or None) per row not yet derived;
        # f is None on a row whose f is evaluated with its block, g on a row whose grad_norm is given (or None)
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
            if self._value_rows is None:
                f_value = self.counter.value(x)
            else:
                self.counter.count_extra()  # the budget test and count of counter.value(x)
        dist_fn = self._dist_fn
        pending = self._pending
        pending.append((it, x, f_value, g, grad_norm if grad_norm is None else float(grad_norm), step_size,
                        self.counter.calls, tag, None if dist_fn is None else float(dist_fn(x))))
        if len(pending) == ROW_BLOCK:
            self._derive()

    def _derive(self):
        """Append the pending rows to :attr:`columns`, their f values, norms and distances computed as arrays."""
        pending = self._pending
        if not pending:
            return
        self._pending = []
        n = len(pending)
        its, xs, fs, gs, grad_norms, steps, calls, tags, dists = zip(*pending)
        suite, derive_dist = self.suite, self._dist_fn is None
        X = np.array(xs, dtype=float) if self.record_x or derive_dist else None
        deferred = [] if self._value_rows is None else [i for i, f in enumerate(fs) if f is None]
        if deferred:  # outside the errstate below: an overflow in f warns as a per-row call does
            fs = list(fs)
            if len(deferred) < ROWS_CALL_MIN:
                value = suite.value
                for i in deferred:
                    fs[i] = value(xs[i])
            else:
                F = self._value_rows(np.array([xs[i] for i in deferred], dtype=float) if X is None else X[deferred])
                for i, f in zip(deferred, F.tolist()):
                    fs[i] = f
        with np.errstate(over="ignore", invalid="ignore"):
            rows = [i for i, g in enumerate(gs) if g is not None]
            if rows:
                grad_norms = list(grad_norms)
                G = np.array(gs if len(rows) == n else [gs[i] for i in rows], dtype=float)
                for i, v in zip(rows, _row_norms(G).tolist()):
                    grad_norms[i] = v
            if derive_dist and suite.minimizers is not None:
                best = None
                for m in suite.minimizers:
                    dist = _row_norms(X - m)
                    best = dist if best is None else np.where(dist < best, dist, best)  # NaN < v is False
                dists = best.tolist()
            elif derive_dist and suite.xstar is not None:
                dists = _row_norms(X - suite.xstar).tolist()
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
        them, and ``f(x)`` is evaluated with ``value_final`` when it does
        not.  The reported point is ``x``, or ``x_out`` (an average, an
        auxiliary sequence, a best iterate).  An ``x_out`` with the bytes of
        ``x`` reuses the row's f; another is evaluated with ``value_final``
        after the row.  Bytes, not values: ``-0.0 == 0.0``, but f may tell
        the two apart.
        """
        f_end = self.counter.value_final(x) if f_value is None else f_value
        self.record_step(it, x, f_end, None, 0.0, None, grad_norm)
        if x_out is not None and x_out.tobytes() != x.tobytes():
            x, f_end = x_out, self.counter.value_final(x_out)
        return Trace(status=status, x_out=np.array(x, dtype=float), f_out=float(f_end),
                     columns=self.columns)


class Stop(Exception):
    """Raised by a :func:`run_steps` step to end the run at its iterate, with the terminal row's known values."""

    def __init__(self, status: RunStatus, f_value: Optional[float] = None, grad_norm: Optional[float] = None):
        super().__init__(status)
        self.status, self.f_value, self.grad_norm = status, f_value, grad_norm


def grad_or_stop(ctr: CountingOracle, x: np.ndarray, tol: float, status: RunStatus) -> np.ndarray:
    """The gradient at ``x``; its norm stops the run as diverged when not finite, as ``status`` when ``<= tol``."""
    g = ctr.grad(x)
    gn = norm(g)
    if not math.isfinite(gn):
        raise Stop(RunStatus.DIVERGED)
    if gn <= tol:
        raise Stop(status, grad_norm=gn)
    return g


def run_steps(oracle: OracleSuite, x0, N: int, step: Callable, *, record_every: int,
              record_x: bool, max_oracle_calls: Optional[int], first: int = 0,
              divergence_radius: Optional[float] = None, reported: Optional[Callable] = None,
              fset: Optional[FeasibleSet] = None) -> Trace:
    """Run iterations ``first .. N-1`` of ``step`` from ``x0`` and return the trace.

    The run starts at ``fset.project(x0)``, or at ``x0`` as a float array
    when no set is given.  ``step(ctr, k, x)`` makes iteration k's oracle
    calls through ``ctr`` and returns ``(x_next, f, g, h, tag)``: the next
    point before projection, ``f(x)`` if the step computed it (else None),
    the vector whose norm row k records as ``grad_norm``, the step size,
    and the row's tag (or None).  Row k is recorded at ``x`` when due,
    after the step's calls: its f evaluation is charged then, and its call
    count and ``dist_fn`` happen then; its norms and gap, and its f where
    the suite's ``value`` has ``rows``, when the recorder derives its block
    (see :class:`TraceRecorder`).  Until then the recorder holds ``x`` and
    ``g`` themselves, so a step must not change an iterate or a gradient
    in place once it has returned it; none does (the only in-place add in
    a step, ``run_const_subgrad``'s, is to its own running sum).  The next
    iterate is ``fset.project(x_next)``, or
    ``x_next`` itself without a set or on ``FullSpace``.  The run ends as
    a :class:`Stop` the step raises says, at ``x``; as ``diverged`` once
    ``||x_next - x0||`` is not ``<= divergence_radius`` (NaN and inf
    iterates fail the test too); and as ``budget_exhausted`` when a call
    would exceed ``max_oracle_calls`` (at ``x``) or after iteration
    ``N-1``.  The reported point is ``reported()`` when that is given and
    not None, else the last iterate.
    """
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    record = rec.record_step
    x0 = np.array(x0, dtype=float) if fset is None else fset.project(x0)
    project = None if fset is None or isinstance(fset, FullSpace) else fset.project
    x, k = x0, first
    status, f_value, grad_norm = RunStatus.BUDGET_EXHAUSTED, None, None
    try:
        while k < N:
            x_next, f, g, h, tag = step(ctr, k, x)
            if k % record_every == 0:  # rec.due(k), inlined: it is tested on every iteration
                record(k, x, f, g, h, tag)
            x = x_next if project is None else project(x_next)
            k += 1
            if divergence_radius is not None and not norm(x - x0) <= divergence_radius:
                status = RunStatus.DIVERGED
                break
    except Stop as stop:
        status, f_value, grad_norm = stop.status, stop.f_value, stop.grad_norm
    except OracleBudgetError:
        pass
    return rec.close(k, x, status, None if reported is None else reported(),
                     f_value=f_value, grad_norm=grad_norm)
