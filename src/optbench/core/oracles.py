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

:func:`run_steps` is the loop of every method but the switching schemes:
it owns the run's counter and recorder, its budget, its stops and its
divergence test, and calls the method's step once per iteration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import norm


class OracleBudgetError(RuntimeError):
    """Raised when a call would exceed the run's oracle-call budget."""


class ZeroSubgradientError(RuntimeError):
    """A zero subgradient was returned away from the optimum."""


class UnsupportedProblemError(TypeError):
    """The oracle lacks a structure required by the method."""


@dataclass(frozen=True)
class QuadraticForm:
    """Structure access for f(x) = 0.5 x'Ax - b'x (+ const): A-products and b."""

    matvec: Callable[[np.ndarray], np.ndarray]
    b: np.ndarray


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

    def zo_value_or_exact(self, x: np.ndarray, rng) -> float:
        if self.zo_value is not None:
            return float(self.zo_value(x, rng))
        return float(self.value(x))


class CountingOracle:
    """Per-run view of a suite that counts oracle calls and enforces a budget.

    ``value_final`` is exempt from the budget.  Only :class:`TraceRecorder`
    calls it, to evaluate a run's terminal row and its reported point, so
    a run's total never exceeds the budget by more than those two
    evaluations.
    """

    def __init__(self, suite: OracleSuite, max_calls: Optional[int] = None):
        self.suite = suite
        self.max_calls = max_calls
        self.calls = 0

    def _tick(self):
        if self.max_calls is not None and self.calls >= self.max_calls:
            raise OracleBudgetError(f"oracle budget of {self.max_calls} calls exhausted")
        self.calls += 1

    def has_room(self, n: int) -> bool:
        """Whether ``n`` more budgeted calls fit in the budget."""
        return self.max_calls is None or self.calls + n <= self.max_calls

    def count_extra(self):
        """Count one oracle access made outside the suite's entries (e.g. an A-product)."""
        self._tick()

    def value(self, x) -> float:
        self._tick()
        return float(self.suite.value(x))

    def value_final(self, x) -> float:
        self.calls += 1
        return float(self.suite.value(x))

    def subgrad(self, x) -> np.ndarray:
        self._tick()
        return np.asarray(self.suite.subgrad(x), dtype=float)

    def grad(self, x) -> np.ndarray:
        if self.suite.grad is None:
            raise UnsupportedProblemError("oracle has no gradient entry")
        self._tick()
        return np.asarray(self.suite.grad(x), dtype=float)

    def stoch_grad(self, x, rng) -> np.ndarray:
        if self.suite.stoch_grad is None:
            raise UnsupportedProblemError("oracle has no stochastic gradient entry")
        self._tick()
        return np.asarray(self.suite.stoch_grad(x, rng), dtype=float)

    def zo_value(self, x, rng) -> float:
        self._tick()
        return self.suite.zo_value_or_exact(x, rng)

    def constraint_value(self, x) -> float:
        self._tick()
        return float(self.suite.constraint.value(x))

    def constraint_subgrad(self, x) -> np.ndarray:
        self._tick()
        return np.asarray(self.suite.constraint.subgrad(x), dtype=float)


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


class TraceRecorder:
    """Accumulates trace rows for one run; the only code that evaluates f for a row.

    Rows are kept every ``record_every`` iterations; the first and the
    terminal row are always kept.  Each row appends one entry to every
    column of :data:`TRACE_FIELDS`.  A due row without a given ``f_value``
    is evaluated through the run's counter and charged to its budget,
    like any other call.  :meth:`close` writes the terminal row and ends
    the run.  ``f_gap`` is filled from the suite's known optimal value
    and ``dist_to_opt`` from its minimizer set.
    """

    def __init__(self, suite: OracleSuite, counter: CountingOracle,
                 record_every: int = 1, record_x: bool = False):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        self.suite = suite
        self.counter = counter
        self.record_every = record_every
        self.record_x = record_x
        self.columns: dict[str, list] = {name: [] for name in TRACE_FIELDS}
        self._columns = tuple(self.columns.values())

    def due(self, it: int) -> bool:
        return it % self.record_every == 0

    def record(self, it: int, x: np.ndarray, f_value: Optional[float] = None,
               grad_norm: Optional[float] = None, step_size: float = 0.0,
               tag: Optional[str] = None, force: bool = False):
        if not (force or self.due(it)):
            return
        iters, f_values, f_gaps, dists, grad_norms, steps, calls, xs, tags = self._columns
        if iters and iters[-1] == it:
            return
        if f_value is None:
            f_value = self.counter.value(x)
        f_value = float(f_value)
        fstar = self.suite.fstar
        iters.append(it)
        f_values.append(f_value)
        f_gaps.append(None if fstar is None else f_value - fstar)
        dists.append(self.suite.dist_to_opt(x))
        grad_norms.append(None if grad_norm is None else float(grad_norm))
        steps.append(float(step_size))
        calls.append(self.counter.calls)
        xs.append(np.array(x, dtype=float) if self.record_x else None)
        tags.append(tag)

    def close(self, it: int, x: np.ndarray, status: RunStatus,
              x_out: Optional[np.ndarray] = None, *, f_value: Optional[float] = None,
              grad_norm: Optional[float] = None) -> Trace:
        """Record the terminal row at iteration ``it`` and return the trace.

        An existing row ``it`` is kept.  Otherwise the row carries
        ``f_value`` and ``grad_norm`` when the run knows them, and ``f(x)``
        is evaluated with ``value_final`` when it does not.  The reported
        point is ``x``, or ``x_out`` (an average, an auxiliary sequence, a
        best iterate) evaluated with ``value_final`` after the terminal row.
        """
        iters = self.columns["iter"]
        if iters and iters[-1] == it:
            f_end = self.columns["f_value"][-1]
        else:
            f_end = self.counter.value_final(x) if f_value is None else f_value
            self.record(it, x, f_end, grad_norm=grad_norm, force=True)
        if x_out is not None:
            x, f_end = x_out, self.counter.value_final(x_out)
        return Trace(status=status, x_out=np.array(x, dtype=float), f_out=float(f_end),
                     columns=self.columns)


class Stop(Exception):
    """Raised by a :func:`run_steps` step to end the run at its iterate, with the terminal row's known values."""

    def __init__(self, status: RunStatus, f_value: Optional[float] = None, grad_norm: Optional[float] = None):
        super().__init__(status)
        self.status, self.f_value, self.grad_norm = status, f_value, grad_norm


def run_steps(oracle: OracleSuite, x0: np.ndarray, N: int, step: Callable, *, record_every: int,
              record_x: bool, max_oracle_calls: Optional[int], first: int = 0,
              divergence_radius: Optional[float] = None, reported: Optional[Callable] = None) -> Trace:
    """Run iterations ``first .. N-1`` of ``step`` from ``x0`` and return the trace.

    ``step(ctr, k, x)`` makes iteration k's oracle calls through ``ctr`` and
    returns ``(x_next, f, g, h)``: the next iterate, ``f(x)`` if the step
    computed it (else None), the vector whose norm row k records as
    ``grad_norm``, and the step size.  Row k is written at ``x`` when due,
    after the step's calls.  The run ends as a :class:`Stop` the step raises
    says, at ``x``; as ``diverged`` once ``||x_next - x0||`` is not
    ``<= divergence_radius`` (NaN and inf iterates fail the test too); and
    as ``budget_exhausted`` when a call would exceed ``max_oracle_calls``
    (at ``x``) or after iteration ``N-1``.  The reported point is
    ``reported()`` when that is given and not None, else the last iterate.
    """
    ctr = CountingOracle(oracle, max_oracle_calls)
    rec = TraceRecorder(oracle, ctr, record_every, record_x)
    x, k = x0, first
    status, f_value, grad_norm = RunStatus.BUDGET_EXHAUSTED, None, None
    try:
        while k < N:
            x_next, f, g, h = step(ctr, k, x)
            if k % record_every == 0:  # rec.due(k), inlined: it is tested on every iteration
                rec.record(k, x, f, grad_norm=norm(g), step_size=h)
            x = x_next
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
