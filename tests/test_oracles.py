import dataclasses
import math
import struct
import warnings
import weakref

import numpy as np
import pytest

from optbench.core import (Box, ConstraintOracle, CountingOracle, FullSpace, OracleBudgetError, OracleSuite, RunStatus,
                           TraceRecorder, UnsupportedProblemError, make_problem)
from optbench.core.linalg import norm
from optbench.core.oracles import ROW_BLOCK, Stop, run_steps

X = np.array([1.0, -1.0])


def recorder(record_every=1, max_calls=None):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2, 1]})
    ctr = CountingOracle(oracle, max_calls)
    return oracle, ctr, TraceRecorder(oracle, ctr, record_every)


def test_constant_is_the_given_value_else_the_problems():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2, 1]})  # L = 2, mu = 1, no M
    assert (oracle.constant("L"), oracle.constant("L", 3), oracle.constant("M", 0.5)) == (2.0, 3.0, 0.5)
    assert type(oracle.constant("mu", np.float64(0.25))) is float
    with pytest.raises(ValueError, match="^M not given and unknown for this problem$"):
        oracle.constant("M")


def test_record_evaluates_due_rows_only():
    oracle, ctr, rec = recorder(record_every=3)
    for it in range(6):
        rec.record(it, X, step_size=0.1)
    assert ctr.calls == 2
    assert list(zip(rec.columns["iter"], rec.columns["oracle_calls"])) == [(0, 1), (3, 2)]
    assert rec.columns["f_value"][0] == oracle.value(X)


def test_record_evaluation_is_charged_to_the_budget():
    _, ctr, rec = recorder(max_calls=1)
    rec.record(0, X)
    with pytest.raises(OracleBudgetError):
        rec.record(1, X)
    assert ctr.calls == 1 and len(rec.columns["iter"]) == 1


def test_close_writes_a_given_terminal_row_without_an_oracle_call():
    _, ctr, rec = recorder()
    trace = rec.close(4, X, RunStatus.CONVERGED, f_value=2.5, grad_norm=0.125)
    assert ctr.calls == 0
    row = trace.final
    assert (row.iter, row.f_value, row.grad_norm, row.step_size, row.oracle_calls) == (4, 2.5, 0.125, 0.0, 0)
    assert trace.status is RunStatus.CONVERGED and trace.f_out == 2.5
    assert np.array_equal(trace.x_out, X)


def test_close_evaluates_a_reported_point_unless_it_has_the_terminal_row_bytes():
    at = np.array([0.0, 1.0])
    for x_out, calls in ((at.copy(), 1), (np.array([-0.0, 1.0]), 2)):  # -0.0 == 0.0, but its bytes differ
        _, ctr, rec = recorder()
        trace = rec.close(3, at, RunStatus.BUDGET_EXHAUSTED, x_out)
        assert ctr.calls == calls and trace.columns["iter"] == [3]
        assert trace.x_out.tobytes() == x_out.tobytes() and trace.f_out == trace.final.f_value


def test_close_evaluates_outside_an_exhausted_budget():
    oracle, ctr, rec = recorder(max_calls=1)
    rec.record(0, X)
    x_out = np.array([0.5, 0.5])
    trace = rec.close(3, X, RunStatus.BUDGET_EXHAUSTED, x_out)
    assert [r.iter for r in trace.rows] == [0, 3]
    assert trace.final.oracle_calls == 2 and ctr.calls == 3
    assert trace.final.f_value == oracle.value(X) and trace.f_out == oracle.value(x_out)
    assert np.array_equal(trace.x_out, x_out)


# -- block-derived trace columns ---------------------------------------------------------

SPECIALS = (0.0, -0.0, 5e-324, -1e200, math.inf, -math.inf, math.nan)
DISTANCE_KINDS = ("xstar", "minimizers-nan-first", "minimizers-nan-second", "dist_fn", "unknown")


def distance_suite(kind, d):
    """A d-dim suite whose rows take ``dist_to_opt`` as ``kind`` says; "unknown" has no distance and no f*.

    The minimizer sets hold (inf, ..., inf), from which an iterate with a
    +inf entry is at distance NaN, first or second, and ``xstar`` twice,
    whose distances tie.
    """
    xstar = np.linspace(-1.0, 2.0, d)
    far = np.full(d, math.inf)
    keys = {"xstar": {}, "minimizers-nan-first": {"minimizers": (far, xstar, xstar.copy())},
            "minimizers-nan-second": {"minimizers": (xstar, far, xstar.copy())},
            "dist_fn": {"dist_fn": lambda x: float(np.abs(x).max())}}
    if kind == "unknown":
        return OracleSuite(value=lambda x: float(x.sum()), subgrad=lambda x: np.ones(d), dim=d)
    return OracleSuite(value=lambda x: float(x.sum()), subgrad=lambda x: np.ones(d), dim=d, fstar=-0.75,
                       xstar=xstar, **keys[kind])


def special_rows(rng, n, d):
    """``(n, d)`` floats at scales from 1e-300 to 1e150, about one entry in five from ``SPECIALS``."""
    v = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-300, 150, (n, d))
    mask = rng.random((n, d)) < 0.2
    v[mask] = rng.choice(SPECIALS, mask.sum())
    return v


def scripted_run(suite, rows, max_calls=None, seed=0):
    """``run_steps`` of ``rows - 1`` iterations through ``special_rows`` iterates, gradients and values.

    Each step counts one call; every third row has no f from its step,
    so its f is evaluated.  Returns the trace, and the gradient and the f
    (or None) of each step.
    """
    rng = np.random.default_rng(seed)
    xs, gs = special_rows(rng, rows, suite.dim), special_rows(rng, rows, suite.dim)
    fs = [None if k % 3 == 0 else float(f) for k, f in enumerate(special_rows(rng, rows, 1)[:, 0])]

    def step(ctr, k, x):
        ctr.count_extra()
        return xs[k + 1].copy(), fs[k], gs[k].copy(), 0.5, None
    with np.errstate(all="ignore"):
        trace = run_steps(suite, xs[0], rows - 1, step, record_every=1, record_x=True, max_oracle_calls=max_calls)
    return trace, gs, fs


def bits(v):
    return None if v is None else (type(v), struct.pack("<d", v))


def column_bits(trace):
    """Each column of ``trace``, its floats as :func:`bits` and its arrays as bytes."""
    return {name: [v.tobytes() if isinstance(v, np.ndarray) else bits(v) if isinstance(v, float) else v
                   for v in column] for name, column in trace.columns.items()}


def assert_columns_match_per_row_arithmetic(suite, trace, gs, fs):
    """Each row's f_value, f_gap, dist_to_opt and grad_norm as the row's own arithmetic gives them, bit for bit."""
    c = trace.columns
    last = len(c["iter"]) - 1
    assert c["iter"] == list(range(last + 1))  # record_every 1: every iteration has its row
    with np.errstate(all="ignore"):
        for k, x in enumerate(c["x"]):
            f = fs[k] if k < last and fs[k] is not None else suite.value(x)
            expected = (f, None if suite.fstar is None else f - suite.fstar, suite.dist_to_opt(x),
                        norm(gs[k]) if k < last else None)
            got = (c["f_value"][k], c["f_gap"][k], c["dist_to_opt"][k], c["grad_norm"][k])
            assert list(map(bits, got)) == list(map(bits, expected)), k


@pytest.mark.parametrize("rows", [511, ROW_BLOCK, 513, 1025])
@pytest.mark.parametrize("d", [1, 2, 3, 10])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_block_derived_columns_have_the_bits_of_per_row_arithmetic(kind, d, rows):
    suite = distance_suite(kind, d)
    trace, gs, fs = scripted_run(suite, rows, seed=rows + d)
    assert len(trace.columns["iter"]) == rows
    assert_columns_match_per_row_arithmetic(suite, trace, gs, fs)
    if kind.startswith("minimizers"):  # the cases the minimum's order decides are there
        nans = [math.isnan(v) for v in trace.columns["dist_to_opt"]]
        assert any(nans) and not all(nans)


def test_minimizer_distance_keeps_a_nan_first_and_passes_over_a_later_one():
    far, origin, x = np.array([math.inf, 0.0]), np.zeros(2), np.array([math.inf, 0.0])  # x - far is (NaN, 0)
    cases = [((far, origin), x, math.nan), ((origin, far), x, math.inf),
             ((np.array([1.0, 0.0]), np.array([-1.0, 0.0])), np.array([0.0, 3.0]), math.sqrt(10.0))]  # a tie
    for minimizers, at, expected in cases:
        suite = OracleSuite(value=lambda x: 0.0, subgrad=lambda x: x, dim=2, minimizers=minimizers)
        rec = TraceRecorder(suite, CountingOracle(suite))
        with np.errstate(invalid="ignore"):
            rec.record(0, at, 0.0)
            got = rec.columns["dist_to_opt"][0]
            assert bits(got) == bits(suite.dist_to_opt(at))
        assert got == expected or math.isnan(got) and math.isnan(expected)


@pytest.mark.parametrize("budget", [300, 2 * ROW_BLOCK - 2, 2 * ROW_BLOCK, 1200])
def test_rows_pending_at_a_budget_cut_are_derived(budget):
    suite = distance_suite("minimizers-nan-second", 2)
    trace, gs, fs = scripted_run(suite, 1025, max_calls=budget)
    finite = np.isfinite(trace.columns["x"][-1]).all()
    assert finite == (budget != 2 * ROW_BLOCK - 2)  # that cut leaves a scripted last iterate not finite
    assert trace.status is (RunStatus.BUDGET_EXHAUSTED if finite else RunStatus.DIVERGED)
    assert trace.final.iter < 1024
    assert_columns_match_per_row_arithmetic(suite, trace, gs, fs)


def test_a_row_refused_by_the_budget_leaves_the_pending_rows_to_close():
    oracle, ctr, rec = recorder(max_calls=3)
    xs = [X * k for k in range(4)]
    for k in range(3):
        rec.record(k, xs[k], grad_norm=0.5)
    with pytest.raises(OracleBudgetError):
        rec.record(3, xs[3])
    trace = rec.close(3, xs[3], RunStatus.BUDGET_EXHAUSTED)
    assert trace.columns["iter"] == [0, 1, 2, 3] and trace.columns["grad_norm"] == [0.5, 0.5, 0.5, None]
    assert trace.columns["dist_to_opt"] == [oracle.dist_to_opt(x) for x in xs]
    assert trace.columns["f_gap"] == [oracle.value(x) - oracle.fstar for x in xs]


def test_columns_read_between_rows_hold_every_row_once():
    oracle, ctr, rec = recorder()
    xs = [X / (k + 1) for k in range(ROW_BLOCK + 4)]
    for k in range(3):
        rec.record_step(k, xs[k], None, G * k, 0.1, None)
    assert rec.columns["iter"] == [0, 1, 2] and rec.columns["grad_norm"] == [0.0, 5.0, 10.0]
    for k in range(3, ROW_BLOCK + 4):
        rec.record_step(k, xs[k], None, G, 0.1, None)
        if k == ROW_BLOCK + 1:
            assert len(rec.columns["iter"]) == ROW_BLOCK + 2
    trace = rec.close(ROW_BLOCK + 4, X, RunStatus.BUDGET_EXHAUSTED)
    assert trace.columns["iter"] == list(range(ROW_BLOCK + 5))
    assert trace.columns["dist_to_opt"] == [oracle.dist_to_opt(x) for x in xs + [X]]
    assert trace.columns["f_value"] == [oracle.value(x) for x in xs + [X]]


@pytest.mark.parametrize("repeats", [1, 8])  # blocks of 5 and of 33 rows
def test_given_norms_and_step_gradients_share_a_block(repeats):
    _, ctr, rec = recorder()
    for k in range(0, 4 * repeats, 4):
        rec.record(k, X, 1.0)
        rec.record_step(k + 1, X, 1.0, G, 0.1, None)
        rec.record(k + 2, X, 1.0, grad_norm=np.float64(0.5))
        rec.record_step(k + 3, X, 1.0, G / 5, 0.1, None)
    trace = rec.close(4 * repeats, X, RunStatus.CONVERGED, f_value=1.0, grad_norm=0.125)
    expected = [None, 5.0, 0.5, 1.0] * repeats + [0.125]
    assert list(map(bits, trace.columns["grad_norm"])) == list(map(bits, expected))


@pytest.mark.parametrize("rows", [7, 8])
@pytest.mark.parametrize("dim", [1, 2])
def test_a_block_with_overflowing_norms_is_derived_without_warnings(dim, rows):
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0] * dim})
    rec = TraceRecorder(oracle, CountingOracle(oracle))
    big = np.full(dim, 1e200)  # its squared norm overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(rows):
            rec.record_step(k, big, 1.0, big, 0.1, None)
        columns = rec.columns
    assert columns["grad_norm"] == [math.inf] * rows and columns["dist_to_opt"] == [math.inf] * rows


def test_the_recorder_lets_go_of_a_block_once_it_is_derived():
    _, _, rec = recorder()
    refs = []
    for k in range(ROW_BLOCK):
        x, g = X * k, G * k
        refs += [weakref.ref(x), weakref.ref(g)]
        rec.record_step(k, x, 1.0, g, 0.1, None)
        del x, g
        if k == ROW_BLOCK - 2:
            assert all(r() is not None for r in refs)  # pending rows hold their iterate and gradient
    assert all(r() is None for r in refs)  # the full block was derived, and its arrays dropped


# -- run_steps, with a hand-built step ------------------------------------------------

G = np.array([3.0, 4.0])  # every step's recorded vector: grad_norm 5
OUT = np.array([0.25, 0.5])  # a reported point


def halving(stop_at=None, stop=None, to=None, f=None):
    """A step that makes one gradient call, then raises ``stop`` at ``stop_at`` or moves to ``to``
    (by default x/2), returning ``f`` as f(x); ``seen`` logs the iterations it was called with."""
    seen = []

    def step(ctr, k, x):
        seen.append(k)
        ctr.grad(x)
        if k == stop_at:
            raise stop
        return (x / 2 if to is None else to), f, G, 0.25, None
    return step, seen


def drive(step, N=4, record_every=1, max_calls=None, **kw):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2, 1]})
    trace = run_steps(oracle, X, N, step, record_every=record_every, record_x=True,
                      max_oracle_calls=max_calls, **kw)
    return oracle, trace


def reporter():
    """``reported`` for run_steps, logging when it is called."""
    calls = []

    def reported():
        calls.append(1)
        return OUT
    return reported, calls


def test_run_steps_records_due_rows_and_ends_at_n():
    step, seen = halving()
    reported, calls = reporter()
    oracle, trace = drive(step, N=5, record_every=2, reported=reported)
    assert seen == [0, 1, 2, 3, 4] and calls == [1]
    assert trace.status is RunStatus.BUDGET_EXHAUSTED
    assert trace.columns["iter"] == [0, 2, 4, 5]
    assert trace.columns["grad_norm"] == [5.0, 5.0, 5.0, None]
    assert trace.columns["step_size"] == [0.25, 0.25, 0.25, 0.0]
    assert trace.columns["oracle_calls"] == [2, 5, 8, 9]  # a due row's f is a charged call
    for it, x in zip(trace.columns["iter"], trace.columns["x"]):
        assert np.array_equal(x, X / 2 ** it)  # row k is written at x^k, not at the next iterate
    assert np.array_equal(trace.x_out, OUT) and trace.f_out == oracle.value(OUT)


def test_run_steps_rows_take_the_value_the_step_computed():
    _, trace = drive(halving(f=7.0)[0], N=3)
    assert trace.columns["f_value"][:3] == [7.0, 7.0, 7.0]
    assert trace.columns["oracle_calls"] == [1, 2, 3, 4]  # the terminal row alone costs a value call


def test_run_steps_counts_from_first():
    step, seen = halving()
    _, trace = drive(step, N=4, first=1)
    assert seen == [1, 2, 3]
    assert trace.columns["iter"] == [1, 2, 3, 4]
    assert np.array_equal(trace.x_out, X / 8)


@pytest.mark.parametrize("status", list(RunStatus))
def test_run_steps_stop_ends_the_run_as_it_says(status):
    step, seen = halving(stop_at=2, stop=Stop(status, f_value=2.5, grad_norm=0.125))
    reported, calls = reporter()
    _, trace = drive(step, N=10, max_calls=100, divergence_radius=1e6, reported=reported)
    assert seen == [0, 1, 2] and calls == [1]
    assert trace.status is status
    row = trace.final
    assert (row.iter, row.f_value, row.grad_norm, row.step_size, row.oracle_calls) == (2, 2.5, 0.125, 0.0, 5)
    assert np.array_equal(row.x, X / 4)  # the stop's iterate
    assert np.array_equal(trace.x_out, OUT)


def test_run_steps_stop_without_values_evaluates_the_terminal_row():
    step, _ = halving(stop_at=1, stop=Stop(RunStatus.CONVERGED))
    oracle, trace = drive(step, record_every=5)
    row = trace.final
    assert trace.status is RunStatus.CONVERGED
    assert (row.iter, row.f_value, row.grad_norm, row.oracle_calls) == (1, oracle.value(X / 2), None, 4)
    assert np.array_equal(trace.x_out, X / 2)


def test_run_steps_budget_cut_inside_the_step():
    step, seen = halving()
    reported, calls = reporter()
    oracle, trace = drive(step, N=10, record_every=11, max_calls=4, reported=reported)
    assert seen == [0, 1, 2, 3] and calls == [1]
    assert trace.status is RunStatus.BUDGET_EXHAUSTED
    assert trace.columns["iter"] == [0, 3]
    assert trace.final.oracle_calls == 5  # 4 budgeted calls (row 0's f among them), then the terminal row's
    assert np.array_equal(trace.final.x, X / 8)  # the iterate the cut step started from
    assert np.array_equal(trace.x_out, OUT) and trace.f_out == oracle.value(OUT)


def test_run_steps_budget_cut_inside_the_row_evaluation():
    step, seen = halving()
    reported, calls = reporter()
    oracle, trace = drive(step, N=10, max_calls=3, reported=reported)
    assert seen == [0, 1] and calls == [1]  # iteration 1's row could not pay for its f
    assert trace.status is RunStatus.BUDGET_EXHAUSTED
    assert trace.columns["iter"] == [0, 1]
    assert trace.columns["grad_norm"] == [5.0, None]
    assert trace.final.oracle_calls == 4 and trace.final.f_value == oracle.value(X / 2)
    assert np.array_equal(trace.x_out, OUT)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("bad", [[np.nan, 0.0], [np.inf, 0.0], [1e200, 1e200]], ids=["nan", "inf", "overflow"])
def test_run_steps_radius_stops_non_finite_and_overflowing_iterates(bad):
    bad = np.array(bad)
    step, seen = halving(to=bad)
    reported, calls = reporter()
    _, trace = drive(step, N=10, divergence_radius=1e300, reported=reported)
    assert seen == [0] and calls == [1]
    assert trace.status is RunStatus.DIVERGED
    assert trace.columns["iter"] == [0, 1]
    assert np.array_equal(trace.final.x, bad, equal_nan=True)
    assert np.array_equal(trace.x_out, OUT)


def test_run_steps_radius_is_inclusive_and_optional():
    edge = X + np.array([3.0, 4.0])  # at distance 5 from the start
    _, trace = drive(halving(to=edge)[0], divergence_radius=5.0)
    assert trace.status is RunStatus.BUDGET_EXHAUSTED and trace.final.iter == 4
    _, trace = drive(halving(to=edge)[0], N=1, divergence_radius=4.9)  # the last step's iterate is tested too
    assert trace.status is RunStatus.DIVERGED and trace.final.iter == 1
    _, trace = drive(halving(to=np.array([np.nan, 0.0]))[0])  # no radius: a last iterate not finite ends it diverged
    assert trace.status is RunStatus.DIVERGED and trace.final.iter == 4


def test_run_steps_reports_the_last_iterate_when_reported_gives_none():
    oracle, trace = drive(halving()[0], reported=lambda: None)
    assert np.array_equal(trace.x_out, X / 16) and trace.f_out == oracle.value(X / 16)


def test_run_steps_projects_the_start_and_each_step_onto_its_set():
    box = Box(np.array([-0.5, -0.5]), np.array([0.5, 0.5]))
    step, seen = halving(to=np.array([0.25, 2.0]))
    _, trace = drive(step, fset=box)
    assert seen == [0, 1, 2, 3]
    assert [x.tolist() for x in trace.columns["x"]] == [[0.5, -0.5]] + [[0.25, 0.5]] * 4


def test_run_steps_takes_the_step_point_as_it_is_without_a_set_or_on_full_space():
    for fset in (None, FullSpace(2)):
        given, out = [], []

        def step(ctr, k, x):
            given.append(x)
            out.append(x + 1.0)
            return out[-1], 0.0, G, 0.25, None
        drive(step, N=3, fset=fset)
        assert given[0].tolist() == X.tolist() and given[0] is not X
        assert given[1] is out[0] and given[2] is out[1]


# -- f evaluated with its block -------------------------------------------------------

# problem -> params of each catalog problem whose value has a row-batched ``rows``
ROW_BATCHED = {"quad_diag": {"lambdas": [2, 1], "shift": [0.5, -1.0]}, "degenerate3": {},
               "norm2": {"a": [0.5, -1.0, 2.0]}, "slp": {}}


def subgrad_step(ctr, k, x):
    """One subgradient call; on every third iteration also a value call, whose f the row takes."""
    g = ctr.subgrad(x)
    return x - 0.05 * g, ctr.value(x) if k % 3 == 1 else None, g, 0.05, None


def row_charge(k, every):
    """The call number of row k's f charge under :func:`subgrad_step`; row k is due and takes no step f."""
    calls = 0
    for j in range(k + 1):
        calls += 1 + (j % 3 == 1) + (j % every == 0 and j % 3 != 1)
    return calls


# (record_every, row k, iterations, start): row 512 opens the second block; 1, 3 and 4 iterations leave 1, 2
# and 3 rows whose f is evaluated with the block, below ROWS_CALL_MIN, from starts whose f or steps overflow
@pytest.mark.parametrize("every, k, N, start", [
    (1, 512, 1100, None), (1, 600, 1100, None), (7, 560, 1100, None), (1, 0, 1, [-0.0, 1e200, 5e-324]),
    (1, 2, 3, [math.inf, -0.0, 1.0]), (1, 3, 4, [1e155, -1e155, 0.0]), (1, 3, 4, [-0.0, 0.0, -0.0])])
@pytest.mark.parametrize("problem", ROW_BATCHED)
def test_rows_evaluated_with_their_block_equal_rows_evaluated_one_by_one(problem, every, k, N, start):
    suite, _ = make_problem(problem, ROW_BATCHED[problem])
    value = suite.value
    per_row = dataclasses.replace(suite, value=lambda x: value(x))  # no rows: one value call per row
    x0 = np.linspace(1.0, -2.0, suite.dim) + 0.3 if start is None else np.resize(np.array(start), suite.dim)
    charge = row_charge(k, every)
    for budget in (None, charge - 1, charge):  # the cut refuses row k's charge, or the next call after it
        with np.errstate(all="ignore"):
            traces = [run_steps(s, x0, N, subgrad_step, record_every=every, record_x=True, max_oracle_calls=budget)
                      for s in (suite, per_row)]
        got, want = ((t.status, t.x_out.tobytes(), bits(t.f_out), column_bits(t)) for t in traces)
        assert got == want, budget
        if budget is not None:  # the run ends at row k when its charge is refused, else at the next iteration
            assert traces[0].columns["iter"][-1] == (k if budget < charge else k + 1)


def test_a_suite_without_rows_is_charged_per_row_and_evaluated_with_the_block():
    seen = []

    def value(x):
        seen.append(x)
        return float(x.sum())
    suite = OracleSuite(value=value, subgrad=lambda x: x, dim=2)
    ctr = CountingOracle(suite)
    rec = TraceRecorder(suite, ctr)
    xs = [np.array([k, 0.5]) for k in range(3)]
    for k in range(3):
        rec.record(k, xs[k])
    assert ctr.calls == 3 and seen == []  # charged when recorded, not yet evaluated
    assert rec.columns["f_value"] == [0.5, 1.5, 2.5] and rec.columns["oracle_calls"] == [1, 2, 3]
    assert len(seen) == 3 and all(x is y for x, y in zip(seen, xs))


@pytest.mark.parametrize("every, N, blocks, calls", [
    (1, 1024, [512, 512], 1), (1, 1029, [512, 512], 6), (1, 1030, [512, 512, 6], 1), (7, 1024, [147], 1)])
def test_value_rows_is_called_once_per_block_of_due_rows(every, N, blocks, calls):
    base, _ = make_problem("quad_diag", {"lambdas": [2, 1]})
    values, sizes = [], []

    def value(x):
        values.append(1)
        return base.value(x)

    def rows(X):
        sizes.append(len(X))
        return base.value.rows(X)
    value.rows = rows
    trace = run_steps(dataclasses.replace(base, value=value), X, N, halving()[0], record_every=every,
                      record_x=True, max_oracle_calls=None)
    # a last block of 5 rows is evaluated row by row (ROWS_CALL_MIN); else the terminal row alone is
    assert sizes == blocks and len(values) == calls
    assert trace.columns["f_value"] == [base.value(x) for x in trace.columns["x"]]


# -- CountingOracle's counted entries --------------------------------------------------


def spied_suite(seen, *, grad=True, stoch_grad=True, zo_value=True, constraint=True):
    """A 2-d suite whose entries log their name in ``seen``; the ``False`` ones are left out."""
    def entry(name, out):
        def fn(*args):
            seen.append(name)
            return out
        return fn

    return OracleSuite(
        value=entry("value", 2.0), subgrad=entry("subgrad", G), dim=2,
        grad=entry("grad", G) if grad else None,
        stoch_grad=entry("stoch_grad", G) if stoch_grad else None,
        zo_value=entry("zo_value", 3.0) if zo_value else None,
        constraint=ConstraintOracle(entry("g_value", -1.0), entry("g_subgrad", G)) if constraint else None)


# entry -> (the suite entry a call reaches, what the call returns, the suite flag that leaves it out)
COUNTED = {
    "value": ("value", 2.0, None),
    "grad": ("grad", G, "grad"),
    "subgrad": ("subgrad", G, None),
    "stoch_grad": ("stoch_grad", G, "stoch_grad"),
    "zo_value": ("zo_value", 3.0, None),
    "zo_value-exact": ("value", 2.0, None),  # a suite without a zeroth-order entry answers with its value
    "constraint_value": ("g_value", -1.0, "constraint"),
    "constraint_subgrad": ("g_subgrad", G, "constraint"),
    "count_extra": (None, None, None),
}


def counted_call(ctr, name):
    method = name.split("-")[0]
    args = (X, None) if method in ("stoch_grad", "zo_value") else () if method == "count_extra" else (X,)
    return getattr(ctr, method)(*args)


@pytest.mark.parametrize("name", COUNTED)
def test_each_counted_entry_counts_once_and_stops_at_the_cap(name):
    reached, out, _ = COUNTED[name]
    seen = []
    ctr = CountingOracle(spied_suite(seen, zo_value=name != "zo_value-exact"), max_calls=2)
    for n in (1, 2):
        got = counted_call(ctr, name)
        assert ctr.calls == n and seen == ([reached] * n if reached else [])
        assert np.array_equal(got, out) and type(got) is type(out)
    with pytest.raises(OracleBudgetError, match="budget of 2 calls"):
        counted_call(ctr, name)
    assert ctr.calls == 2 and len(seen) == (2 if reached else 0)  # the suite was not called at the cap
    assert ctr.value_final(X) == 2.0 and ctr.calls == 3  # exempt from the budget


@pytest.mark.parametrize("name", [name for name, (_, _, flag) in COUNTED.items() if flag])
def test_a_missing_entry_is_refused_before_it_is_counted(name):
    seen = []
    ctr = CountingOracle(spied_suite(seen, **{COUNTED[name][2]: False}), max_calls=5)
    with pytest.raises(UnsupportedProblemError):
        counted_call(ctr, name)
    assert ctr.calls == 0 and seen == []


def test_a_catalog_suite_without_a_constraint_refuses_its_calls_uncounted():
    ctr = CountingOracle(make_problem("quad_diag")[0])
    for call in (ctr.constraint_value, ctr.constraint_subgrad):
        with pytest.raises(UnsupportedProblemError, match="no constraint"):
            call(X)
    assert ctr.calls == 0
