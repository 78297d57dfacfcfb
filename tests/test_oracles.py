import numpy as np
import pytest

from optbench.core import (Box, ConstraintOracle, CountingOracle, FullSpace, OracleBudgetError, OracleSuite, RunStatus,
                           TraceRecorder, UnsupportedProblemError, make_problem)
from optbench.core.oracles import Stop, run_steps

X = np.array([1.0, -1.0])


def recorder(record_every=1, max_calls=None):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2, 1]})
    ctr = CountingOracle(oracle, max_calls)
    return oracle, ctr, TraceRecorder(oracle, ctr, record_every)


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
    _, trace = drive(halving(to=np.array([np.nan, 0.0]))[0])
    assert trace.status is RunStatus.BUDGET_EXHAUSTED and trace.final.iter == 4


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
