import numpy as np
import pytest

from optbench.core import CountingOracle, OracleBudgetError, RunStatus, TraceRecorder, make_problem

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


def test_close_keeps_an_existing_row():
    _, ctr, rec = recorder()
    rec.record(2, X, 7.0, grad_norm=1.0, step_size=0.5)
    trace = rec.close(2, X, RunStatus.BUDGET_EXHAUSTED, f_value=9.0, grad_norm=3.0)
    assert ctr.calls == 0 and len(trace.rows) == 1
    assert (trace.final.f_value, trace.final.grad_norm, trace.final.step_size) == (7.0, 1.0, 0.5)
    assert trace.f_out == 7.0


def test_close_evaluates_outside_an_exhausted_budget():
    oracle, ctr, rec = recorder(max_calls=1)
    rec.record(0, X)
    x_out = np.array([0.5, 0.5])
    trace = rec.close(3, X, RunStatus.BUDGET_EXHAUSTED, x_out)
    assert [r.iter for r in trace.rows] == [0, 3]
    assert trace.final.oracle_calls == 2 and ctr.calls == 3
    assert trace.final.f_value == oracle.value(X) and trace.f_out == oracle.value(x_out)
    assert np.array_equal(trace.x_out, x_out)
