import dataclasses

import numpy as np
import pytest

from optbench import claims
from optbench.core import Box, FullSpace, Rng, RunStatus, Simplex, UnboundedSetError, make_problem
from optbench.frankwolfe import FwConfig, ShortStep, fw_gap, run_fw
from optbench.bench import fit_rate


def test_iterates_stay_feasible():
    oracle, fset = make_problem("fw_box")
    tr = run_fw(oracle, fset, np.array([1.0, 1.0]), FwConfig(N=100), record_x=True)
    for r in tr.rows:
        assert np.linalg.norm(fset.project(r.x) - r.x) <= 1e-12


def test_classic_rate_bound_fw_box():
    oracle, fset = make_problem("fw_box")
    tr = run_fw(oracle, fset, np.array([1.0, 1.0]), FwConfig(N=500))
    for r in tr.rows:
        if 2 <= r.iter <= 500:
            assert r.f_gap <= claims.frank_wolfe_gap(oracle.L, fset.diameter, r.iter) + 1e-12


def test_classic_rate_bound_quad_on_simplex():
    a = np.array([0.9, 0.05, 0.05])  # minimizer inside the simplex
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0, 1.0], "shift": a.tolist()})
    fset = Simplex(3)
    tr = run_fw(oracle, fset, np.array([1 / 3, 1 / 3, 1 / 3]), FwConfig(N=500))
    for r in tr.rows:
        if 2 <= r.iter <= 500:
            assert r.f_gap <= claims.frank_wolfe_gap(oracle.L, fset.diameter, r.iter) + 1e-12


def test_linear_objective_hits_vertex_after_first_step():
    from optbench.core import OracleSuite
    c = np.array([3.0, 1.0, 2.0])
    oracle = OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(),
                         grad=lambda x: c.copy(), dim=3, fstar=1.0,
                         xstar=np.array([0.0, 1.0, 0.0]), L=1e-12)
    tr = run_fw(oracle, Simplex(3), np.full(3, 1 / 3), FwConfig(N=3), record_x=True)
    np.testing.assert_allclose(tr.rows[1].x, [0.0, 1.0, 0.0])  # gamma_1 = 1 jumps to the vertex
    assert tr.rows[1].f_gap == pytest.approx(0.0, abs=1e-15)


def test_short_step_one_shot_exact_minimizer():
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    cfg = FwConfig(N=2, step_rule=ShortStep(L=1.0))
    tr = run_fw(oracle, box, np.array([1.0, 1.0]), cfg, record_x=True)
    assert tr.rows[0].step_size == pytest.approx(0.5)  # gamma = min{4/8, 1}
    np.testing.assert_allclose(tr.x_out, np.zeros(2), atol=1e-15)


def test_short_step_saturation_halves_gap():
    # constrained minimum at the corner (1, 1); the step saturates at 1
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0], "shift": [3.0, 3.0]})
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    fstar_box = oracle.value(np.array([1.0, 1.0]))
    x0 = np.array([-1.0, -1.0])
    cfg = FwConfig(N=2, step_rule=ShortStep(L=1.0))
    tr = run_fw(oracle, box, x0, cfg, record_x=True)
    assert tr.rows[0].step_size == 1.0
    d2 = float(np.dot(np.array([2.0, 2.0]), np.array([2.0, 2.0])))
    gap0 = oracle.value(x0) - fstar_box
    assert (tr.f_out - fstar_box) <= 0.5 * min(1.0 * d2, gap0) + 1e-12


def test_short_step_gamma_always_in_unit_interval():
    oracle, fset = make_problem("fw_box")
    cfg = FwConfig(N=200, step_rule=ShortStep())
    tr = run_fw(oracle, fset, np.array([1.0, 1.0]), cfg)
    for r in tr.rows[:-1]:
        assert 0.0 <= r.step_size <= 1.0


def test_short_step_interior_minimum_geometric():
    a = np.array([0.2, 0.3])  # strictly inside the box
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0], "shift": a.tolist()})
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    # 13 steps take the gap from ~1 to ~1e-14; longer runs sit on the float
    # floor and would flatten the fit window
    tr = run_fw(oracle, box, np.array([1.0, -1.0]), FwConfig(N=13, step_rule=ShortStep(L=1.0)))
    fit = fit_rate(tr, "geometric", window=1.0)
    assert fit.estimate < 0.5
    assert fit.r_squared >= 0.9


def test_fw_gap_examples():
    oracle, fset = make_problem("fw_box")
    assert fw_gap(oracle, fset, np.array([1.0, 1.0])) == pytest.approx(8.0)

    # at an interior minimizer the gradient is zero, gap is zero with the
    # canonical LMO point
    oracle0, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert fw_gap(oracle0, box, np.zeros(2)) == 0.0


def test_fw_gap_upper_bounds_true_gap():
    oracle, fset = make_problem("fw_box")
    rng = Rng(12)
    for _ in range(1000):
        x = fset.project(rng.gaussian(2) * 2)
        assert fw_gap(oracle, fset, x) >= oracle.value(x) - oracle.fstar - 1e-12


def test_fw_input_validation():
    oracle, fset = make_problem("fw_box")
    with pytest.raises(ValueError, match="feasible"):
        run_fw(oracle, fset, np.array([2.0, 2.0]), FwConfig(N=10))
    with pytest.raises(UnboundedSetError):
        run_fw(oracle, FullSpace(2), np.zeros(2), FwConfig(N=10))


def test_fw_short_step_without_L_refuses_with_the_problem_readers_text():
    oracle, box = make_problem("fw_box")
    with pytest.raises(ValueError, match="^L not given and unknown for this problem$"):
        run_fw(dataclasses.replace(oracle, L=None), box, np.ones(2), FwConfig(N=5, step_rule=ShortStep()))


def test_fw_gap_stopping():
    oracle, fset = make_problem("fw_box")
    tr = run_fw(oracle, fset, np.array([1.0, 1.0]), FwConfig(N=100000, tol=1e-3))
    assert tr.status is RunStatus.CONVERGED
    assert fw_gap(oracle, fset, tr.x_out) <= 1e-3
