import dataclasses
import math

import numpy as np
import pytest

from optbench import claims
from optbench.core import (
    Box,
    ConstraintOracle,
    FullSpace,
    OracleSuite,
    Rng,
    RunStatus,
    ZeroSubgradientError,
    make_problem,
)
from optbench.subgrad import (
    BudgetStep,
    FixedStep,
    NoProductiveStepsError,
    PolyakStep,
    SubgradConfig,
    SwitchingConfig,
    run_const_subgrad,
    run_polyak_subgrad,
    run_restarted_switching,
    run_switching,
)


def polyak_cfg(n=100, tol=0.0):
    return SubgradConfig(step_rule=PolyakStep(), N=n, tol=tol)


# -- Polyak step ---------------------------------------------------------------

def test_abs1d_one_step():
    oracle, fset = make_problem("abs1d")
    tr = run_polyak_subgrad(oracle, fset, np.array([0.25]), polyak_cfg(), record_x=True)
    assert tr.status is RunStatus.CONVERGED
    assert tr.final.iter == 1  # one step: h = 0.25 lands exactly on 0
    assert tr.rows[0].step_size == pytest.approx(0.25)
    assert tr.x_out[0] == 0.0


def test_polyak_without_fstar_refuses_with_the_problem_readers_text():
    oracle, fset = make_problem("abs1d")
    with pytest.raises(ValueError, match="^fstar not given and unknown for this problem$"):
        run_polyak_subgrad(dataclasses.replace(oracle, fstar=None), fset, np.array([0.25]), polyak_cfg())


def test_abs1d_already_optimal():
    oracle, fset = make_problem("abs1d")
    tr = run_polyak_subgrad(oracle, fset, np.array([0.0]), polyak_cfg())
    assert tr.status is RunStatus.CONVERGED
    assert len(tr.rows) == 1 and tr.final.iter == 0
    assert tr.x_out[0] == 0.0


def test_norm2_one_step():
    oracle, fset = make_problem("norm2", {"d": 3})
    tr = run_polyak_subgrad(oracle, fset, np.array([1.0, 2.0, 2.0]), polyak_cfg())
    assert tr.status is RunStatus.CONVERGED
    assert tr.final.iter == 1
    assert tr.rows[0].step_size == pytest.approx(3.0)  # h = ||x0|| for the unit subgradient
    np.testing.assert_allclose(tr.x_out, np.zeros(3), atol=1e-15)


def test_zero_subgradient_off_optimum_raises():
    # an oracle with an understated f* sees gap > 0 at the kink where the
    # minimal-norm subgradient is 0
    oracle = OracleSuite(value=lambda x: abs(float(x[0])),
                         subgrad=lambda x: np.array([np.sign(x[0])]),
                         dim=1, fstar=-1.0)
    with pytest.raises(ZeroSubgradientError):
        run_polyak_subgrad(oracle, FullSpace(1), np.array([0.0]),
                           SubgradConfig(step_rule=PolyakStep(), N=10))


@pytest.mark.parametrize("name,params,x0", [
    ("abs1d", {}, [0.7]),
    ("norm2", {"d": 3}, [1.0, -2.0, 0.5]),
    ("l1_system", {"d": 4, "m": 7}, None),
    ("quad_diag", {"lambdas": [5.0, 1.0]}, [1.0, -1.0]),
])
def test_fejer_monotonicity(name, params, x0):
    oracle, fset = make_problem(name, params, seed=2)
    start = np.array(x0) if x0 is not None else oracle.xstar + Rng(3).gaussian(oracle.dim)
    tr = run_polyak_subgrad(oracle, fset, start, polyak_cfg(n=60))
    dists = [r.dist_to_opt for r in tr.rows]
    for a, b in zip(dists, dists[1:]):
        assert b <= a * (1 + 1e-12) + 1e-15


@pytest.mark.parametrize("name,params", [
    ("norm2", {"d": 4}),
    ("l1_system", {"d": 5, "m": 8}),
])
def test_sharp_minimum_geometric_rate(name, params):
    oracle, fset = make_problem(name, params, seed=1)
    x0 = oracle.xstar + Rng(4).gaussian(oracle.dim)
    tr = run_polyak_subgrad(oracle, fset, x0, polyak_cfg(n=200))
    d0 = tr.rows[0].dist_to_opt
    for r in tr.rows:
        bound = claims.polyak_sharp_dist2(oracle.alpha_sharp, oracle.M, r.iter, d0)
        assert r.dist_to_opt ** 2 <= bound * (1 + 1e-9) + 1e-300


def test_sqrt_k_gap_trend():
    # finite surrogate of sqrt(k) * gap -> 0: the running minimum keeps
    # strictly improving past k = 10
    oracle, fset = make_problem("l1_system", {"d": 5, "m": 8}, seed=7)
    x0 = oracle.xstar + Rng(5).gaussian(5)
    tr = run_polyak_subgrad(oracle, fset, x0, polyak_cfg(n=400))
    vals = [math.sqrt(r.iter) * r.f_gap for r in tr.rows if r.iter >= 1]
    running = np.minimum.accumulate(vals)
    assert all(b <= a for a, b in zip(running, running[1:]))
    assert running[-1] < running[9] * 0.5 or running[-1] == 0.0


def test_phase_retrieval_local_geometric_rate():
    oracle, fset = make_problem("phase_retrieval", {"m": 25, "n": 5}, seed=1)
    xs, mu = oracle.xstar, oracle.mu
    rng = Rng(42)
    r = 1e-3
    alpha_hat = min(oracle.value(xs + r * rng.sphere(5)) / r for _ in range(300)) * 0.95
    gamma = 0.5
    x0 = xs + gamma * (alpha_hat / mu) * rng.sphere(5)
    tr = run_polyak_subgrad(oracle, fset, x0, polyak_cfg(n=25, tol=1e-14))
    for prev, cur in zip(tr.rows, tr.rows[1:]):
        if prev.grad_norm is None or prev.grad_norm == 0:
            continue
        factor = 1.0 - alpha_hat ** 2 * (1 - gamma) / prev.grad_norm ** 2
        assert cur.dist_to_opt ** 2 <= factor * prev.dist_to_opt ** 2 * (1 + 1e-9) + 1e-300


# -- constant step ----------------------------------------------------------------

def test_two_point_oscillation():
    oracle, fset = make_problem("abs1d")
    cfg = SubgradConfig(step_rule=FixedStep(0.02), N=6)
    tr = run_const_subgrad(oracle, fset, np.array([-0.01]), cfg, record_x=True)
    xs = [r.x[0] for r in tr.rows]
    assert xs == [-0.01, 0.01, -0.01, 0.01, -0.01, 0.01]


def test_budget_step_trace_and_average():
    oracle, fset = make_problem("abs1d")
    cfg = SubgradConfig(step_rule=BudgetStep(M=1.0, R=1.0), N=4, averaging=True)
    tr = run_const_subgrad(oracle, fset, np.array([1.0]), cfg, record_x=True)
    assert [r.x[0] for r in tr.rows] == [1.0, 0.5, 0.0, 0.0]  # 0 picks the kink's 0 subgradient
    assert tr.x_out[0] == pytest.approx(0.375)
    assert tr.f_out <= claims.budget_step_gap(oracle.M, 1.0, 4)


def test_single_iterate_average_is_x0():
    oracle, fset = make_problem("norm2", {"d": 2})
    cfg = SubgradConfig(step_rule=FixedStep(0.5), N=1, averaging=True)
    tr = run_const_subgrad(oracle, fset, np.array([3.0, 4.0]), cfg)
    np.testing.assert_allclose(tr.x_out, [3.0, 4.0])


def test_budget_step_mr_sqrt_n_bound_on_l1_system():
    oracle, fset = make_problem("l1_system", {"d": 4, "m": 6}, seed=9)
    x0 = oracle.xstar + np.full(4, 0.3)
    R = float(np.linalg.norm(x0 - oracle.xstar)) * math.sqrt(2)
    for N in (16, 64, 256):
        cfg = SubgradConfig(step_rule=BudgetStep(M=oracle.M, R=R), N=N, averaging=True)
        tr = run_const_subgrad(oracle, fset, x0, cfg, record_every=N)
        assert tr.f_out - oracle.fstar <= claims.budget_step_gap(oracle.M, R, N) + 1e-12


# -- switching scheme ---------------------------------------------------------------

def test_switching_guarantee_on_slp():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    x0 = np.zeros(2)
    theta0 = float(np.linalg.norm(x0 - oracle.xstar)) / math.sqrt(2) * 1.1
    cfg = SwitchingConfig(delta=0.1, theta0=theta0, max_iters=100000)
    tr = run_switching(oracle, fset, x0, cfg, record_x=True)
    x_hat = tr.x_out
    assert tr.status is RunStatus.CONVERGED
    assert oracle.value(x_hat) - oracle.fstar <= 0.1 + 1e-12
    assert oracle.constraint.value(x_hat) <= 0.1 * 1.0 + 1e-12
    # iteration count within the stated bound (M_f = 1 here)
    assert tr.rows[-1].iter <= math.ceil(2 * theta0 ** 2 * max(1.0, oracle.M ** 2) / 0.1 ** 2)
    # every productive iterate satisfied the constraint gate when stepped from
    for r in tr.rows:
        if r.tag == "productive":
            assert oracle.constraint.value(r.x) <= 0.1 * 1.0 + 1e-12


def test_switching_immediate_stop_at_interior_optimum():
    # objective with zero minimal-norm subgradient at the feasible start
    objective, fset = make_problem("norm2", {"d": 2})
    constraint = ConstraintOracle(value=lambda x: float(x[0]) - 1.0,
                                  subgrad=lambda x: np.array([1.0, 0.0]),
                                  lipschitz=1.0)
    cfg = SwitchingConfig(delta=0.5, theta0=1.0, max_iters=50)
    tr = run_switching(dataclasses.replace(objective, constraint=constraint), fset, np.zeros(2), cfg)
    assert tr.status is RunStatus.CONVERGED
    np.testing.assert_allclose(tr.x_out, np.zeros(2))
    assert tr.rows[0].tag == "productive"


def test_switching_no_productive_steps_error():
    objective, fset = make_problem("norm2", {"d": 2})
    constraint = ConstraintOracle(value=lambda x: 10.0,  # never satisfied
                                  subgrad=lambda x: np.array([1.0, 0.0]),
                                  lipschitz=1.0)
    cfg = SwitchingConfig(delta=1.0, theta0=1.0, max_iters=1000)
    with pytest.raises(NoProductiveStepsError):
        run_switching(dataclasses.replace(objective, constraint=constraint), fset, np.zeros(2), cfg)


def test_switching_cap_gives_partial_result():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(delta=0.01, theta0=5.0, max_iters=20)
    tr = run_switching(oracle, fset, np.zeros(2), cfg)
    assert tr.status is RunStatus.BUDGET_EXHAUSTED
    assert tr.x_out is not None


@pytest.mark.parametrize("budget", [3, 40, 333])
def test_switching_budget_cut_ends_in_a_status(budget):
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(delta=0.035, theta0=1.0, max_iters=5000)
    tr = run_switching(oracle, fset, np.array([0.1, -0.1]), cfg, record_x=True, max_oracle_calls=budget)
    assert tr.status is RunStatus.BUDGET_EXHAUSTED
    # every iteration costs three calls (a nonproductive row evaluates f), so budget // 3 complete
    assert tr.final.iter == budget // 3
    assert [r.iter for r in tr.rows] == list(range(budget // 3 + 1))
    productive = [r for r in tr.rows[:-1] if r.tag == "productive"]
    best = min(productive, key=lambda r: r.f_value)  # the first of equal values, as the scheme keeps
    np.testing.assert_array_equal(tr.x_out, best.x)


def test_switching_budget_cut_without_productive_step_reports_last_iterate():
    objective, fset = make_problem("norm2", {"d": 2})
    constraint = ConstraintOracle(value=lambda x: 10.0,  # never satisfied
                                  subgrad=lambda x: np.array([1.0, 0.0]),
                                  lipschitz=1.0)
    cfg = SwitchingConfig(delta=1.0, theta0=10.0, max_iters=1000)
    tr = run_switching(dataclasses.replace(objective, constraint=constraint), fset, np.zeros(2), cfg,
                       record_x=True, max_oracle_calls=10)
    assert tr.status is RunStatus.BUDGET_EXHAUSTED and tr.final.iter == 3
    np.testing.assert_array_equal(tr.x_out, [-3.0, 0.0])
    np.testing.assert_array_equal(tr.final.x, tr.x_out)


def test_switching_warns_on_understated_mg():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(delta=0.05, theta0=1.0, Mg=0.2, max_iters=500)
    with pytest.warns(UserWarning, match="exceeds the declared Mg"):
        run_switching(oracle, fset, np.array([2.0, 0.0]), cfg)


def test_switching_refuses_a_nan_delta_and_mg():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    with pytest.raises(ValueError, match="delta must be positive"):
        run_switching(oracle, fset, np.array([2.0, 0.0]), SwitchingConfig(delta=math.nan, theta0=1.0))
    with pytest.raises(ValueError, match="Mg must be positive"):
        SwitchingConfig(delta=0.05, theta0=1.0, Mg=math.nan)
    # a constraint oracle's own bound is checked the same way
    nan_bound = dataclasses.replace(oracle, constraint=dataclasses.replace(oracle.constraint, lipschitz=math.nan))
    with pytest.raises(ValueError, match="positive Lipschitz bound Mg"):
        run_switching(nan_bound, fset, np.array([2.0, 0.0]), SwitchingConfig(delta=0.05, theta0=1.0))


@pytest.mark.parametrize("restarted", [False, True], ids=["switching", "restarted_switching"])
def test_understated_mg_warning_points_at_the_caller(restarted):
    oracle, fset = make_problem("slp", {"rho": 1.0})
    if restarted:
        cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, Mg=0.2, max_iters=500)
        with pytest.warns(UserWarning, match="exceeds the declared Mg") as caught:
            run_restarted_switching(oracle, fset, np.array([2.0, 0.0]), cfg)
    else:
        cfg = SwitchingConfig(delta=0.05, theta0=1.0, Mg=0.2, max_iters=500)
        with pytest.warns(UserWarning, match="exceeds the declared Mg") as caught:
            run_switching(oracle, fset, np.array([2.0, 0.0]), cfg)
    assert {w.filename for w in caught} == {__file__}


def _hinge_suite():
    """f = max(x_1, 0) under x_2 <= 1; its subgradient (1, 0) is 0 once x_1 <= 0."""
    constraint = ConstraintOracle(value=lambda x: float(x[1]) - 1.0, subgrad=lambda x: np.array([0.0, 1.0]),
                                  lipschitz=1.0)
    return OracleSuite(value=lambda x: max(float(x[0]), 0.0), dim=2, constraint=constraint,
                       subgrad=lambda x: np.array([1.0 if x[0] > 0 else 0.0, 0.0]))


@pytest.mark.parametrize("every", [2, 7])
def test_switching_zero_subgradient_off_the_grid_writes_no_row(every):
    # steps of length 1 from x_1 = 2.5 reach x_1 = -0.5, where the subgradient is 0, at iteration 3
    tr = run_switching(_hinge_suite(), FullSpace(2), np.array([2.5, 0.0]),
                       SwitchingConfig(delta=1.0, theta0=4.0, max_iters=50), record_every=every, record_x=True)
    assert [r.iter for r in tr.rows] == [k for k in range(4) if k % every == 0] + [4]
    assert tr.status is RunStatus.CONVERGED
    assert tr.final.f_value == 0.0 and tr.final.oracle_calls == 13  # 4 iterations of 3 calls, then f(x)
    np.testing.assert_array_equal(tr.final.x, [-0.5, 0.0])
    np.testing.assert_array_equal(tr.x_out, [-0.5, 0.0])
    assert tr.f_out == 0.0


@pytest.mark.parametrize("every", [2, 7])
def test_restart_zero_subgradient_off_the_grid_writes_no_row(every):
    # stage 1 reaches the zero at iteration 3; stages 2-4 start on it and stop at once (4 stages for eps 1)
    cfg = SwitchingConfig(theta0=4.0, eps_target=1.0, alpha_sharp=0.5, max_iters=50)
    tr = run_restarted_switching(_hinge_suite(), FullSpace(2), np.array([2.5, 0.0]), cfg, record_every=every,
                                 record_x=True)
    assert [r.iter for r in tr.rows] == [k for k in range(7) if k % every == 0] + [7]
    assert [r.tag for r in tr.rows[:-1]] == [f"p{min(max(r.iter - 2, 1), 4)}:productive" for r in tr.rows[:-1]]
    zero = tr.x_out  # stage 1's best productive iterate, where its subgradient was 0
    assert zero[0] <= 0 and zero[1] == 0.0
    for r in tr.rows:  # stages 2-4 start from it, and the terminal row sits at it
        if r.iter > 3:
            np.testing.assert_array_equal(r.x, zero)
    assert tr.status is RunStatus.CONVERGED and tr.final.f_value == 0.0 == tr.f_out


def test_switching_reporting_its_terminal_point_evaluates_it_once():
    # the zero productive subgradient at iteration 3 ends the run at its best productive iterate, the
    # terminal row's own point: f is called at iterations 0-3 and for that row, and f_out reuses the row's f
    suite, calls = _hinge_suite(), []
    counted = dataclasses.replace(suite, value=lambda x: calls.append(1) or suite.value(x))
    tr = run_switching(counted, FullSpace(2), np.array([2.5, 0.0]),
                       SwitchingConfig(delta=1.0, theta0=4.0, max_iters=50))
    assert len(calls) == 5
    assert tr.x_out.tobytes() == np.array([-0.5, 0.0]).tobytes() and tr.f_out == tr.final.f_value == 0.0


def _disk_suite_and_box():
    """f = -x_1 under ||x|| <= 1, on a box whose face x_1 = 0.5 cuts the disk's minimizer (1, 0) off.

    The minimizers over the box are the segment {0.5} x [-sqrt(0.75), sqrt(0.75)].
    """
    half_edge = math.sqrt(0.75)

    def dist(x):
        t = min(max(float(x[1]), -half_edge), half_edge)
        return math.hypot(float(x[0]) - 0.5, float(x[1]) - t)

    constraint = ConstraintOracle(value=lambda x: math.hypot(*x.tolist()) - 1.0,
                                  subgrad=lambda x: x / math.hypot(*x.tolist()), lipschitz=1.0)
    suite = OracleSuite(value=lambda x: -float(x[0]), subgrad=lambda x: np.array([-1.0, 0.0]), dim=2,
                        fstar=-0.5, dist_fn=dist, M=1.0, alpha_sharp=0.5, constraint=constraint)
    return suite, Box(np.array([-1.0, -1.0]), np.array([0.5, 1.0]))


@pytest.mark.parametrize("restarted", [False, True], ids=["switching", "restarted_switching"])
def test_switching_projects_every_step_onto_a_box(restarted):
    suite, box = _disk_suite_and_box()
    x0 = np.array([-0.9, 0.9])  # outside the disk: the run starts with nonproductive steps
    if restarted:
        cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=5000)
        tr = run_restarted_switching(suite, box, x0, cfg, record_x=True)
        assert suite.dist_to_opt(tr.x_out) <= 0.05
    else:
        tr = run_switching(suite, box, x0, SwitchingConfig(delta=0.05, theta0=1.0, max_iters=5000), record_x=True)
        assert tr.f_out - suite.fstar <= 0.05 and suite.constraint.value(tr.x_out) <= 0.05
    assert tr.status is RunStatus.CONVERGED
    assert {r.tag.split(":")[-1] for r in tr.rows[:-1]} == {"productive", "nonproductive"}
    xs = np.array([r.x for r in tr.rows] + [tr.x_out])
    assert np.all(xs >= -1.0) and np.all(xs[:, 0] <= 0.5) and np.all(xs[:, 1] <= 1.0)
    assert np.count_nonzero(xs[:, 0] == 0.5) > len(xs) // 2  # the productive steps end on the face


# -- restarts ------------------------------------------------------------------------

def test_restart_count_formula():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.25, alpha_sharp=0.5, max_iters=10000)
    tr = run_restarted_switching(oracle, fset, np.zeros(2), cfg)
    stages = {r.tag.split(":")[0] for r in tr.rows if r.tag}
    assert stages == {f"p{i}" for i in range(1, 5)}  # ceil(2 log2 4) = 4 restarts


def test_restart_without_alpha_refuses_with_the_problem_readers_text():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.25)
    with pytest.raises(ValueError, match="^alpha_sharp not given and unknown for this problem$"):
        run_restarted_switching(dataclasses.replace(oracle, alpha_sharp=None), fset, np.zeros(2), cfg)


def test_restart_degenerate_eps_above_theta0():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(theta0=0.5, eps_target=0.5, alpha_sharp=0.5)
    tr = run_restarted_switching(oracle, fset, np.zeros(2), cfg)
    np.testing.assert_allclose(tr.x_out, np.zeros(2))
    assert tr.status is RunStatus.CONVERGED and len(tr.rows) == 1


def test_restart_budget_cut_reports_the_stage_best_productive_iterate():
    oracle, fset = make_problem("slp")
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=100_000)
    tr = run_restarted_switching(oracle, fset, np.zeros(2), cfg, record_x=True, max_oracle_calls=40)
    assert tr.status is RunStatus.BUDGET_EXHAUSTED
    stage = tr.rows[-2].tag.split(":")[0]
    productive = [r for r in tr.rows[:-1] if r.tag == stage + ":productive"]
    best = min(productive, key=lambda r: r.f_value)  # the first of equal values, as the scheme keeps
    np.testing.assert_array_equal(tr.x_out, best.x)
    assert tr.f_out == best.f_value < oracle.value(np.zeros(2))  # not the stage's start


def test_restart_total_cap_cuts_the_run_at_the_stage_best_productive_iterate():
    oracle, fset = make_problem("slp")
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=100)
    free = run_restarted_switching(oracle, fset, np.zeros(2), cfg, record_x=True)
    assert free.status is RunStatus.CONVERGED and free.final.iter > 5
    cut = run_restarted_switching(oracle, fset, np.zeros(2), dataclasses.replace(cfg, total_iters=5), record_x=True)
    assert cut.status is RunStatus.BUDGET_EXHAUSTED and cut.final.iter == 5
    assert [r.iter for r in cut.rows[:-1]] == [r.iter for r in free.rows[:5]]  # the same first steps
    stage = cut.rows[-2].tag.split(":")[0]
    best = min((r for r in cut.rows[:-1] if r.tag == stage + ":productive"), key=lambda r: r.f_value)
    np.testing.assert_array_equal(cut.x_out, best.x)
    np.testing.assert_array_equal(cut.final.x, best.x)


def test_restart_total_cap_spent_by_a_stopped_stage_ends_before_the_next():
    oracle, fset = make_problem("slp")
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=100)
    free = run_restarted_switching(oracle, fset, np.zeros(2), cfg, record_x=True)
    second = next(r for r in free.rows[:-1] if r.tag.startswith("p2:"))  # stage 2 starts where stage 1 stopped
    cut = run_restarted_switching(oracle, fset, np.zeros(2), dataclasses.replace(cfg, total_iters=second.iter),
                                  record_x=True)
    assert cut.status is RunStatus.BUDGET_EXHAUSTED and cut.final.iter == second.iter
    assert not any(r.tag.startswith("p2:") for r in cut.rows[:-1])
    np.testing.assert_array_equal(cut.x_out, second.x)


def test_restart_refuses_a_zero_total_cap():
    with pytest.raises(ValueError, match="iteration cap must be >= 1"):
        SwitchingConfig(theta0=1.0, eps_target=0.05, total_iters=0)


def test_restart_budget_cut_without_productive_step_reports_the_stage_start():
    objective, fset = make_problem("norm2", {"d": 2})
    constraint = ConstraintOracle(value=lambda x: 10.0,  # never satisfied
                                  subgrad=lambda x: np.array([1.0, 0.0]),
                                  lipschitz=1.0)
    cfg = SwitchingConfig(theta0=10.0, eps_target=1.0, alpha_sharp=1.0, max_iters=1000)
    tr = run_restarted_switching(dataclasses.replace(objective, constraint=constraint), fset,
                                 np.array([0.5, 0.0]), cfg, record_x=True, max_oracle_calls=10)
    assert tr.status is RunStatus.BUDGET_EXHAUSTED and tr.final.iter == 3
    np.testing.assert_array_equal(tr.x_out, [0.5, 0.0])
    assert tr.final.x[0] < 0.5  # the terminal row is at the last iterate


def test_restart_reaches_target_on_slp():
    oracle, fset = make_problem("slp", {"rho": 1.0})
    cfg = SwitchingConfig(theta0=1.0, eps_target=0.05, alpha_sharp=0.5, max_iters=10000)
    tr = run_restarted_switching(oracle, fset, np.zeros(2), cfg)
    assert np.linalg.norm(tr.x_out - oracle.xstar) <= 0.05
    # total subgradient calls (= iterations) within the stated product bound
    budget = math.ceil(4 * 1 * 1 / 0.5 ** 2) * math.ceil(2 * math.log2(1.0 / 0.05))
    assert tr.rows[-1].iter <= budget
