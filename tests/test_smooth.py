import dataclasses
import math

import numpy as np
import pytest

from optbench.core import AbsoluteGrad, RelativeGrad, Rng, RunStatus, make_problem, wrap_noise
from optbench.smooth import (
    AbsNoise,
    ExitCriterionUnreachable,
    RelNoise,
    RelNoiseAdaptive,
    SmoothRunConfig,
    run_gd,
    run_gd_abs,
    run_gd_rel,
    run_gd_rel_adaptive,
)
from optbench.core import OracleSuite


def test_gd_hand_trace_quad():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    tr = run_gd(oracle, np.array([1.0, 1.0]), SmoothRunConfig(N=1), record_x=True)
    np.testing.assert_allclose(tr.x_out, [0.0, 0.9])
    assert tr.rows[0].f_gap == pytest.approx(5.5)
    assert tr.rows[1].f_gap == pytest.approx(0.405)
    assert tr.rows[1].f_gap <= (1 - 0.1) * 5.5


def test_gd_stays_at_minimizer():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    tr = run_gd(oracle, np.zeros(2), SmoothRunConfig(N=50))
    assert tr.status is RunStatus.CONVERGED
    assert tr.final.iter == 0 and tr.final.grad_norm == 0.0


def test_gd_converges_to_saddle_from_symmetric_start():
    oracle, _ = make_problem("nesterov_skokov_toy")
    tr = run_gd(oracle, np.array([1.0, 0.0]), SmoothRunConfig(N=100), record_x=True)
    for r in tr.rows:
        assert r.x[1] == 0.0  # the second coordinate never moves
    assert abs(tr.x_out[0]) <= 1e-9
    # the limit (0, 0) is stationary but not a minimizer
    assert tr.f_out - oracle.fstar == pytest.approx(0.25, abs=1e-9)


@pytest.mark.parametrize("name,params,x0", [
    ("quad_diag", {"lambdas": [10.0, 1.0]}, [1.0, 1.0]),
    ("fw_box", {}, [1.0, 1.0]),
    ("logistic_small", {"n": 15, "d": 3}, [0.5, -0.5, 0.2]),
])
def test_descent_lemma_every_step(name, params, x0):
    oracle, _ = make_problem(name, params, seed=1)
    L = oracle.L
    tr = run_gd(oracle, np.array(x0), SmoothRunConfig(N=60))
    for prev, cur in zip(tr.rows, tr.rows[1:]):
        assert (cur.f_value <= prev.f_value - prev.grad_norm ** 2 / (2 * L)
                + 1e-12 * max(1.0, abs(prev.f_value)))


def test_pl_rate_matches_closed_form():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    tr = run_gd(oracle, np.array([1.0, 1.0]), SmoothRunConfig(N=200, tol=0.0), record_x=True)
    gap0 = tr.rows[0].f_gap
    for r in tr.rows:
        assert r.f_gap <= (1 - 0.1) ** r.iter * gap0 * (1 + 1e-12)
        # closed form: each coordinate contracts by (1 - lam_i / L)
        expect = np.array([(1 - 1.0) ** r.iter * 1.0, 0.9 ** r.iter * 1.0])
        np.testing.assert_allclose(r.x, expect, atol=1e-12)


# -- absolute gradient error ----------------------------------------------------------

def degenerate3_with_fixed_noise():
    oracle, _ = make_problem("degenerate3", {"l1": 1.0, "l2": 0.1})
    return wrap_noise(oracle, AbsoluteGrad(0.1, mode="fixed", v=np.array([0.0, 0.0, 0.1])), Rng(0))


def test_abs_noise_early_stop_at_start():
    noisy = degenerate3_with_fixed_noise()
    cfg = SmoothRunConfig(N=1000, mode=AbsNoise(delta=0.1, stop_multiplier=2.0))
    tr = run_gd_abs(noisy, np.zeros(3), cfg)
    assert tr.status is RunStatus.EARLY_STOPPED
    assert tr.final.iter == 0  # ||g~(x0)|| = 0.1 <= 0.2 immediately
    np.testing.assert_allclose(tr.x_out, np.zeros(3))


def test_abs_noise_linear_escape_without_early_stop():
    noisy = degenerate3_with_fixed_noise()
    cfg = SmoothRunConfig(N=1000, mode=AbsNoise(delta=0.1, stop_multiplier=0.0), tol=0.0)
    tr = run_gd_abs(noisy, np.zeros(3), cfg, record_x=True, divergence_radius=5.0)
    assert tr.status is RunStatus.DIVERGED
    for r in tr.rows:  # ||x^k - x0|| = k * delta / L exactly
        assert np.linalg.norm(r.x) == pytest.approx(r.iter * 0.1 / 2.0, abs=1e-12)


def test_abs_noise_zero_delta_bit_identical_to_gd():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, AbsoluteGrad(0.0, mode="fixed", v=np.zeros(2)), Rng(0))
    x0 = np.array([1.0, -2.0])
    a = run_gd(oracle, x0, SmoothRunConfig(N=40), record_x=True)
    b = run_gd_abs(noisy, x0, SmoothRunConfig(N=40, mode=AbsNoise(delta=0.0)), record_x=True)
    assert a.status == b.status and len(a.rows) == len(b.rows)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.x, rb.x) and ra.f_value == rb.f_value


def test_abs_noise_plateau_bound_random_direction():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    delta, L, mu = 0.1, 10.0, 1.0
    for seed in range(10):
        noisy = wrap_noise(oracle, AbsoluteGrad(delta), Rng(seed))
        cfg = SmoothRunConfig(N=150, mode=AbsNoise(delta=delta, stop_multiplier=0.0), tol=0.0)
        tr = run_gd_abs(noisy, np.array([1.0, 1.0]), cfg)
        gap0 = tr.rows[0].f_gap
        for r in tr.rows:
            bound = (1 - mu / L) ** r.iter * gap0 + delta ** 2 / (2 * mu)
            assert r.f_gap <= bound * (1 + 1e-12)


# -- relative gradient error -----------------------------------------------------------

def test_rel_noise_alpha_zero_identical_to_gd():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(0.0, mode="shrink"), Rng(0))
    x0 = np.array([1.0, 1.0])
    a = run_gd(oracle, x0, SmoothRunConfig(N=30), record_x=True)
    b = run_gd_rel(noisy, x0, SmoothRunConfig(N=30, mode=RelNoise(alpha=0.0)), record_x=True)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.x, rb.x)


def test_rel_noise_1d_hand_trace():
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(0.5, mode="shrink"), Rng(0))
    cfg = SmoothRunConfig(N=1, mode=RelNoise(alpha=0.5))
    tr = run_gd_rel(noisy, np.array([1.0]), cfg, record_x=True)
    assert tr.rows[0].step_size == pytest.approx(2.0 / 9.0)
    assert tr.x_out[0] == pytest.approx(8.0 / 9.0)
    ratio = tr.rows[1].f_gap / tr.rows[0].f_gap
    assert ratio == pytest.approx((8 / 9) ** 2) and ratio <= 8 / 9


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4])
def test_rel_noise_rate_bound_shrink(alpha):
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(alpha, mode="shrink"), Rng(0))
    cfg = SmoothRunConfig(N=50, mode=RelNoise(alpha=alpha), tol=0.0)
    tr = run_gd_rel(noisy, np.array([1.0, 1.0]), cfg)
    gap0 = tr.rows[0].f_gap
    factor = 1 - 0.25 * (1 - alpha) ** 2 / (1 + alpha) ** 2
    for r in tr.rows:
        assert r.f_gap <= factor ** r.iter * gap0 * (1 + 1e-9)


@pytest.mark.parametrize("mode", ["shrink", "grow", "random_direction"])
def test_rel_noise_monotone_descent_any_mode(mode):
    oracle, _ = make_problem("quad_diag", {"lambdas": [7.0, 2.0]})
    noisy = wrap_noise(oracle, RelativeGrad(0.6, mode=mode), Rng(11))
    cfg = SmoothRunConfig(N=60, mode=RelNoise(alpha=0.6), tol=0.0)
    tr = run_gd_rel(noisy, np.array([1.0, -1.0]), cfg)
    values = [r.f_value for r in tr.rows]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


# -- adaptive relative-error step -------------------------------------------------------

def _adaptive_L_values(trace, alpha):
    # recover the accepted L_{k+1} from the recorded step sizes
    factor = (1 - 2 * alpha) / (1 - alpha)
    return [factor / r.step_size for r in trace.rows if r.step_size > 0]


def test_adaptive_alpha0_first_iteration_first_try():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(0.0, mode="shrink"), Rng(0))
    cfg = SmoothRunConfig(N=1, mode=RelNoiseAdaptive(alpha=0.0, L0=4.0))
    tr = run_gd_rel_adaptive(noisy, np.array([1.0, 1.0]), cfg, record_x=True)
    # with L0 = L the first iteration is a plain 1/L gradient step
    assert tr.rows[0].step_size == pytest.approx(0.25)
    np.testing.assert_allclose(tr.x_out, [0.0, 0.75])


def test_adaptive_doubling_count_amortized():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    alpha, L0, L = 0.2, 2.5, 10.0
    noisy = wrap_noise(oracle, RelativeGrad(alpha, mode="shrink"), Rng(0))
    N = 30
    cfg = SmoothRunConfig(N=N, mode=RelNoiseAdaptive(alpha=alpha, L0=L0), tol=0.0)
    tr = run_gd_rel_adaptive(noisy, np.array([1.0, 1.0]), cfg)
    Ls = _adaptive_L_values(tr, alpha)
    doublings = 0
    prev = None
    for i, Lk in enumerate(Ls):
        start = L0 if i == 0 else max(prev / 2, 1e-12)
        doublings += round(math.log2(Lk / start))
        prev = Lk
        assert Lk <= 2 * L * (1 + 1e-12)  # guaranteed once L0 <= 2L
    assert doublings <= N + math.log2(L / L0) + 1


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25])
def test_adaptive_rate_bound(alpha):
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(alpha, mode="shrink"), Rng(0))
    cfg = SmoothRunConfig(N=60, mode=RelNoiseAdaptive(alpha=alpha, L0=4.0), tol=0.0)
    tr = run_gd_rel_adaptive(noisy, np.array([1.0, 1.0]), cfg)
    gap0 = tr.rows[0].f_gap
    factor = 1 - (1.0 / (2 * 4.0)) * (1 - 2 * alpha) ** 2
    for r in tr.rows:
        assert r.f_gap <= factor ** r.iter * gap0 * (1 + 1e-9)


def test_adaptive_exit_unreachable_for_lying_alpha():
    # oracle reports -2x the true gradient: a relative error of 3 ||grad||,
    # while the method is told alpha = 0.1; the criterion stays violated at
    # every trial constant reachable within the doubling budget
    base, _ = make_problem("quad_diag", {"lambdas": [1.0]})
    lying = OracleSuite(value=base.value, subgrad=lambda x: -2.0 * base.grad(x),
                        grad=lambda x: -2.0 * base.grad(x), dim=1, fstar=0.0, L=1.0)
    cfg = SmoothRunConfig(N=5, mode=RelNoiseAdaptive(alpha=0.1, L0=1e-9))
    with pytest.raises(ExitCriterionUnreachable):
        run_gd_rel_adaptive(lying, np.array([1.0]), cfg)


def test_adaptive_converged_terminal_row_reuses_the_method_value():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(alpha=0.25, mode="shrink"), Rng(0))
    calls = []

    def counted(kind, fn):
        return lambda x: calls.append(kind) or fn(x)

    suite = dataclasses.replace(noisy, value=counted("value", noisy.value), grad=counted("grad", noisy.grad))
    cfg = SmoothRunConfig(N=500, mode=RelNoiseAdaptive(alpha=0.25, L0=1.0), tol=1e-6)
    tr = run_gd_rel_adaptive(suite, np.array([1.0, 1.0]), cfg)
    assert tr.status is RunStatus.CONVERGED
    before, last = tr.rows[-2], tr.rows[-1]
    assert last.iter == before.iter + 1 and last.oracle_calls == before.oracle_calls + 1 == len(calls)
    assert calls[before.oracle_calls:] == ["grad"]


def test_adaptive_radius_exit_evaluates_its_terminal_row():
    # f = -x is unbounded below: every trial is accepted, the step doubles, and the
    # iterate leaves the radius at iteration 21 after 1 + 2 * 21 = 43 method calls.
    # The terminal row is then evaluated, as at the end of the iterations: 44 calls.
    down = OracleSuite(value=lambda x: -float(x[0]), subgrad=lambda x: np.array([-1.0]),
                       grad=lambda x: np.array([-1.0]), dim=1)
    cfg = SmoothRunConfig(N=100, mode=RelNoiseAdaptive(alpha=0.1, L0=1.0))
    tr = run_gd_rel_adaptive(down, np.array([0.0]), cfg)
    assert tr.status is RunStatus.DIVERGED
    assert tr.final.iter == 21 and tr.final.oracle_calls == 44
    assert tr.final.f_value == -tr.x_out[0] and tr.rows[-2].oracle_calls == 43


def test_adaptive_rejects_alpha_half():
    with pytest.raises(ValueError, match="alpha < 0.5"):
        RelNoiseAdaptive(alpha=0.5, L0=1.0)


def test_distance_monitor_configurable():
    # gradient ascent in disguise: a wrong-sign oracle walks away and trips
    # the monitor
    base, _ = make_problem("quad_diag", {"lambdas": [1.0]})
    wrong = OracleSuite(value=base.value, subgrad=lambda x: -base.grad(x),
                        grad=lambda x: -base.grad(x), dim=1, fstar=0.0, L=1.0)
    tr = run_gd(wrong, np.array([1.0]), SmoothRunConfig(N=100), divergence_radius=10.0)
    assert tr.status is RunStatus.DIVERGED


def test_fixed_step_gd_refuses_the_adaptive_mode():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    cfg = SmoothRunConfig(N=5, mode=RelNoiseAdaptive(alpha=0.1, L0=1.0))
    with pytest.raises(ValueError, match="run_gd_rel_adaptive"):
        run_gd(oracle, np.ones(2), cfg)
    assert run_gd_abs is run_gd and run_gd_rel is run_gd


@pytest.mark.parametrize("x0, g", [
    ([math.nan, 0.0], [1.0, 0.0]),  # a NaN iterate
    ([0.0, 0.0], [1e154, 0.0]),  # h * g overflows: an infinite iterate
    ([0.0, 0.0], [1.0, 0.0]),  # x = (-1e200, 0) is finite, but its norm overflows
], ids=["nan", "inf", "norm-overflow"])
def test_gd_non_finite_or_overflowing_iterate_ends_diverged(x0, g):
    # step h = 1/L = 1e200 along a constant gradient whose norm is finite
    x0, g = np.array(x0), np.array(g)
    oracle = OracleSuite(value=lambda x: float(x[0]), subgrad=lambda x: g, grad=lambda x: g, dim=2, L=1e-200)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run_gd(oracle, x0, SmoothRunConfig(N=5), record_x=True)
        x1 = x0 - (1.0 / 1e-200) * g
    last = tr.rows[-1]
    assert tr.status is RunStatus.DIVERGED and len(tr.rows) == 2
    assert (last.iter, last.oracle_calls, last.grad_norm) == (1, 3, None)
    assert last.x.tobytes() == x1.tobytes() and np.array(last.f_value).tobytes() == x1[:1].tobytes()
