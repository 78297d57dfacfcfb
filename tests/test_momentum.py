import dataclasses
import math

import numpy as np
import pytest

from optbench import claims
from optbench.core import OracleSuite, QuadraticForm, Rng, RunStatus, UnsupportedProblemError, make_problem
from optbench.momentum import (
    MomentumConfig,
    chebyshev_delta_limit,
    chebyshev_delta_sequence,
    heavy_ball_coefficients,
    run_cg_quadratic,
    run_momentum,
)
from optbench.smooth import SmoothRunConfig, run_gd


def iters_to_gap(trace, thresh):
    for r in trace.rows:
        if r.f_gap is not None and r.f_gap <= thresh:
            return r.iter
    return None


def test_heavy_ball_mu_equals_L_single_step():
    oracle, _ = make_problem("quad_diag", {"lambdas": [3.0, 3.0]})
    cfg = MomentumConfig("heavy_ball", N=5, L=3.0, mu=3.0)
    tr = run_momentum(oracle, np.array([0.7, -0.4]), cfg)
    step, beta = heavy_ball_coefficients(3.0, 3.0)
    assert step == pytest.approx(1.0 / 3.0) and beta == 0.0
    assert tr.status is RunStatus.CONVERGED and tr.final.iter == 1
    np.testing.assert_allclose(tr.x_out, np.zeros(2), atol=1e-15)


def test_chebyshev_first_step_and_delta1():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    tr = run_momentum(oracle, np.array([1.0, 1.0]),
                      MomentumConfig("chebyshev", N=1, L=4.0, mu=1.0), record_x=True)
    np.testing.assert_allclose(tr.x_out, [1 - 0.4 * 4, 1 - 0.4 * 1])  # x0 - (2/(L+mu)) grad
    # t0 = (L+mu)/(L-mu) = 5/3 and rho_0 = 1/t0 = 3/5, so delta_1 = 1/(2 t0 - rho_0) = 1/(10/3 - 3/5) = 15/41
    deltas = chebyshev_delta_sequence(4.0, 1.0, 1)
    assert deltas[0] == pytest.approx(15.0 / 41.0)


def test_chebyshev_error_is_the_scaled_chebyshev_polynomial_of_each_eigenvalue():
    """On ``quad_diag``, iteration k's error in eigen-coordinate i is ``T_k(t(lambda_i)) / T_k(t0)`` of its start.

    ``t(lambda) = (L + mu - 2 lambda)/(L - mu)`` and ``t0 = t(mu)``, with L and mu the extreme eigenvalues;
    so every row's f is ``sum_i lambda_i (T_k(t_i)/T_k(t0) x0_i)^2 / 2``.  T_k comes from its three-term
    recurrence, not from the method's code.  Over 200 such instances the rows match to 4.8e-12 relative;
    the slack is 1e-9.
    """
    r = np.random.default_rng(22)
    for _ in range(20):
        d, kappa = int(r.integers(2, 10)), 10 ** r.uniform(0.3, 3)
        lam = np.sort(np.concatenate([[1.0, kappa], 1 + (kappa - 1) * r.random(d - 2)]))[::-1]
        oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist()})
        x0 = r.standard_normal(d)
        f = run_momentum(oracle, x0, MomentumConfig("chebyshev", N=40, tol=0.0)).columns["f_value"]
        t, t0 = (kappa + 1 - 2 * lam) / (kappa - 1), (kappa + 1) / (kappa - 1)
        T_prev, T, T0_prev, T0 = np.ones(d), t, 1.0, t0  # T_0 and T_1
        want = [0.5 * float((lam * x0).dot(x0))]
        for k in range(1, len(f)):
            if k > 1:
                T_prev, T, T0_prev, T0 = T, 2 * t * T - T_prev, T0, 2 * t0 * T0 - T0_prev
            e = T / T0 * x0
            want.append(0.5 * float((lam * e).dot(e)))
        assert len(f) == 41
        np.testing.assert_allclose(f, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("variant", ["nesterov_cvx", "nesterov_sc"])
def test_look_ahead_error_follows_its_per_eigenvalue_recurrence(variant):
    """On ``quad_diag``, iteration k's error in eigen-coordinate i follows a two-term recurrence of its own.

    With ``y = x_k + beta_k (x_k - x_{k-1})`` and ``x_{k+1} = y - grad(y)/L``, each coordinate's error is
    ``e_{k+1} = (1 - lambda_i/L) ((1 + beta_k) e_k - beta_k e_{k-1})`` from ``e_{-1} = e_0 = x0_i``, where
    ``beta_k = k/(k+3)`` (``nesterov_cvx``) or ``(sqrt(L) - sqrt(mu))/(sqrt(L) + sqrt(mu))`` (``nesterov_sc``),
    L and mu the extreme eigenvalues; so every row's f is ``sum_i lambda_i e_i^2 / 2``.  The recurrence is
    written here, not taken from the method's code.  Over 200 such instances the rows match to 4.5e-12
    (``nesterov_cvx``) and 1.8e-13 (``nesterov_sc``) relative; the slack is 1e-9, as the Chebyshev
    certificate's.
    """
    r = np.random.default_rng(25)
    for _ in range(20):
        d, kappa = int(r.integers(2, 10)), 10 ** r.uniform(0.3, 3)
        lam = np.sort(np.concatenate([[1.0, kappa], 1 + (kappa - 1) * r.random(d - 2)]))[::-1]
        oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist()})
        x0 = r.standard_normal(d)
        f = run_momentum(oracle, x0, MomentumConfig(variant, N=40, tol=0.0)).columns["f_value"]
        q = (math.sqrt(kappa) - 1) / (math.sqrt(kappa) + 1)
        e_prev, e = x0, x0
        want = [0.5 * float((lam * x0).dot(x0))]
        for k in range(len(f) - 1):
            beta = k / (k + 3) if variant == "nesterov_cvx" else q
            e_prev, e = e, (1 - lam / kappa) * ((1 + beta) * e - beta * e_prev)
            want.append(0.5 * float((lam * e).dot(e)))
        assert len(f) == 41
        np.testing.assert_allclose(f, want, rtol=1e-9, atol=0)


def test_chebyshev_delta_limit_and_heavy_ball_coefficients():
    L, mu = 10.0, 0.5
    deltas = chebyshev_delta_sequence(L, mu, 60)
    dinf = chebyshev_delta_limit(L, mu)
    assert abs(deltas[-1] - dinf) <= 1e-10
    # heavy-ball coefficients equal the limit-substituted Chebyshev ones
    step_hb, beta_hb = heavy_ball_coefficients(L, mu)
    assert abs(4 * dinf / (L - mu) - step_hb) <= 1e-12
    assert abs((2 * dinf * (L + mu) / (L - mu) - 1) - beta_hb) <= 1e-12


def test_taylor_drori_first_iteration_coefficients():
    # with q = 0: A1 = 4, tau0 = 1, delta0 = 2, so x1 = x0 - (1/L) g and
    # z1 = x0 - (2/L) g
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    x0 = np.array([2.0, -1.0])
    g0 = oracle.grad(x0)
    tr = run_momentum(oracle, x0, MomentumConfig("taylor_drori", N=1, L=1.0, mu=0.0),
                      record_x=True)
    np.testing.assert_allclose(tr.rows[-1].x, x0 - g0, atol=1e-15)
    np.testing.assert_allclose(tr.x_out, x0 - 2.0 * g0, atol=1e-15)


def test_first_iteration_is_gradient_type():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    x0 = np.array([1.0, -1.0])
    for variant in ("nesterov_sc", "nesterov_cvx"):
        tr = run_momentum(oracle, x0, MomentumConfig(variant, N=1, L=4.0, mu=1.0),
                          record_x=True)
        np.testing.assert_allclose(tr.x_out, x0 - oracle.grad(x0) / 4.0, atol=1e-15)


def test_acceleration_factor_on_kappa_400():
    oracle, _ = make_problem("quad_diag", {"lambdas": [400.0, 1.0]})
    x0 = np.array([1.0, 1.0])
    gd = run_gd(oracle, x0, SmoothRunConfig(N=20000, tol=0.0))
    k_gd = iters_to_gap(gd, 1e-9)
    assert k_gd is not None
    for variant in ("chebyshev", "nesterov_sc"):
        tr = run_momentum(oracle, x0, MomentumConfig(variant, N=5000, tol=0.0))
        k_acc = iters_to_gap(tr, 1e-9)
        assert k_acc is not None
        assert k_gd / k_acc >= 5.0


def test_nesterov_cvx_rate_constant():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    x0 = np.array([1.0, 1.0])
    dist0_sq = float((x0 - oracle.xstar) @ (x0 - oracle.xstar))
    tr = run_momentum(oracle, x0, MomentumConfig("nesterov_cvx", N=500, tol=0.0))
    for r in tr.rows:
        if 10 <= r.iter <= 500:
            assert r.f_gap <= claims.nesterov_cvx_gap(oracle.L, dist0_sq, r.iter)


def test_momentum_non_monotone_but_not_flagged():
    oracle, _ = make_problem("quad_diag", {"lambdas": [400.0, 1.0]})
    tr = run_momentum(oracle, np.array([1.0, 1.0]),
                      MomentumConfig("heavy_ball", N=300, tol=0.0))
    values = [r.f_value for r in tr.rows]
    assert any(b > a for a, b in zip(values, values[1:]))  # oscillation happens
    assert tr.status is not RunStatus.DIVERGED


def test_heavy_ball_divergence_is_status_not_exception():
    # heavy ball with badly misdeclared constants on a nonquadratic runs away;
    # the distance monitor reports it instead of raising
    oracle, _ = make_problem("rosenbrock")
    cfg = MomentumConfig("heavy_ball", N=2000, L=1.0, mu=0.5, tol=0.0)
    tr = run_momentum(oracle, np.array([-1.2, 1.0]), cfg, divergence_radius=100.0)
    assert tr.status is RunStatus.DIVERGED


def test_taylor_drori_converges_fast_on_quadratic():
    oracle, _ = make_problem("quad_diag", {"lambdas": [400.0, 1.0]})
    tr = run_momentum(oracle, np.array([1.0, 1.0]),
                      MomentumConfig("taylor_drori", N=600, tol=0.0))
    assert tr.f_out - 0.0 <= 1e-9


def test_momentum_requires_mu():
    oracle, _ = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    with pytest.raises(ValueError, match="requires mu > 0"):
        run_momentum(oracle, np.ones(2), MomentumConfig("heavy_ball", N=5, L=4.0, mu=0.0))
    with pytest.raises(ValueError, match="unknown momentum variant"):
        MomentumConfig("polyak_spiral", N=5)


@pytest.mark.parametrize("variant", ["chebyshev", "taylor_drori"])
def test_momentum_refuses_mu_equal_to_L(variant):
    # both recurrences divide by L - mu; quad_diag [2, 2] has mu = L = 2
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 2.0]})
    with pytest.raises(ValueError, match=f"{variant} requires mu < L strictly"):
        run_momentum(oracle, np.ones(2), MomentumConfig(variant, N=5))


# -- conjugate gradients ---------------------------------------------------------

def test_cg_finite_termination_random_spectrum():
    rng = Rng(17)
    lam = np.sort(rng.uniform(1.0, 100.0, size=5))
    oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist()})
    x0 = rng.gaussian(5)
    tr = run_cg_quadratic(oracle, x0, N=5)
    assert np.linalg.norm(oracle.grad(tr.x_out)) <= 1e-8


def test_cg_trivial_cases():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 5.0]})
    tr = run_cg_quadratic(oracle, np.zeros(2), N=10)
    assert tr.status is RunStatus.CONVERGED and tr.final.iter == 0

    oracle1, _ = make_problem("quad_diag", {"lambdas": [3.0]})
    tr = run_cg_quadratic(oracle1, np.array([5.0]), N=10)
    assert tr.final.iter == 1 and abs(tr.x_out[0]) <= 1e-14


def test_cg_parallel_directions_fall_back_to_the_line_search_step():
    # in 1-d the gradient and the momentum direction are parallel: from x^1 = -4.4e-16, which the
    # first step leaves by rounding, the 2x2 system is singular and the step is gg / gAg = 1/3
    oracle, _ = make_problem("quad_diag", {"lambdas": [3.0]})
    tr = run_cg_quadratic(oracle, np.array([2.7]), N=5, record_x=True)
    assert tr.status is RunStatus.CONVERGED and [r.iter for r in tr.rows] == [0, 1, 2]
    row = tr.rows[1]
    assert row.x[0] != 0.0 and row.oracle_calls == 7  # g(x^0), A g, f(x^0); then g, A g, A d, f
    assert row.step_size == 1.0 / 3.0 and tr.x_out[0] == 0.0


def test_cg_refuses_non_positive_curvature_along_the_gradient():
    concave = OracleSuite(value=lambda x: -0.5 * float(x.dot(x)), subgrad=lambda x: -x, grad=lambda x: -x, dim=2,
                          quadratic=QuadraticForm(matvec=lambda v: -v))
    with pytest.raises(UnsupportedProblemError, match="not positive along the gradient"):
        run_cg_quadratic(concave, np.ones(2), N=5)


def test_cg_ends_diverged_at_a_non_finite_gradient():
    lam, calls = np.array([1.0, 2.0, 3.0]), iter(range(100))
    suite = OracleSuite(value=lambda x: 0.5 * float(x.dot(lam * x)), subgrad=lambda x: lam * x, dim=3,
                        grad=lambda x: np.array([math.nan, 0.0, 0.0]) if next(calls) == 2 else lam * x,
                        quadratic=QuadraticForm(matvec=lambda v: lam * v))
    tr = run_cg_quadratic(suite, np.ones(3), N=10)
    assert tr.status is RunStatus.DIVERGED and tr.final.iter == 2 and math.isfinite(tr.f_out)


@pytest.mark.parametrize("variant, cfg_L, name", [("nesterov_cvx", None, "L"), ("heavy_ball", None, "L"),
                                                 ("heavy_ball", 2.0, "mu")])
def test_momentum_without_a_constant_refuses_with_the_problem_readers_text(variant, cfg_L, name):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    suite = dataclasses.replace(oracle, **{name: None})
    with pytest.raises(ValueError, match=f"^{name} not given and unknown for this problem$"):
        run_momentum(suite, np.ones(2), MomentumConfig(variant, N=5, L=cfg_L))


def test_cg_rejects_non_quadratic():
    oracle, _ = make_problem("rosenbrock")
    with pytest.raises(UnsupportedProblemError):
        run_cg_quadratic(oracle, np.zeros(2), N=5)


def test_cg_no_worse_than_chebyshev_at_equal_budget():
    rng = Rng(23)
    for seed in range(5):
        lam = np.sort(Rng(seed).uniform(0.5, 50.0, size=6))
        oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist()})
        x0 = rng.gaussian(6)
        for n in (3, 5, 8):
            cg = run_cg_quadratic(oracle, x0.copy(), N=n)
            ch = run_momentum(oracle, x0.copy(),
                              MomentumConfig("chebyshev", N=n, L=float(lam[-1]),
                                             mu=float(lam[0]), tol=0.0))
            assert cg.f_out <= ch.f_out * (1 + 1e-9) + 1e-12


@pytest.mark.parametrize("x0, g", [
    ([math.nan, 0.0], [1.0, 0.0]),  # a NaN iterate
    ([0.0, 0.0], [1e154, 0.0]),  # step * g overflows: an infinite iterate
    ([0.0, 0.0], [1.0, 0.0]),  # x = (-1e200, 0) is finite, but its norm overflows
], ids=["nan", "inf", "norm-overflow"])
def test_momentum_non_finite_or_overflowing_iterate_ends_diverged(x0, g):
    # L = mu = 1e-200 makes heavy ball's momentum 0 and its step 1e200
    x0, g = np.array(x0), np.array(g)
    oracle = OracleSuite(value=lambda x: float(x[0]), subgrad=lambda x: g, grad=lambda x: g, dim=2)
    cfg = MomentumConfig("heavy_ball", N=5, L=1e-200, mu=1e-200, tol=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        tr = run_momentum(oracle, x0, cfg, record_x=True)
        step, beta = heavy_ball_coefficients(1e-200, 1e-200)
        x1 = x0 - step * g + beta * (x0 - x0)
    last = tr.rows[-1]
    assert tr.status is RunStatus.DIVERGED and len(tr.rows) == 2 and beta == 0.0
    assert (last.iter, last.oracle_calls, last.grad_norm) == (1, 3, None)
    assert last.x.tobytes() == x1.tobytes() and np.array(last.f_value).tobytes() == x1[:1].tobytes()


def test_momentum_non_finite_gradient_norm_ends_the_run_diverged():
    # f = -sum(x^3)/3 from (1, 0.5): g(x^9) is finite, but its norm overflows, and no radius stops the run first
    cubic = OracleSuite(value=lambda x: -float((x * x * x).sum()) / 3.0, subgrad=lambda x: -(x * x),
                        grad=lambda x: -(x * x), dim=2)
    a, b = heavy_ball_coefficients(1.0, 0.5)
    x = x_prev = np.array([1.0, 0.5])
    with np.errstate(over="ignore"):
        tr = run_momentum(cubic, x, MomentumConfig("heavy_ball", N=400, L=1.0, mu=0.5), record_x=True,
                          divergence_radius=math.inf)
        for _ in range(9):
            x, x_prev = x - a * -(x * x) + b * (x - x_prev), x
    last = tr.final
    assert tr.status is RunStatus.DIVERGED and [r.iter for r in tr.rows] == list(range(10))
    assert (last.iter, last.grad_norm, last.f_value, last.oracle_calls) == (9, None, -math.inf, 20)  # 10 g, 10 f
    assert last.x.tobytes() == x.tobytes() and math.isfinite(tr.rows[-2].grad_norm)
