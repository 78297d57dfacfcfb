"""The 17 canonical catalog configs and their output checks.

One config per registered method.  Every check is derived from the
problem's analytic constants (``f*``, minimizer sets, ``L``, ``mu``,
sharpness) and from the guarantee the method states; none of them
compares against a value the code under test computed for the same run.
Each config keeps its method's documented default ``tol``.

``make_configs(seed)`` draws the seed-dependent parts (starting points,
spectra, data seeds) with the benchmark's own numpy generator, so the
program only ever sees the finished JSON documents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

GD_TOL = 1e-10      # documented default tol of the smooth and momentum methods
RATE_SLACK = 1e-9   # relative slack on bounds that hold with equality in exact arithmetic
PRINT_SLACK = 1e-5  # `compare` prints 6 significant digits


@dataclass
class Canon:
    key: str
    doc: dict
    iterations: int
    rate: Optional[str]                       # model for `optbench rates`, None: no fit run
    check_final: Callable[[dict], list]       # parsed summary -> list of problems
    check_rows: Optional[Callable[[list], list]] = None
    # Only a monotone trace with an exact rate gives a fitted estimate a bound; the
    # endpoint fit of an oscillating or precision-floored tail can read q >= 1.
    check_rate: Optional[Callable[[float], list]] = None


def _fail(cond: bool, msg: str) -> list:
    return [] if cond else [msg]


def _status(s: dict, allowed: tuple) -> list:
    return _fail(s["status"] in allowed, f"status {s['status']} not in {allowed}")


def _le(value, bound, what) -> list:
    if value is None or not math.isfinite(value):
        return [f"{what} is {value}"]
    return _fail(value <= bound, f"{what} {value:.6g} exceeds bound {bound:.6g}")


def _rows_gap_bound(bound_fn, what, first_iter=0) -> Callable[[list], list]:
    def check(rows):
        for r in rows:
            if r["iter"] < first_iter:
                continue
            b = bound_fn(r["iter"]) * (1 + RATE_SLACK) + 1e-300
            if not r["f_gap"] <= b:
                return [f"{what}: row {r['iter']} f_gap {r['f_gap']:.6g} > {b:.6g}"]
        return []
    return check


def _rows_descent(rows) -> list:
    """Accepted steps of a descent method never raise f (1e-9 relative float slack)."""
    for a, b in zip(rows, rows[1:]):
        if b["f_value"] > a["f_value"] + 1e-9 * max(1.0, abs(a["f_value"])):
            return [f"f rose from {a['f_value']:.6g} to {b['f_value']:.6g} at iter {b['iter']}"]
    return []


def _geometric_below(q_max: float) -> Callable[[float], list]:
    return lambda q: _fail(0.0 < q <= q_max * (1 + 1e-6), f"geometric rate q={q:.6g} not in (0, {q_max:.6g}]")


def averaged_sgd_mse(lams, sigma: float, x0, N: int, gamma0: float, eta: float) -> float:
    """Exact E||x_bar_N - x*||^2 of uniformly averaged SGD on a diagonal quadratic.

    x_{k+1} = x_k - gamma_k (lam (x_k - x*) + sigma xi_k) is a linear gaussian
    recursion per coordinate, so the mean and variance of the average of
    x_0..x_{N-1} follow in closed form; no optbench code is involved.
    """
    gam = gamma0 * (np.arange(N) + 1.0) ** (-eta)
    total = 0.0
    for lam, e0 in zip(lams, x0):
        contraction = 1.0 - gam * lam
        mean_path = np.concatenate(([1.0], np.cumprod(contraction[:-1])))  # prod_{i<k}
        mean = e0 * float(np.mean(mean_path))
        # coefficient of xi_j in sum_k x_k is gamma_j * S_j with
        # S_j = sum_{k>j} prod_{i=j+1}^{k-1} (1 - gamma_i lam)
        s = np.zeros(N)
        for j in range(N - 2, -1, -1):
            s[j] = 1.0 + contraction[j + 1] * s[j + 1]
        var = sigma ** 2 * float(np.sum((gam * s) ** 2)) / N ** 2
        total += mean * mean + var
    return total


def _taylor_drori_A(q: float, k: int) -> float:
    A = 0.0
    for _ in range(k):
        A = ((1 + q) * A + 2.0 * (1 + math.sqrt((1 + A) * (1 + q * A)))) / (1 - q) ** 2
    return A


def make_configs(seed: int, make_problem) -> list:
    """The 17 canonical configs for ``seed``; ``make_problem`` supplies catalog constants."""
    rng = np.random.default_rng([seed, 17])
    out = []

    # polyak_subgrad on l1_system: dist_k^2 <= (1 - (alpha/M)^2)^k dist_0^2 (criterion 1).
    oracle, _ = make_problem("l1_system", {"d": 5, "m": 8}, seed)
    x0 = oracle.xstar + rng.normal(size=5)
    fac = 1.0 - (oracle.alpha_sharp / oracle.M) ** 2
    d0 = float(np.linalg.norm(x0 - oracle.xstar))
    N = 300
    out.append(Canon(
        "polyak_subgrad-l1_system",
        {"problem": {"name": "l1_system", "params": {"d": 5, "m": 8}, "seed": seed},
         "method": "polyak_subgrad", "x0": x0.tolist()},
        N, "geometric",
        lambda s, fac=fac, d0=d0, N=N: _status(s, ("budget_exhausted", "converged"))
        + _le(s["final_dist"], math.sqrt(fac ** N) * d0 * (1 + PRINT_SLACK), "final_dist"),
        lambda rows, fac=fac, d0=d0: [
            f"row {r['iter']}: dist^2 {r['dist_to_opt'] ** 2:.6g} above the sharp-minimum bound"
            for r in rows
            if not r["dist_to_opt"] ** 2 <= fac ** r["iter"] * d0 * d0 * (1 + RATE_SLACK) + 1e-300][:1]))

    # const_subgrad on norm2, budget step and averaging: f(avg) - f* <= M R / sqrt(N).
    a = rng.uniform(-1.0, 1.0, 3)
    oracle, _ = make_problem("norm2", {"a": a.tolist()}, seed)
    R = math.sqrt(3.0)  # default x0 = a + 1
    N = 400
    out.append(Canon(
        "const_subgrad-norm2",
        {"problem": {"name": "norm2", "params": {"a": a.tolist()}},
         "method": {"name": "const_subgrad", "params": {"R": R, "averaging": True}}},
        N, None,
        lambda s, M=oracle.M, R=R, N=N: _status(s, ("budget_exhausted",))
        + _le(s["final_gap"], M * R / math.sqrt(N) * (1 + PRINT_SLACK), "final_gap")))

    # switching on slp: the best productive point has f - f* <= delta once the scheme stops.
    x0 = rng.uniform(-0.2, 0.2, 2)
    delta = 0.035  # 2 theta0^2 / delta^2 = 1633 steps: as long as the other heavy ops, so p90 sits in a cluster
    out.append(Canon(
        "switching-slp",
        {"problem": {"name": "slp", "params": {"rho": 1.0}},
         "method": {"name": "switching", "params": {"delta": delta, "theta0": 1.0}},
         "x0": x0.tolist()},
        5000, None,
        lambda s, delta=delta: _status(s, ("converged",))
        + _le(s["final_gap"], delta * (1 + PRINT_SLACK), "final_gap")))

    # restarted_switching on slp: dist <= eps within ceil(4/alpha^2) * stages steps (criterion 3).
    eps, alpha = 0.05, 0.5
    stages = math.ceil(2 * math.log2(1.0 / eps))
    budget = math.ceil(4 * 1.0 * 1.0 / alpha ** 2) * stages  # M = Mg = rho = 1
    out.append(Canon(
        "restarted_switching-slp",
        {"problem": {"name": "slp", "params": {"rho": 1.0}},
         "method": {"name": "restarted_switching",
                    "params": {"eps": eps, "theta0": 1.0, "alpha": alpha}},
         "x0": x0.tolist()},
        100_000, None,
        lambda s, eps=eps, budget=budget: _status(s, ("converged",))
        + _le(s["final_dist"], eps, "final_dist")
        + _fail(s["iters"] <= budget, f"{s['iters']} steps exceed the stated {budget}")))

    # gd on degenerate3 (PL, not strongly convex): gap_k <= (1 - mu/L)^k gap_0.
    oracle, _ = make_problem("degenerate3", {"l1": 1.0, "l2": 0.1}, seed)
    x0 = np.ones(3) + rng.uniform(-0.2, 0.2, 3)
    L, mu = oracle.L, oracle.mu
    gap0 = 1.0 * x0[0] ** 2 + 0.1 * x0[1] ** 2
    out.append(Canon(
        "gd-degenerate3",
        {"problem": {"name": "degenerate3", "params": {"l1": 1.0, "l2": 0.1}},
         "method": "gd", "x0": x0.tolist()},
        2000, "geometric",
        lambda s, mu=mu: _status(s, ("converged",))
        + _le(s["final_gap"], GD_TOL ** 2 / (2 * mu) * (1 + PRINT_SLACK), "final_gap (PL)"),
        _rows_gap_bound(lambda k, L=L, mu=mu, g0=gap0: (1 - mu / L) ** k * g0, "PL rate"),
        _geometric_below(1 - mu / L)))

    # gd_abs on quad_diag under random-direction absolute noise (criterion 5's plateau).
    lam = np.array([10.0, 1.0])
    x0 = np.ones(2) * (1 + rng.uniform(-0.1, 0.1, 2))
    delta, c = 0.1, 2.0
    gap0 = 0.5 * float(lam @ (x0 * x0))
    out.append(Canon(
        "gd_abs-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "noise": {"kind": "absolute_grad", "delta": delta, "mode": "random_direction"},
         "method": "gd_abs", "x0": x0.tolist()},
        500, None,
        # at the early stop ||grad f|| <= ||g~|| + delta <= (c + 1) delta
        lambda s, mu=lam.min(): _status(s, ("early_stopped", "converged"))
        + _le(s["final_gap"], ((c + 1) * delta) ** 2 / (2 * mu) * (1 + PRINT_SLACK), "final_gap"),
        _rows_gap_bound(lambda k, g0=gap0, r=1 - lam.min() / lam.max(), mu=lam.min():
                        r ** k * g0 + delta ** 2 / (2 * mu), "plateau bound")))

    # gd_rel on the Nesterov-Skokov toy: descent with L = 2 on |x2| <= 1, then the
    # minimizer (0, 1) where the Hessian is diag(1, 2): dist <= ||grad|| / 1.
    x0 = np.array([rng.uniform(0.5, 1.0), rng.uniform(0.3, 0.8)])
    out.append(Canon(
        "gd_rel-nesterov_skokov_toy",
        {"problem": "nesterov_skokov_toy",
         "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "shrink"},
         "method": "gd_rel", "x0": x0.tolist()},
        2000, "geometric",
        lambda s: _status(s, ("converged",)) + _le(s["final_dist"], 1e-9, "final_dist"),
        _rows_descent))

    # gd_rel_adaptive on rosenbrock: every accepted step satisfies the exit
    # inequality, which implies f(x+) <= f(x) - h ||g~||^2 (1-2a)/(2(1-a)).
    x0 = np.array([-1.2, 1.0]) + rng.uniform(-0.05, 0.05, 2)
    f0 = 100.0 * (x0[1] - x0[0] ** 2) ** 2 + (1.0 - x0[0]) ** 2
    out.append(Canon(
        "gd_rel_adaptive-rosenbrock",
        {"problem": "rosenbrock",
         "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"},
         "method": {"name": "gd_rel_adaptive", "params": {"L0": 1.0}}, "x0": x0.tolist()},
        1500, None,
        lambda s, f0=f0: _status(s, ("converged", "budget_exhausted"))
        + _le(s["final_gap"], f0, "final_gap"),
        _rows_descent))

    # heavy_ball / chebyshev stop at ||grad f(x)|| <= tol, so dist(x) <= tol / mu.
    lam = np.array([50.0 * (1 + 0.2 * rng.uniform()), 1.0])
    x0 = np.ones(2) + rng.uniform(-0.2, 0.2, 2)
    out.append(Canon(
        "heavy_ball-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "method": "heavy_ball", "x0": x0.tolist()},
        2000, "geometric",
        lambda s, mu=lam.min(): _status(s, ("converged",))
        + _le(s["final_dist"], GD_TOL / mu * (1 + PRINT_SLACK), "final_dist")))

    lam = np.array([50.0, rng.uniform(2.0, 40.0), 1.0])
    x0 = np.ones(3) + rng.uniform(-0.2, 0.2, 3)
    out.append(Canon(
        "chebyshev-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "method": "chebyshev", "x0": x0.tolist()},
        2000, "geometric",
        lambda s, mu=lam.min(): _status(s, ("converged",))
        + _le(s["final_dist"], GD_TOL / mu * (1 + PRINT_SLACK), "final_dist")))

    # nesterov_sc: f(x_k) - f* <= (1 - sqrt(mu/L))^k (f(x_0) - f* + mu/2 ||x_0 - x*||^2).
    lam = np.array([400.0, 1.0])
    x0 = np.ones(2) + rng.uniform(-0.2, 0.2, 2)
    start = 0.5 * float(lam @ (x0 * x0)) + 0.5 * lam.min() * float(x0 @ x0)
    rate = 1 - math.sqrt(lam.min() / lam.max())
    out.append(Canon(
        "nesterov_sc-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "method": "nesterov_sc", "x0": x0.tolist()},
        2000, "geometric",
        lambda s: _status(s, ("converged",)),
        _rows_gap_bound(lambda k, r=rate, s0=start: r ** k * s0, "strongly convex rate")))

    # nesterov_cvx on degenerate3: f(x_k) - f* <= 2 L dist(x_0, X*)^2 / (k+1)^2.
    x0 = np.ones(3) + rng.uniform(-0.2, 0.2, 3)
    oracle, _ = make_problem("degenerate3", {"l1": 1.0, "l2": 0.1}, seed)
    d0 = math.hypot(x0[0], x0[1])  # X* is the x3 axis
    out.append(Canon(
        "nesterov_cvx-degenerate3",
        {"problem": {"name": "degenerate3", "params": {"l1": 1.0, "l2": 0.1}},
         "method": "nesterov_cvx", "x0": x0.tolist()},
        1000, "sublinear",
        lambda s: _status(s, ("converged", "budget_exhausted")),
        _rows_gap_bound(lambda k, L=oracle.L, d0=d0: 2 * L * d0 * d0 / (k + 1) ** 2, "convex rate")))

    # taylor_drori: ||z_k - x*||^2 <= ||x_0 - x*||^2 / (1 + q A_k), q = mu/L.
    lam = np.array([4.0, 1.0])
    x0 = np.ones(2) + rng.uniform(-0.2, 0.2, 2)
    d0 = float(np.linalg.norm(x0))
    q = lam.min() / lam.max()
    out.append(Canon(
        "taylor_drori-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "method": "taylor_drori", "x0": x0.tolist()},
        1000, "geometric",
        lambda s, d0=d0, q=q: _status(s, ("converged",)) + _le(
            None if s["final_dist"] is None else s["final_dist"] ** 2,
            d0 * d0 / (1 + q * _taylor_drori_A(q, s["iters"])) * (1 + PRINT_SLACK), "||z_k - x*||^2")))

    # cg_quadratic: exact minimizer in d steps (criterion 8): ||grad|| <= 1e-8 => dist <= 1e-8 / mu.
    lam = np.sort(rng.uniform(1.0, 100.0, 5))
    x0 = rng.normal(size=5)
    out.append(Canon(
        "cg_quadratic-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam.tolist()}},
         "method": "cg_quadratic", "x0": x0.tolist()},
        5, None,
        lambda s, mu=float(lam[0]): _status(s, ("budget_exhausted", "converged"))
        + _le(s["final_dist"], 1e-8 / mu, "final_dist")))

    # frank_wolfe (open-loop 2/(k+1)) on fw_box: f(x^k) - f* <= 2 L D^2 / (k + 1).
    oracle, fset = make_problem("fw_box", {}, seed)
    x0 = np.array([rng.uniform(-1.0, 1.0), rng.uniform(0.0, 1.0)])
    N = 400
    LD2 = 2.0 * oracle.L * fset.diameter ** 2
    out.append(Canon(
        "frank_wolfe-fw_box",
        {"problem": "fw_box", "method": "frank_wolfe", "x0": x0.tolist()},
        N, "sublinear",
        lambda s, b=LD2 / (N + 1): _status(s, ("budget_exhausted", "converged"))
        + _le(s["final_gap"], b * (1 + PRINT_SLACK), "final_gap"),
        _rows_gap_bound(lambda k, b=LD2: b / (k + 1), "Frank-Wolfe rate", first_iter=2)))

    # sgd with Decay(0.5, 0.6) and uniform averaging: x_bar is gaussian, so
    # ||x_bar - x*||^2 <= 50 E||x_bar - x*||^2 fails with probability < 1e-9.
    lam = [2.0, 1.0]
    x0 = rng.uniform(-1.0, 1.0, 2)
    N = 2000
    mse = averaged_sgd_mse(lam, 1.0, x0, N, 0.5, 0.6)
    out.append(Canon(
        "sgd-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": lam}},
         "noise": {"kind": "additive_stoch_grad", "sigma": 1.0},
         "method": {"name": "sgd", "params": {"step_rule": "decay", "gamma0": 0.5, "eta": 0.6,
                                              "averaging": "uniform"}},
         "x0": x0.tolist()},
        N, None,
        lambda s, mse=mse: _status(s, ("budget_exhausted",))
        + _le(None if s["final_dist"] is None else s["final_dist"] ** 2, 50 * mse, "||x_bar - x*||^2")))

    # zo_sgd: 2 * batch zeroth-order calls per iteration, and the run descends.
    x0 = np.ones(2) + rng.uniform(-0.2, 0.2, 2)
    N, b = 500, 1
    gap0 = 0.5 * float(x0 @ x0)
    out.append(Canon(
        "zo_sgd-quad_diag",
        {"problem": {"name": "quad_diag", "params": {"lambdas": [1.0, 1.0]}},
         "noise": {"kind": "zo_stoch", "delta_tilde": 0.01},
         "method": {"name": "zo_sgd", "params": {"gamma": 0.005, "tau": 0.01, "beta": 2}},
         "x0": x0.tolist()},
        N, None,
        lambda s, g0=gap0, lo=2 * b * N, hi=2 * b * N + N + 2: _status(s, ("budget_exhausted",))
        + _le(s["final_gap"], g0, "final_gap")
        + _fail(lo <= s["oracle_calls"] <= hi, f"oracle_calls {s['oracle_calls']} not in [{lo}, {hi}]")))

    return out
