"""The rate bounds the paper states, one function each, with its source.

Each function gives the right-hand side of one guarantee at iteration
``k`` (or run length ``N``) from the instance's constants, computed in
the one order written here; a check adds its own rounding slack.  No run
imports this module.
"""

import math


def polyak_sharp_dist2(alpha: float, M: float, k: int, d0: float) -> float:
    """``dist(x^k)^2``: Polyak's step on an alpha-sharp, M-Lipschitz f (USSR Comput. Math. Math. Phys. 9, 1969)."""
    return (1.0 - (alpha / M) ** 2) ** k * d0 ** 2


def pl_gap(mu: float, L: float, k: int, gap0: float, delta: float = 0.0) -> float:
    """``f(x^k) - f*``: step 1/L on an L-smooth, mu-PL f with gradient errors ``<= delta``.

    Karimi, Nutini and Schmidt, ECML PKDD 2016, Theorem 1; an error adds
    ``delta^2/(2L)`` per step, ``delta^2/(2 mu)`` in all.
    """
    return (1 - mu / L) ** k * gap0 + delta ** 2 / (2 * mu)


def rel_noise_gap(mu: float, L: float, alpha: float, k: int, gap0: float) -> float:
    """``f(x^k) - f*``: step ``(1-alpha)/(L (1+alpha)^2)`` on an L-smooth, mu-PL f, ``||g~ - g|| <= alpha ||g||``.

    Polyak, "Introduction to Optimization", 1987; surveyed in arXiv:2311.16743.
    """
    return (1 - (mu / L) * (1 - alpha) ** 2 / (1 + alpha) ** 2) ** k * gap0


def rel_noise_adaptive_gap(mu: float, L: float, alpha: float, k: int, gap0: float) -> float:
    """``f(x^k) - f*``: the L-doubling step from ``L0 <= L``, relative errors ``alpha < 1/2`` (arXiv:2311.16743)."""
    return (1 - (mu / (2 * L)) * (1 - 2 * alpha) ** 2) ** k * gap0


def sgd_stationary_variance(gamma: float, sigma: float, mu: float) -> float:
    """Stationary ``E x^2`` of constant-step SGD on ``mu x^2/2``: AR(1) ``x+ = (1 - gamma mu) x - gamma sigma xi``."""
    return gamma * sigma ** 2 / (mu * (2 - gamma * mu))


def sgd_mean_square(gamma: float, sigma: float, mu: float, k: int, d0: float) -> float:
    """``E ||x^k - x*||^2``: constant-step SGD, ``gamma <= 1/(2L)`` (Gower et al., ICML 2019, Theorem 3.1)."""
    return d0 ** 2 * (1 - gamma * mu) ** k + 2 * gamma * sigma ** 2 / mu


def budget_step_gap(M: float, R: float, N: int) -> float:
    """``f(x_avg) - f*``: N averaged subgradient steps ``R/(M sqrt(N))`` (Nesterov, Lectures on Convex Opt., Ch. 3)."""
    return M * R / math.sqrt(N)


def nesterov_cvx_gap(L: float, dist0_sq: float, k: int) -> float:
    """``f(x^k) - f*``: momentum ``(k-1)/(k+2)`` on an L-smooth convex f; loose form of ``2 L R^2/(k+1)^2``.

    Nesterov, Soviet Math. Dokl. 27, 1983; for this momentum, Su, Boyd and Candes, JMLR 17, 2016.
    """
    return 4 * L * dist0_sq / k ** 2


def frank_wolfe_gap(L: float, D: float, k: int) -> float:
    """``f(x^k) - f*``: the step ``2/(k+1)`` on a set of diameter D (Jaggi, ICML 2013, Theorem 1)."""
    return 2 * L * D * D / (k + 2)
