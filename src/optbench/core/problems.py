"""Built-in problem catalog.

``make_problem(name, params, seed)`` returns an oracle suite with every
analytically known constant filled in, together with the problem's
feasible set.  Instances that need data (random linear systems, phase
retrieval, logistic regression) generate it deterministically from the
seed.

Subgradient selections at kinks are deterministic: the minimal-norm
element where it is cheap (``sign(0) = 0`` for absolute values), and the
lowest achieving index for max-type functions.

Every callable returns the bits of its plain numpy form on every input,
``+-0.0``, subnormals, ``+-inf`` and NaN included.  The small closed forms
compute on the Python floats of ``x.tolist()``, through :func:`_on_floats`
where they take powers.  Powers stay ``**``, which is libm's ``pow`` as in
numpy (``v * v`` rounds differently on about one input in a thousand), and
an overflow gives ``inf`` as numpy does.

The ``value`` of ``quad_diag``, ``degenerate3``, ``norm2`` and ``slp``
carries a ``rows`` attribute: ``value.rows(X)`` gives the values of the
rows of a float64 ``(n, d)`` array as one array, with the bits of n
calls, so a caller may evaluate many points in one call (the kernel
estimator's probes, a trace block's rows).  The problems whose f takes
a power keep per-point calls: nothing shows that numpy's array ``**``
gives libm ``pow``'s bits.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .linalg import norm, number, row_dots
from .oracles import ConstraintOracle, OracleSuite, QuadraticForm
from .rng import Rng
from .sets import Box, FeasibleSet, FullSpace


class UnknownProblemError(ValueError):
    pass


def _check_params(params: dict, allowed: tuple):
    """Refuse unknown, non-finite and non-number params; turn the whole-number ones into ints in place.

    A list's entries must each be a number: numpy would read ``"1"`` or ``true`` as one.
    """
    unknown = set(params).difference(allowed)
    if unknown:
        raise ValueError(f"unknown params {sorted(unknown)}; allowed: {sorted(allowed)}")
    for key, value in params.items():
        if not _all_finite(value):
            raise ValueError(f"param {key!r} must hold finite numbers only, got {value!r}")
        if key in _WHOLE_PARAMS:
            params[key] = number(value, f"param {key!r}", whole=True, least=1)
        elif key in _REAL_PARAMS:
            number(value, f"param {key!r}")
        elif isinstance(value, list):
            for v in value:
                number(v, f"param {key!r} entry")


def _all_finite(value) -> bool:
    """False when ``value`` is, or nests, a NaN or an infinite float."""
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "fc" or bool(np.isfinite(value).all())
    return not isinstance(value, (float, np.floating)) or math.isfinite(value)


def _on_floats(f):
    """``f(x0, x1)`` on a 2-vector's entries as Python floats, which skip numpy's per-scalar dispatch.

    Where the results could differ, ``f`` runs on numpy float64 scalars instead: Python's ``**`` raises
    OverflowError where numpy's gives inf, and of two NaN operands each may pass on a different one.
    """
    def on_floats(x):
        x0, x1 = x.tolist()
        if x0 == x0 and x1 == x1:  # no NaN
            try:
                return f(x0, x1)
            except OverflowError:
                pass
        return f(x[0], x[1])
    return on_floats


def _abs1d(params: dict, seed: int):
    def value(x):
        return abs(float(x[0]))

    def subgrad(x):
        return np.array([np.sign(x[0])])

    oracle = OracleSuite(
        value=value, subgrad=subgrad, dim=1,
        fstar=0.0, xstar=np.zeros(1), M=1.0, alpha_sharp=1.0,
    )
    return oracle, FullSpace(1), np.array([1.0])


def _l1_system(params: dict, seed: int):
    d = params.get("d", 5)
    m = params.get("m", 8)
    if m < d:
        raise ValueError("needs m >= d for a unique solution")
    rng = Rng(seed)
    A = rng.gaussian((m, d))
    x_true = rng.gaussian(d)
    b = A @ x_true
    AT = A.T

    def value(x):
        return float(np.abs(A.dot(x) - b).sum())

    def subgrad(x):
        return AT.dot(np.sign(A.dot(x) - b))

    sigma_min = float(np.linalg.svd(A, compute_uv=False)[-1])
    if sigma_min <= 0:
        raise ValueError("degenerate instance: smallest singular value is zero")
    row_norm_sum = float(np.sum(np.linalg.norm(A, axis=1)))
    oracle = OracleSuite(
        value=value, subgrad=subgrad, dim=d,
        fstar=0.0, xstar=x_true,
        # ||A u||_1 >= ||A u||_2 >= sigma_min ||u||_2 gives a valid (possibly
        # loose) sharp-minimum constant; row-norm sum bounds every subgradient.
        M=row_norm_sum, alpha_sharp=sigma_min,
    )
    return oracle, FullSpace(d), np.zeros(d)


def _norm2(params: dict, seed: int):
    if "a" in params:
        a = np.asarray(params["a"], dtype=float)
        if a.ndim != 1:
            raise ValueError(f"a must be a list of numbers, got {params['a']!r}")
        d = a.shape[0]
    else:
        d = params.get("d", 3)
        a = np.zeros(d)

    def value(x):
        return norm(x - a)

    def rows(X):
        """``value`` of each row of a ``(n, d)`` array, with the bits of n calls."""
        Z = X - a
        return np.sqrt(row_dots(Z, Z))

    value.rows = rows

    def subgrad(x):
        z = x - a
        n = norm(z)
        return z / n if n > 0 else np.zeros(d)

    oracle = OracleSuite(
        value=value, subgrad=subgrad, dim=d,
        fstar=0.0, xstar=a.copy(), M=1.0, alpha_sharp=1.0,
    )
    return oracle, FullSpace(d), a + np.ones(d)


def _quad_diag(params: dict, seed: int):
    lam = np.asarray(params.get("lambdas", [10.0, 1.0]), dtype=float)
    if lam.ndim != 1 or lam.size == 0 or np.any(lam <= 0):
        raise ValueError("lambdas must be a 1-d array of positive numbers")
    d = lam.shape[0]
    a = np.asarray(params.get("shift", np.zeros(d)), dtype=float)
    if a.shape != (d,):
        raise ValueError("shift must match the dimension of lambdas")
    shifted = np.signbit(a).any() or a.any()  # x - (+0.0) is x, but -0.0 - (-0.0) is +0.0

    def value(x):
        z = x - a if shifted else x
        return 0.5 * float((lam * z).dot(z))

    def rows(X):
        """``value`` of each row of a ``(n, d)`` array, with the bits of n calls."""
        Z = X - a if shifted else X
        return 0.5 * row_dots(lam * Z, Z)

    value.rows = rows

    def grad(x):
        return lam * (x - a) if shifted else lam * x

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=d,
        fstar=0.0, xstar=a.copy(),
        L=float(np.max(lam)), mu=float(np.min(lam)),
        quadratic=QuadraticForm(matvec=lambda v: lam * v),
    )
    return oracle, FullSpace(d), a + np.ones(d)


def _fw_box(params: dict, seed: int):
    @_on_floats
    def value(x0, x1):
        return float(x0 ** 2 + (1.0 + x1) ** 2)

    def grad(x):
        x = x.tolist()
        return np.array([2.0 * x[0], 2.0 * (1.0 + x[1])])

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=2,
        fstar=1.0, xstar=np.zeros(2),
        L=2.0, mu=2.0, M=float(math.sqrt(20.0)),
    )
    return oracle, Box(np.array([-1.0, 0.0]), np.array([1.0, 1.0])), np.array([1.0, 1.0])


def _degenerate3(params: dict, seed: int):
    l1 = float(params.get("l1", 1.0))
    l2 = float(params.get("l2", 0.1))
    if not l1 > l2 > 0:
        raise ValueError("requires l1 > l2 > 0")
    lam = np.array([l1, l2, 0.0])

    def value(x):
        return float((lam * x).dot(x))  # BLAS's dot may fuse multiply-adds, which Python floats cannot

    def rows(X):
        """``value`` of each row of a ``(n, 3)`` array, with the bits of n calls."""
        return row_dots(lam * X, X)

    value.rows = rows

    def grad(x):
        x = x.tolist()
        return np.array([2.0 * l1 * x[0], 2.0 * l2 * x[1], 0.0 * x[2]])

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=3,
        fstar=0.0, xstar=np.zeros(3),
        # f = l1 x1^2 + l2 x2^2 has Hessian 2 diag(l1,l2,0).
        L=2.0 * l1, mu=2.0 * l2,
        dist_fn=lambda x: math.hypot(x[0], x[1]),  # X* is the x3 axis
    )
    return oracle, FullSpace(3), np.zeros(3)


def _rosenbrock(params: dict, seed: int):
    @_on_floats
    def value(x0, x1):
        return float(100.0 * (x1 - x0 ** 2) ** 2 + (1.0 - x0) ** 2)

    @_on_floats
    def grad(x0, x1):
        t = x1 - x0 ** 2
        return np.array([-400.0 * t * x0 - 2.0 * (1.0 - x0), 200.0 * t])

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=2,
        fstar=0.0, xstar=np.array([1.0, 1.0]),
    )
    return oracle, FullSpace(2), np.array([-1.2, 1.0])


def _nesterov_skokov_toy(params: dict, seed: int):
    @_on_floats
    def value(x0, x1):
        return float(0.5 * x0 ** 2 + 0.25 * x1 ** 4 - 0.5 * x1 ** 2)

    @_on_floats
    def grad(x0, x1):
        return np.array([x0, x1 ** 3 - x1])

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=2,
        fstar=-0.25, xstar=np.array([0.0, 1.0]),
        minimizers=(np.array([0.0, 1.0]), np.array([0.0, -1.0])),
        L=2.0,  # |d^2f/dx2^2| = |3 x2^2 - 1| <= 2 on the GD-invariant band |x2| <= 1
    )
    return oracle, FullSpace(2), np.array([1.0, 0.0])


def _phase_retrieval(params: dict, seed: int):
    m = params.get("m", 25)
    n = params.get("n", 5)
    rng = Rng(seed)
    A = rng.gaussian((m, n))
    xs = rng.gaussian(n)
    xs = xs / np.linalg.norm(xs)
    b = (A @ xs) ** 2  # noiseless measurements: f* = 0 with a sharp minimum

    def value(x):
        return float(np.mean(np.abs((A @ x) ** 2 - b)))

    def subgrad(x):
        ax = A @ x
        return (2.0 / m) * (A.T @ (np.sign(ax ** 2 - b) * ax))

    weak_mu = 2.0 * float(np.max(np.sum(A * A, axis=1)))
    oracle = OracleSuite(
        value=value, subgrad=subgrad, dim=n,
        fstar=0.0, xstar=xs, minimizers=(xs, -xs),
        mu=weak_mu,  # weak-convexity modulus, 2 max_i ||a_i||^2
    )
    x0 = xs + 0.1 * rng.sphere(n)
    return oracle, FullSpace(n), x0


def _slp(params: dict, seed: int):
    rho = float(params.get("rho", 1.0))
    if rho <= 0:
        raise ValueError("rho must be positive")
    angles = np.pi * np.arange(20) / 10.0
    C = rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)  # rows: constraint gradients

    def value(x):
        return -float(x[0])

    def rows(X):
        """``value`` of each row of a ``(n, 2)`` array, with the bits of n calls."""
        return -X[:, 0]

    value.rows = rows

    def subgrad(x):
        return np.array([-1.0, 0.0])

    def g_value(x):
        # Shifting after the max gives the same bits: rounding t - rho is monotone in t,
        # and a NaN propagates through both forms.  t[t.argmax()] is the max without
        # ndarray.max's Python-level wrapper; argmax picks the first NaN, whose sign
        # may differ from the NaN that max returns, so a NaN is taken from max.
        t = C.dot(x)
        m = float(t[t.argmax()])
        if m != m:
            m = float(t.max())
        return m - rho

    def g_subgrad(x):
        # The argmax stays on the shifted vector: rounding can merge two distinct rows
        # into a tie, which goes to the lowest index.
        return C[(C.dot(x) - rho).argmax()].copy()

    # The optimal face is the segment {1} x [-tan(pi/20), tan(pi/20)].
    half_edge = math.tan(math.pi / 20.0)

    def dist_fn(x):
        x = x.tolist()
        t = min(max(x[1], -half_edge), half_edge)
        return math.hypot(x[0] - 1.0, x[1] - t)

    oracle = OracleSuite(
        value=value, subgrad=subgrad, grad=subgrad, dim=2,
        fstar=-1.0, xstar=np.array([1.0, 0.0]), dist_fn=dist_fn,
        M=1.0, alpha_sharp=rho / 2.0,
        constraint=ConstraintOracle(value=g_value, subgrad=g_subgrad, lipschitz=rho),
    )
    return oracle, FullSpace(2), np.zeros(2)


def _logistic_small(params: dict, seed: int):
    n = params.get("n", 20)
    d = params.get("d", 3)
    r = float(params.get("box_radius", 2.0))
    rng = Rng(seed)
    A = rng.gaussian((n, d))
    w = rng.gaussian(d)
    b = np.sign(A @ w)
    b[b == 0] = 1.0

    def value(x):
        return float(np.sum(np.logaddexp(0.0, b * (A @ x))))

    def grad(x):
        s = 1.0 / (1.0 + np.exp(-b * (A @ x)))
        return A.T @ (b * s)

    oracle = OracleSuite(
        value=value, subgrad=grad, grad=grad, dim=d,
        L=0.25 * float(np.linalg.norm(A, 2)) ** 2,
        M=float(np.sum(np.linalg.norm(A, axis=1))),
    )
    return oracle, Box(-r * np.ones(d), r * np.ones(d)), np.zeros(d)


_WHOLE_PARAMS = ("d", "m", "n")  # dimensions and sample counts (>= 1), in every problem that takes them
_REAL_PARAMS = ("l1", "l2", "rho", "box_radius")  # real scalars; a list param (a, lambdas, shift) is read entry by entry

# name -> (builder, summary, allowed params)
_CATALOG: dict[str, tuple[Callable, str, tuple]] = {
    "abs1d": (_abs1d, "f = |x| on R; sharp minimum at 0", ()),
    "l1_system": (_l1_system, "f = sum_i |<a_i,x> - b_i| for a consistent system (params d, m)", ("d", "m")),
    "norm2": (_norm2, "f = ||x - a||_2; sharp minimum at a (params d or a)", ("d", "a")),
    "quad_diag": (_quad_diag, "f = 0.5 sum_i lam_i (x_i - a_i)^2 (params lambdas, shift)", ("lambdas", "shift")),
    "fw_box": (_fw_box, "f = x1^2 + (1+x2)^2 on [-1,1]x[0,1]", ()),
    "degenerate3": (_degenerate3, "f = <Ax,x>, A = diag(l1,l2,0); PL but not strongly convex", ("l1", "l2")),
    "rosenbrock": (_rosenbrock, "f = 100(x2-x1^2)^2 + (1-x1)^2", ()),
    "nesterov_skokov_toy": (_nesterov_skokov_toy, "f = x1^2/2 + x2^4/4 - x2^2/2; saddle at origin", ()),
    "phase_retrieval": (_phase_retrieval, "f = mean_i |<a_i,x>^2 - b_i|, planted +-x*, f*=0 (params m, n)",
                        ("m", "n")),
    "slp": (_slp, "f = -x1 with 20 tangent half-plane constraints as max-type g (param rho)", ("rho",)),
    "logistic_small": (_logistic_small, "logistic loss on a compact box (params n, d, box_radius)",
                       ("n", "d", "box_radius")),
}


def problem_names() -> list[str]:
    return sorted(_CATALOG)


def problem_doc(name: str) -> str:
    return _CATALOG[name][1]


def make_problem(name: str, params: Optional[dict] = None, seed: int = 0) -> tuple[OracleSuite, FeasibleSet]:
    """Instantiate a catalog problem. Raises UnknownProblemError for bad names."""
    oracle, fset, _ = _build(name, params, seed)
    return oracle, fset


def default_x0(name: str, params: Optional[dict] = None, seed: int = 0) -> np.ndarray:
    """The documented default starting point of a catalog problem."""
    _, _, x0 = _build(name, params, seed)
    return x0


def _build(name: str, params: Optional[dict], seed: int):
    if not isinstance(name, str) or name not in _CATALOG:
        raise UnknownProblemError(f"unknown problem {name!r}; available: {', '.join(problem_names())}")
    builder, _, allowed = _CATALOG[name]
    params = dict(params or {})
    try:
        _check_params(params, allowed)
        return builder(params, int(seed))
    except (TypeError, ValueError) as e:  # a JSON value of the wrong type raises TypeError in numpy
        raise ValueError(f"problem {name!r}: {e}") from None
