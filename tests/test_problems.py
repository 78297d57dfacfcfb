import dataclasses
import itertools
import json
import math
import warnings

import numpy as np
import pytest

from optbench.bench import parse_config, run_experiment
from optbench.core import (
    AbsoluteGrad,
    AdditiveStochGrad,
    Box,
    FullSpace,
    NoNoise,
    NoiseCompatibilityError,
    RelativeGrad,
    Rng,
    UnknownProblemError,
    ZOBoundedValue,
    ZOStochValue,
    default_x0,
    make_problem,
    norm,
    problem_names,
    wrap_noise,
)
from optbench.core import noise as noise_module
from optbench.core.linalg import SCREEN_MAX_DIM
from optbench.core.noise import NOISE_KINDS
from optbench.core.oracles import OracleSuite
from optbench.core.problems import _CATALOG


def test_abs1d_constants():
    oracle, fset = make_problem("abs1d")
    assert oracle.fstar == 0.0
    assert np.array_equal(oracle.xstar, [0.0])
    assert oracle.M == 1.0 and oracle.alpha_sharp == 1.0
    assert isinstance(fset, FullSpace)
    assert oracle.subgrad(np.array([0.0]))[0] == 0.0  # minimal-norm selection at the kink
    assert oracle.subgrad(np.array([-2.0]))[0] == -1.0


def test_quad_diag_constants_and_structure():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    assert oracle.L == 10.0 and oracle.mu == 1.0 and oracle.fstar == 0.0
    x = np.array([1.0, 2.0])
    assert oracle.value(x) == pytest.approx(0.5 * (10 + 4))
    np.testing.assert_allclose(oracle.grad(x), [10.0, 2.0])
    np.testing.assert_allclose(oracle.quadratic.matvec(x), [10.0, 2.0])


def test_quad_diag_shift():
    a = np.array([1.0, -1.0])
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0], "shift": a.tolist()})
    assert oracle.value(a) == 0.0
    np.testing.assert_allclose(oracle.xstar, a)
    np.testing.assert_allclose(oracle.grad(a), [0.0, 0.0])


def test_slp_instance():
    oracle, _ = make_problem("slp", {"rho": 1.0})
    assert oracle.fstar == -1.0
    np.testing.assert_allclose(oracle.xstar, [1.0, 0.0])
    assert oracle.alpha_sharp == 0.5 and oracle.M == 1.0
    g = oracle.constraint
    assert g.lipschitz == 1.0
    # (1, 0) is feasible and optimal; the j = 0 row is active there
    assert g.value(np.array([1.0, 0.0])) == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(g.subgrad(np.array([2.0, 0.0])), [1.0, 0.0])
    assert g.value(np.zeros(2)) == pytest.approx(-1.0)


def test_slp_conditional_sharpness_measured():
    # The instance does satisfy a conditional sharp minimum, but the binding
    # directions sit at the polygon vertices adjacent to the optimal face and
    # give the constant sin(pi/20) ~ 0.156 at rho = 1, not the advertised
    # rho/2 carried by alpha_sharp.
    oracle, _ = make_problem("slp", {"rho": 1.0})
    g = oracle.constraint
    alpha_true = math.sin(math.pi / 20.0)
    worst = math.inf
    rng = Rng(2)
    for _ in range(2000):
        x = np.array([1.0, 0.0]) + rng.gaussian(2) * rng.uniform(0.001, 1.0)
        d = oracle.dist_to_opt(x)
        if d < 1e-9:
            continue
        ratio = max(oracle.value(x) - oracle.fstar, g.value(x)) / d
        worst = min(worst, ratio)
        assert ratio >= alpha_true * (1 - 1e-9)
    # the adversarial direction at the vertex attains the constant
    vertex = np.array([1.0, -math.tan(math.pi / 20.0)])
    direction = np.array([-alpha_true, -math.sqrt(1 - alpha_true ** 2)])
    x = vertex + 1e-3 * direction
    ratio = max(oracle.value(x) - oracle.fstar, g.value(x)) / oracle.dist_to_opt(x)
    assert ratio == pytest.approx(alpha_true, rel=1e-3)
    assert worst < 0.5  # the rho/2 value overstates the instance constant


def test_l1_system_constants_are_valid_bounds():
    oracle, _ = make_problem("l1_system", {"d": 5, "m": 8}, seed=3)
    xs = oracle.xstar
    assert oracle.value(xs) == pytest.approx(0.0, abs=1e-10)
    rng = Rng(10)
    for _ in range(500):
        x = xs + rng.gaussian(5) * 2
        # sharpness with alpha = sigma_min and Lipschitz bound M hold everywhere
        assert oracle.value(x) >= oracle.alpha_sharp * np.linalg.norm(x - xs) - 1e-9
        assert np.linalg.norm(oracle.subgrad(x)) <= oracle.M + 1e-9


def test_norm2_kink_and_polyak_constants():
    oracle, _ = make_problem("norm2", {"d": 3})
    assert np.linalg.norm(oracle.subgrad(np.zeros(3))) == 0.0
    x = np.array([1.0, 2.0, 2.0])
    assert oracle.value(x) == pytest.approx(3.0)
    assert np.linalg.norm(oracle.subgrad(x)) == pytest.approx(1.0)


def test_nesterov_skokov_stationary_structure():
    oracle, _ = make_problem("nesterov_skokov_toy")
    assert oracle.fstar == -0.25
    for m in oracle.minimizers:
        assert oracle.value(m) == pytest.approx(-0.25)
        np.testing.assert_allclose(oracle.grad(m), [0.0, 0.0], atol=1e-15)
    # the origin is stationary but not minimizing
    assert np.linalg.norm(oracle.grad(np.zeros(2))) == 0.0
    assert oracle.value(np.zeros(2)) == 0.0 > oracle.fstar


def test_fw_box_and_degenerate3():
    oracle, fset = make_problem("fw_box")
    assert isinstance(fset, Box)
    assert oracle.fstar == 1.0 and oracle.L == 2.0
    assert oracle.value(np.zeros(2)) == 1.0

    oracle, _ = make_problem("degenerate3", {"l1": 1.0, "l2": 0.1})
    assert oracle.L == 2.0 and oracle.mu == pytest.approx(0.2)
    np.testing.assert_allclose(oracle.grad(np.array([1.0, 1.0, 5.0])), [2.0, 0.2, 0.0])
    assert oracle.dist_to_opt(np.array([0.0, 0.0, 9.0])) == 0.0  # X* is the x3 axis


def test_phase_retrieval_planted_and_annulus():
    oracle, _ = make_problem("phase_retrieval", {"m": 25, "n": 5}, seed=1)
    xs = oracle.xstar
    assert oracle.value(xs) == pytest.approx(0.0, abs=1e-12)
    assert oracle.value(-xs) == pytest.approx(0.0, abs=1e-12)
    assert oracle.dist_to_opt(-xs) == 0.0

    # estimate the instance sharpness near X* by sampling directions
    rng = Rng(77)
    r = 1e-3
    alpha_hat = min(oracle.value(xs + r * rng.sphere(5)) / r for _ in range(200)) * 0.95
    assert alpha_hat > 0
    # no stationary points in the annulus 0 < dist < 2 alpha / mu
    radius = 2 * alpha_hat / oracle.mu
    for _ in range(300):
        x = xs + rng.uniform(0.05, 0.95) * radius * rng.sphere(5)
        d = oracle.dist_to_opt(x)
        if 0 < d < radius:
            assert np.linalg.norm(oracle.subgrad(x)) > 0


def test_logistic_small_constants():
    oracle, fset = make_problem("logistic_small", {"n": 12, "d": 3}, seed=0)
    assert isinstance(fset, Box)
    assert oracle.fstar is None
    rng = Rng(4)
    for _ in range(100):
        x = fset.project(rng.gaussian(3))
        assert np.linalg.norm(oracle.grad(x)) <= oracle.M + 1e-9


@pytest.mark.parametrize("name,params", [
    ("quad_diag", {"lambdas": [10.0, 1.0]}),
    ("fw_box", {}),
    ("degenerate3", {}),
    ("nesterov_skokov_toy", {}),
    ("logistic_small", {"n": 10, "d": 3}),
])
def test_oracle_constants_spot_checks(name, params):
    # L is a valid gradient Lipschitz bound and f* a valid lower bound on
    # sampled points (within the region the constant is stated for)
    oracle, fset = make_problem(name, params, seed=0)
    rng = Rng(21)
    for _ in range(300):
        x = fset.project(rng.gaussian(oracle.dim))
        y = fset.project(rng.gaussian(oracle.dim))
        if name == "nesterov_skokov_toy":  # L = 2 holds on the band |x2| <= 1
            x[1] = max(-1.0, min(1.0, x[1]))
            y[1] = max(-1.0, min(1.0, y[1]))
        if oracle.L is not None and oracle.grad is not None:
            lhs = np.linalg.norm(oracle.grad(x) - oracle.grad(y))
            assert lhs <= oracle.L * np.linalg.norm(x - y) * (1 + 1e-9) + 1e-12
        if oracle.fstar is not None:
            assert oracle.value(x) >= oracle.fstar - 1e-12


def test_catalog_errors_and_determinism():
    with pytest.raises(UnknownProblemError):
        make_problem("nope")
    with pytest.raises(ValueError):
        make_problem("quad_diag", {"lambdas": [1.0], "bogus": 1})
    with pytest.raises(ValueError):
        make_problem("quad_diag", {"lambdas": [-1.0]})
    # identical seeds give identical instances
    a, _ = make_problem("phase_retrieval", {"m": 10, "n": 4}, seed=5)
    b, _ = make_problem("phase_retrieval", {"m": 10, "n": 4}, seed=5)
    x = Rng(0).gaussian(4)
    assert a.value(x) == b.value(x)
    assert np.array_equal(a.subgrad(x), b.subgrad(x))
    assert "quad_diag" in problem_names()
    assert default_x0("fw_box").tolist() == [1.0, 1.0]


def test_a_config_builds_its_problem_once_with_and_without_x0(monkeypatch):
    builder, doc, allowed = _CATALOG["l1_system"]
    builds = []
    monkeypatch.setitem(_CATALOG, "l1_system", (lambda params, seed: builds.append(seed) or builder(params, seed),
                                                doc, allowed))
    config = {"problem": {"name": "l1_system", "seed": 3}, "method": "polyak_subgrad", "iterations": 5,
              "output": {"record_x": True}}
    for x0 in (None, [0.5] * 5):
        builds.clear()
        trace, _ = run_experiment(parse_config(json.dumps(config if x0 is None else dict(config, x0=x0))))
        assert builds == [3]
        assert trace.columns["x"][0].tolist() == (x0 or [0.0] * 5)


@pytest.mark.parametrize("name", problem_names())
def test_default_x0_is_the_start_the_suite_carries_and_a_new_array_on_each_call(name):
    for seed in range(3):
        first, again = default_x0(name, {}, seed), default_x0(name, {}, seed)
        assert first.tobytes() == make_problem(name, {}, seed)[0].x0.tobytes() == again.tobytes()
        assert first.dtype == np.float64 and not np.shares_memory(first, again)


def instance_arrays(suite) -> list:
    """The arrays an instance holds: its suite's array fields and every array its entries close over."""
    found, seen = [], set()

    def visit(obj):
        if isinstance(obj, np.ndarray):
            found.append(obj)
        elif isinstance(obj, (tuple, list)):
            for item in obj:
                visit(item)
        elif dataclasses.is_dataclass(obj):
            for field in dataclasses.fields(obj):
                visit(getattr(obj, field.name))
        elif callable(obj) and id(obj) not in seen:
            seen.add(id(obj))
            for cell in getattr(obj, "__closure__", None) or ():
                visit(cell.cell_contents)
            for attr in getattr(obj, "__dict__", {}).values():  # value.rows
                visit(attr)

    visit(suite)
    return found


@pytest.mark.parametrize("name", problem_names())
def test_array_entries_return_a_fresh_array_or_a_read_only_one(name):
    for seed in range(2):
        suite, _ = make_problem(name, {}, seed)
        entries = {"subgrad": suite.subgrad, "grad": suite.grad}
        if suite.constraint is not None:
            entries["constraint.subgrad"] = suite.constraint.subgrad
        held = instance_arrays(suite)
        rng = np.random.default_rng(seed)
        points = [suite.x0] + [scale * rng.standard_normal(suite.dim) for scale in (1e-3, 1.0, 10.0)]
        for x in points:
            for label, entry in entries.items():
                if entry is None:
                    continue
                first, again = entry(x.copy()), entry(x.copy())
                for out, other in ((first, again), (again, first)):
                    assert out.dtype == np.float64
                    if out.flags.writeable:
                        assert not any(np.shares_memory(out, a) for a in (other, *held)), label


def test_slp_serves_its_gradient_and_constraint_rows_read_only():
    suite, _ = make_problem("slp")
    for entry, x in [(suite.subgrad, np.zeros(2)), (suite.grad, np.ones(2)),
                     (suite.constraint.subgrad, np.array([2.0, 0.0])), (suite.constraint.subgrad, np.array([-1.0, 3.0]))]:
        out = entry(x)
        before = out.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            out[0] = 7.0
        with pytest.raises(ValueError, match="read-only"):
            out *= 2.0
        assert entry(x).tobytes() == before


# Every catalog parameter that JSON can carry as a float, with a value that builds.
NUMERIC_PARAMS = [
    ("l1_system", "d", 5), ("l1_system", "m", 8),
    ("norm2", "d", 3), ("norm2", "a", [1.0, 2.0]),
    ("quad_diag", "lambdas", [2.0, 1.0]), ("quad_diag", "shift", [0.5, -0.5]),
    ("degenerate3", "l1", 1.0), ("degenerate3", "l2", 0.1),
    ("phase_retrieval", "m", 25), ("phase_retrieval", "n", 5),
    ("slp", "rho", 1.0),
    ("logistic_small", "n", 20), ("logistic_small", "d", 3), ("logistic_small", "box_radius", 2.0),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("name, key, good", NUMERIC_PARAMS, ids=[f"{n}-{k}" for n, k, _ in NUMERIC_PARAMS])
def test_catalog_refuses_non_finite_params(name, key, good, bad):
    make_problem(name, {key: good})
    value = good[:-1] + [bad] if isinstance(good, list) else bad
    with pytest.raises(ValueError, match=f"param '{key}' must hold finite numbers only"):
        make_problem(name, {key: value})


@pytest.mark.parametrize("name", problem_names())
def test_catalog_builds_with_every_allowed_param_and_refuses_an_unknown_one(name):
    params = {key: good for n, key, good in NUMERIC_PARAMS if n == name}
    assert sorted(params) == sorted(_CATALOG[name][2])  # NUMERIC_PARAMS covers every allowed param
    # norm2's d and a are alternatives: each is built alone
    for built in ([{"d": params["d"]}, {"a": params["a"]}] if name == "norm2" else [params]):
        make_problem(name, built)
        with pytest.raises(ValueError, match=f"^problem '{name}': unknown params \\['bogus'\\]"):
            make_problem(name, dict(built, bogus=1.0))


@pytest.mark.parametrize("name, key", [("phase_retrieval", "n"), ("phase_retrieval", "m"), ("l1_system", "d"),
                                       ("logistic_small", "d"), ("norm2", "d")])
def test_catalog_dimensions_and_counts_must_be_positive(name, key):
    # phase_retrieval's start is drawn on the (n-1)-sphere, a draw that never ends for n = 0
    with pytest.raises(ValueError, match=f"param '{key}' must be >= 1"):
        make_problem(name, {key: 0})


@pytest.mark.parametrize("lambdas", [[[2.0, math.nan]], np.array([2.0, math.inf]), (1.0, -math.inf)],
                         ids=["nested-list", "ndarray", "tuple"])
def test_catalog_finiteness_check_sees_nested_and_array_values(lambdas):
    with pytest.raises(ValueError, match="param 'lambdas' must hold finite numbers only"):
        make_problem("quad_diag", {"lambdas": lambdas})
    assert make_problem("quad_diag", {"lambdas": np.array([2.0, 1.0])})[0].L == 2.0


# -- catalog callables against their numpy forms, bit for bit ------------------

def _numpy_forms(name: str, params: dict, seed: int) -> dict:
    """The catalog callables as first written, on numpy scalars and functions: kind -> callable."""
    if name == "l1_system":
        rng = Rng(seed)
        A = rng.gaussian((params["m"], params["d"]))
        b = A @ rng.gaussian(params["d"])
        return {"value": lambda x: float(np.sum(np.abs(A @ x - b))),
                "subgrad": lambda x: A.T @ np.sign(A @ x - b)}
    if name == "quad_diag":
        lam = np.asarray(params["lambdas"], dtype=float)
        a = np.asarray(params.get("shift", np.zeros(lam.shape[0])), dtype=float)

        def value(x):
            z = x - a
            return 0.5 * float(np.dot(lam * z, z))
        return {"value": value, "grad": lambda x: lam * (x - a)}
    if name == "fw_box":
        return {"value": lambda x: float(x[0] ** 2 + (1.0 + x[1]) ** 2),
                "grad": lambda x: np.array([2.0 * x[0], 2.0 * (1.0 + x[1])])}
    if name == "degenerate3":
        lam = np.array([params["l1"], params["l2"], 0.0])
        return {"value": lambda x: float(np.dot(lam * x, x)), "grad": lambda x: 2.0 * lam * x,
                "dist_to_opt": lambda x: float(math.hypot(x[0], x[1]))}
    if name == "rosenbrock":
        def grad(x):
            t = x[1] - x[0] ** 2
            return np.array([-400.0 * t * x[0] - 2.0 * (1.0 - x[0]), 200.0 * t])
        return {"value": lambda x: float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2), "grad": grad}
    if name == "nesterov_skokov_toy":
        return {"value": lambda x: float(0.5 * x[0] ** 2 + 0.25 * x[1] ** 4 - 0.5 * x[1] ** 2),
                "grad": lambda x: np.array([x[0], x[1] ** 3 - x[1]])}
    assert name == "slp"
    rho, half_edge = params["rho"], math.tan(math.pi / 20.0)
    angles = np.pi * np.arange(20) / 10.0
    C = rho * np.stack([np.cos(angles), np.sin(angles)], axis=1)

    def dist_to_opt(x):
        t = min(max(float(x[1]), -half_edge), half_edge)
        return float(math.hypot(x[0] - 1.0, x[1] - t))
    return {"constraint-value": lambda x: float(np.max(C @ x - rho)),
            # the shift before the max, as the catalog's constraint value computed it before
            "constraint-value-shift-first": lambda x: float((C.dot(x) - rho).max()),
            "constraint-subgrad": lambda x: C[int(np.argmax(C @ x - rho))].copy(), "dist_to_opt": dist_to_opt}


# case -> (problem, params); every param is given, as _numpy_forms reads them
NUMPY_FORM_CASES = {
    "l1_system": ("l1_system", {"d": 5, "m": 8}),
    "l1_system-d3-m4": ("l1_system", {"d": 3, "m": 4}),
    "quad_diag": ("quad_diag", {"lambdas": [10.0, 1.0]}),
    "quad_diag-shift": ("quad_diag", {"lambdas": [10.0, 1.0, 0.3], "shift": [1.5, -2.0, 0.0]}),
    "quad_diag-shift+0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [0.0, 0.0]}),
    "quad_diag-shift-0": ("quad_diag", {"lambdas": [4.0, 1.0], "shift": [-0.0, 0.0]}),
    "fw_box": ("fw_box", {}),
    "degenerate3": ("degenerate3", {"l1": 1.0, "l2": 0.1}),
    "rosenbrock": ("rosenbrock", {}),
    "nesterov_skokov_toy": ("nesterov_skokov_toy", {}),
    "slp": ("slp", {"rho": 1.0}),
    "slp-rho2.5": ("slp", {"rho": 2.5}),
}
# +-0.0, subnormals, entries whose squares overflow, +-inf, +-nan and (last) a signalling NaN
PROBE_SPECIALS = np.append([0.0, -0.0, 5e-324, -2.5e-310, 1e200, -3e200, math.inf, -math.inf, math.nan, -math.nan],
                           np.array([0x7FF4000000000001], dtype=np.uint64).view(float))


def _probe_points(d: int, known: list) -> list:
    rng = np.random.default_rng(11)
    points = [np.array(x, dtype=float) for x in known]
    points += [scale * rng.standard_normal(d) for scale in 10.0 ** np.arange(-300, 151, 10) for _ in range(3)]
    for u in PROBE_SPECIALS:
        points.append(np.full(d, u))
        for v in PROBE_SPECIALS:  # every pair of specials in the first and last entries
            x = rng.standard_normal(d)
            x[0], x[-1] = u, v
            points.append(x)
    return points


def _outcome(fn, x):
    """What ``fn(x)`` gives: its type, dtype, shape and bytes, or the type of the error it raises."""
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        try:
            y = fn(x.copy())
        except Exception as e:
            return f"raises {type(e).__name__}"
    a = np.asarray(y)
    return type(y).__name__, a.dtype.str, a.shape, a.tobytes()


@pytest.mark.parametrize("shift", ["zero", "-0.0", "nonzero"])
@pytest.mark.parametrize("d", [1, 2, 3, 5, 10, 50, 200])
def test_quad_diag_rows_give_the_bits_of_value(d, shift):
    lam = np.linspace(0.5, 10.0, d)
    a = {"zero": np.zeros(d), "-0.0": np.where(np.arange(d) == 0, -0.0, 0.0), "nonzero": np.sin(3.0 * lam)}[shift]
    oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist(), "shift": a.tolist()})
    X = np.array(_probe_points(d, [a]))
    with np.errstate(all="ignore"):
        got = oracle.value.rows(X)
        want = np.array([oracle.value(x) for x in X])
    assert got.dtype == np.float64 and got.tobytes() == want.tobytes()


# case -> (problem, params) of every catalog problem whose value has a row-batched ``rows``
ROW_BATCHED = {
    "quad_diag": ("quad_diag", {"lambdas": [10.0, 1.0]}),
    "degenerate3": ("degenerate3", {}),
    "degenerate3-l1-3-l2-0.7": ("degenerate3", {"l1": 3.0, "l2": 0.7}),
    "norm2-d1": ("norm2", {"d": 1}),
    "norm2": ("norm2", {}),
    "norm2-a": ("norm2", {"a": [0.5, -1.0, 2.0, 1e-310, -0.0]}),
    "slp": ("slp", {}),
    "slp-rho2.5": ("slp", {"rho": 2.5}),
}


def test_row_batched_problems_are_the_ones_listed():
    assert {name for name in problem_names() if hasattr(make_problem(name)[0].value, "rows")} == \
        {name for name, _ in ROW_BATCHED.values()}


@pytest.mark.parametrize("case", ROW_BATCHED)
def test_row_batched_values_give_the_bits_of_value(case):
    name, params = ROW_BATCHED[case]
    oracle, _ = make_problem(name, params)
    X = np.array(_probe_points(oracle.dim, [oracle.xstar]))
    with np.errstate(all="ignore"):
        got = oracle.value.rows(X)
        want = np.array([oracle.value(x) for x in X])
    assert got.dtype == np.float64 and got.shape == (len(X),) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("case, kind",[(case, kind) for case, (name, params) in NUMPY_FORM_CASES.items()
                                        for kind in _numpy_forms(name, params, 0)])
def test_catalog_callables_give_the_bits_of_their_numpy_forms(case, kind):
    name, params = NUMPY_FORM_CASES[case]
    oracle, _ = make_problem(name, params, seed=3)
    new = {"value": oracle.value, "subgrad": oracle.subgrad, "grad": oracle.grad,
           "constraint-value": oracle.constraint and oracle.constraint.value,
           "constraint-value-shift-first": oracle.constraint and oracle.constraint.value,
           "constraint-subgrad": oracle.constraint and oracle.constraint.subgrad,
           "dist_to_opt": oracle.dist_to_opt}[kind]
    reference = _numpy_forms(name, params, 3)[kind]
    points = _probe_points(oracle.dim, [oracle.xstar, *(oracle.minimizers or ())])
    for x in points:
        expected = _outcome(reference, x)
        assert not isinstance(expected, str), (x, expected)  # the numpy form returns inf or nan here
        assert _outcome(new, x) == expected, x


# -- noise wrappers ------------------------------------------------------------

# Every field of every noise kind, with values that build.
NOISE_FIELDS = {
    "none": {},
    "absolute_grad": {"delta": 0.1, "mode": "fixed", "v": [0.1, 0.0]},
    "relative_grad": {"alpha": 0.25, "mode": "grow"},
    "additive_stoch_grad": {"sigma": 0.5, "distribution": "student_t3"},
    "zo_bounded": {"delta": 0.1, "mode": "random"},
    "zo_stoch": {"delta_tilde": 0.01},
}


@pytest.mark.parametrize("kind", sorted(NOISE_FIELDS))
def test_noise_table_round_trips_kind_and_fields(kind):
    cls = NOISE_KINDS[kind]
    assert cls.kind == kind
    assert [f.name for f in dataclasses.fields(cls)] == list(NOISE_FIELDS[kind])


@pytest.mark.parametrize("kind", sorted(NOISE_FIELDS))
@pytest.mark.parametrize("drop_optional", [False, True], ids=["all-fields", "required-only"])
def test_parsed_noise_equals_direct_construction(kind, drop_optional):
    cls = NOISE_KINDS[kind]
    fields = {f.name: NOISE_FIELDS[kind][f.name] for f in dataclasses.fields(cls)
              if not (drop_optional and f.default is not dataclasses.MISSING)}
    doc = {"problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}}, "noise": dict(fields, kind=kind),
           "method": "gd", "iterations": 1}
    parsed = parse_config(json.dumps(doc)).noise
    assert type(parsed) is cls and parsed.kind == kind
    assert repr(parsed) == repr(cls(**fields))


def test_absolute_grad_mode_defaults_to_fixed_when_v_is_given():
    assert AbsoluteGrad(0.1).mode == "random_direction"
    fixed = AbsoluteGrad(0.1, v=[0.0, 0.1])
    assert fixed.mode == "fixed" and fixed.v.dtype == float


def test_no_noise_passthrough():
    oracle, _ = make_problem("quad_diag", {"lambdas": [3.0, 1.0]})
    wrapped = wrap_noise(oracle, NoNoise(), Rng(0))
    assert wrapped is oracle


def test_absolute_fixed_vector_noise():
    oracle, _ = make_problem("degenerate3", {"l1": 1.0, "l2": 0.1})
    noisy = wrap_noise(oracle, AbsoluteGrad(0.1, mode="fixed", v=np.array([0.0, 0.0, 0.1])), Rng(0))
    np.testing.assert_allclose(noisy.grad(np.zeros(3)), [0.0, 0.0, 0.1])
    # bound on every call; subgrad is replaced consistently
    x = np.array([1.0, -2.0, 3.0])
    assert np.linalg.norm(noisy.grad(x) - oracle.grad(x)) <= 0.1 + 1e-15
    np.testing.assert_allclose(noisy.subgrad(x), noisy.grad(x))
    with pytest.raises(ValueError):
        AbsoluteGrad(0.1, mode="fixed", v=np.array([0.0, 0.0, 0.5]))
    with pytest.raises(ValueError, match="v must be a flat list of numbers"):
        AbsoluteGrad(0.1, v=[[0.05, 0.05]])
    with pytest.raises(NoiseCompatibilityError, match=r"v has shape \(2,\), the problem takes \(3,\)"):
        wrap_noise(oracle, AbsoluteGrad(0.1, v=[0.05, 0.05]), Rng(0))
    # random_direction mode draws its perturbation: a v, which it would not read, is refused
    with pytest.raises(ValueError, match="v is read in fixed mode only, not in 'random_direction' mode"):
        AbsoluteGrad(0.1, mode="random_direction", v=[0.0, 0.0, 0.05])


def test_absolute_random_direction_bound():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    noisy = wrap_noise(oracle, AbsoluteGrad(0.3), Rng(9))
    rng = Rng(1)
    for _ in range(200):
        x = rng.gaussian(2)
        assert np.linalg.norm(noisy.grad(x) - oracle.grad(x)) <= 0.3 * (1 + 1e-12)


def test_relative_noise_modes():
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    x = np.array([1.0, 1.0])
    g = oracle.grad(x)

    shrink = wrap_noise(oracle, RelativeGrad(0.5, mode="shrink"), Rng(0))
    np.testing.assert_allclose(shrink.grad(x), 0.5 * g)
    assert np.linalg.norm(shrink.grad(x) - g) / np.linalg.norm(g) == pytest.approx(0.5)

    grow = wrap_noise(oracle, RelativeGrad(0.25, mode="grow"), Rng(0))
    np.testing.assert_allclose(grow.grad(x), 1.25 * g)

    rnd = wrap_noise(oracle, RelativeGrad(0.4, mode="random_direction"), Rng(3))
    rng = Rng(8)
    for _ in range(200):
        y = rng.gaussian(2) * 2
        gy = oracle.grad(y)
        assert (np.linalg.norm(rnd.grad(y) - gy)
                <= 0.4 * np.linalg.norm(gy) * (1 + 1e-12) + 1e-300)


def test_relative_noise_tiny_gradient_stays_in_bound():
    # gd_rel_adaptive at tol 0 drives ||grad f|| to ~1e-156, where the squares
    # in ||g|| underflow; the bound check must not misfire there.
    spec = parse_config(json.dumps({
        "problem": "quad_diag",
        "noise": {"kind": "relative_grad", "alpha": 0.25, "mode": "random_direction"},
        "method": {"name": "gd_rel_adaptive", "params": {"tol": 0}},
        "iterations": 1500,
    }))
    _, summary = run_experiment(spec)
    assert summary["status"] == "converged"


@pytest.mark.parametrize("alpha", [1e-12, 1e-9, 1e-6])
def test_relative_noise_at_small_alpha_passes_its_check(alpha):
    # g + alpha ||g|| e rounds by about an ulp of ||g||, more than alpha * 1e-12 at these alphas
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    noisy, rng = wrap_noise(oracle, RelativeGrad(alpha, mode="random_direction"), Rng(5)), Rng(2)
    for _ in range(10_000):
        noisy.grad(rng.gaussian(2))


def test_relative_noise_at_small_alpha_runs_gd_rel():
    spec = parse_config(json.dumps({
        "problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}},
        "noise": {"kind": "relative_grad", "alpha": 1e-9, "mode": "random_direction"},
        "method": {"name": "gd_rel", "params": {"alpha": 1e-9}}, "iterations": 50}))
    assert run_experiment(spec)[1]["oracle_calls"] == 101


def test_relative_noise_keeps_a_finite_gradient_whose_squares_overflow_finite():
    oracle, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
    noisy = wrap_noise(oracle, RelativeGrad(0.25, mode="random_direction"), Rng(0))
    x = np.array([1e154, 1e154])
    g = oracle.grad(x)  # (1e155, 1e154): g.dot(g) overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the overflow-free norm comes with no overflow warning
        out = noisy.grad(x)
    assert np.isfinite(out).all() and norm((out - g) / math.hypot(*g)) <= 0.25 * (1 + 1e-12)
    with np.errstate(all="ignore"):
        with pytest.raises(AssertionError, match="relative noise exceeds its bound"):
            noisy.grad(np.array([1.5e307, 1.5e308]))  # a finite g, but g + alpha ||g|| e overflows
        for bad in ([math.nan, 1.0], [math.inf, 1.0]):  # a gradient that is not finite passes, not finite
            assert not np.isfinite(noisy.grad(np.array(bad))).all()


def test_relative_noise_check_refuses_a_direction_just_past_the_unit_sphere(monkeypatch):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    monkeypatch.setattr(Rng, "spheres", lambda self, d: itertools.repeat(np.full(d, (1 + 1e-9) / math.sqrt(d))))
    noisy = wrap_noise(oracle, RelativeGrad(0.25, mode="random_direction"), Rng(0))
    with pytest.raises(AssertionError, match="relative noise exceeds its bound"):
        noisy.grad(np.array([1.0, 1.0]))


@pytest.mark.parametrize("noise", [AbsoluteGrad(0.3), RelativeGrad(0.4, mode="random_direction")],
                         ids=["absolute", "relative"])
def test_random_direction_noise_checks_its_bound(noise, monkeypatch):
    oracle, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
    # the wrapper takes its directions from Rng.spheres when it is built
    monkeypatch.setattr(Rng, "spheres", lambda self, d: itertools.repeat(np.full(d, 2.0 / math.sqrt(d))))
    noisy = wrap_noise(oracle, noise, Rng(0))
    with pytest.raises(AssertionError, match="exceeds its bound"):
        noisy.grad(np.array([1.0, 1.0]))


@pytest.mark.parametrize("noise", [AbsoluteGrad(0.3), RelativeGrad(0.4, mode="random_direction")],
                         ids=["absolute", "relative"])
@pytest.mark.parametrize("d", [1, 3])
def test_random_direction_noise_gives_the_gradients_of_per_call_sphere_draws(noise, d):
    oracle, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 4.0, d).tolist()})
    noisy, ref = wrap_noise(oracle, noise, Rng(6)).grad, Rng(6)
    scale = noise.delta if isinstance(noise, AbsoluteGrad) else None
    for k in range(700):  # past the first block of directions at d = 1 and at d = 3
        x = np.full(d, 1.0 / (k + 1))
        g = oracle.grad(x)
        want = g + scale * ref.sphere(d) if scale is not None else g + noise.alpha * norm(g) * ref.sphere(d)
        assert noisy(x).tobytes() == want.tobytes()


class _Directions:
    """An ``Rng`` stand-in whose ``spheres`` yields the given rows, for the random-direction wrappers."""

    def __init__(self, rows):
        self.rows = rows

    def spheres(self, d):
        return iter(self.rows)


def _constant_gradient(g):
    return OracleSuite(value=lambda x: 0.0, subgrad=lambda x: g, grad=lambda x: g, dim=len(g))


def _exact_noise_check(noise, g, e):
    """``(passes, out)``: the bound check a random-direction wrapper makes with its exact norm, and its gradient."""
    if isinstance(noise, AbsoluteGrad):
        return not norm(e) > 1 + 1e-12, g + noise.delta * e
    alpha = noise.alpha
    gn = math.sqrt(np.vdot(g, g))
    if gn == math.inf and np.isfinite(g).all():
        gn = math.hypot(*g.tolist())
    out = g + alpha * gn * e
    fails = (gn > 0 and not norm((out - g) / gn) <= alpha * (1 + 1e-12) + 4 * math.ulp(gn) / gn
             and np.isfinite(g).all())
    return not fails, out


# a direction's norm over 1, around the screens' margin (1e-13) and the exact tests' (1e-12)
NORM_OFFSETS = (-1e-13, -1e-15, 0.0, 1e-15, 5e-14, 9e-14, 1e-13, 1.2e-13, 3e-13, 8e-13, 1e-12, 1.2e-12, 1e-11)


def _noise_screen_cases():
    """(g, e): gradients of 1 to 300 entries at norms from 1e-200 to 1e200, some with a zero, NaN or inf entry,
    and directions of norm 1 + each of NORM_OFFSETS; then gradients whose norm overflows or is subnormal."""
    r = np.random.default_rng(36)
    sizes = (1, 2, 3, SCREEN_MAX_DIM - 1, SCREEN_MAX_DIM, SCREEN_MAX_DIM + 1, 64, 300)
    for i in range(1500):
        d = sizes[i % len(sizes)] if i < 400 else int(r.integers(1, 301))
        g = r.standard_normal(d) * 10.0 ** r.uniform(-200, 200)
        special = r.integers(8)
        if special < 3:
            g[r.integers(d)] = (0.0, math.nan, math.inf)[special]
        e = r.standard_normal(d)
        yield g, e / norm(e) * (1 + NORM_OFFSETS[i % len(NORM_OFFSETS)])
    for d, scale in itertools.product((1, 2, 3, SCREEN_MAX_DIM + 1), (1.5e308, 1e-310, 1e-320)):
        e = r.standard_normal(d)
        yield np.full(d, scale), e / norm(e)


@pytest.mark.parametrize("noise", [AbsoluteGrad(0.3), *(RelativeGrad(a, mode="random_direction")
                                                      for a in (0.0, 0.25, 0.999))],
                         ids=["absolute", "relative-0", "relative-0.25", "relative-0.999"])
def test_random_direction_noise_screens_agree_with_their_exact_checks(noise):
    with np.errstate(all="ignore"):
        for g, e in _noise_screen_cases():
            passes, want = _exact_noise_check(noise, g, e)
            noisy = wrap_noise(_constant_gradient(g), noise, _Directions([e]))
            try:
                out = noisy.grad(np.zeros(len(g)))
            except AssertionError:
                out = None
            assert (out is not None) == passes, (g, e)
            assert out is None or out.tobytes() == want.tobytes()


@pytest.mark.parametrize("noise", [AbsoluteGrad(0.3), RelativeGrad(0.25, mode="random_direction")],
                         ids=["absolute", "relative"])
@pytest.mark.parametrize("d", [2, SCREEN_MAX_DIM + 1])
def test_a_direction_past_the_bound_raises_at_the_call_that_takes_it(noise, d):
    units = [row / norm(row) for row in np.random.default_rng(d).standard_normal((8, d))]
    units[4] = units[4] * (1 + 1e-11)
    oracle, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 4.0, d).tolist()})
    noisy = wrap_noise(oracle, noise, _Directions(units))
    for _ in range(4):
        noisy.grad(np.ones(d))
    with pytest.raises(AssertionError, match="exceeds its bound"):
        noisy.grad(np.ones(d))


@pytest.mark.parametrize("noise", [AbsoluteGrad(0.3), RelativeGrad(0.25, mode="random_direction"),
                                   RelativeGrad(0.999, mode="random_direction")],
                         ids=["absolute", "relative-0.25", "relative-0.999"])
@pytest.mark.parametrize("d, exact_calls", [(1, 0), (2, 0), (3, 0), (SCREEN_MAX_DIM, 0), (SCREEN_MAX_DIM + 1, 300)])
def test_the_noise_screens_decide_ordinary_calls_up_to_the_cutoff(noise, d, exact_calls, monkeypatch):
    """Up to ``SCREEN_MAX_DIM`` entries no ordinary call reaches the exact norm; above it every call does."""
    calls = []
    monkeypatch.setattr(noise_module, "norm", lambda v: calls.append(1) or norm(v))
    oracle, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 4.0, d).tolist()})
    noisy, rng = wrap_noise(oracle, noise, Rng(d)), Rng(1)
    for _ in range(300):
        noisy.grad(rng.gaussian(d))
    assert len(calls) == exact_calls


def test_gradient_noise_requires_grad():
    oracle, _ = make_problem("abs1d")
    with pytest.raises(NoiseCompatibilityError):
        wrap_noise(oracle, RelativeGrad(0.5), Rng(0))


def test_additive_stoch_grad_determinism():
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0]})
    noisy = wrap_noise(oracle, AdditiveStochGrad(2.0), Rng(0))
    x = np.array([1.0])
    r1, r2 = Rng(5), Rng(5)
    a = [noisy.stoch_grad(x, r1)[0] for _ in range(3)]
    b = [noisy.stoch_grad(x, r2)[0] for _ in range(3)]
    assert a == b and a[0] != a[1]  # same seed same stream; fresh draws differ
    mean = np.mean([noisy.stoch_grad(x, Rng(77).spawn(i))[0] for i in range(4000)])
    assert mean == pytest.approx(1.0, abs=0.15)


def test_zo_noise_bounds():
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    bounded = wrap_noise(oracle, ZOBoundedValue(0.05, mode="deterministic_worst"), Rng(0))
    rnd = wrap_noise(oracle, ZOBoundedValue(0.05, mode="random"), Rng(0))
    stoch = wrap_noise(oracle, ZOStochValue(0.5), Rng(0))
    rng = Rng(6)
    sq = []
    for _ in range(500):
        x = rng.gaussian(2)
        assert abs(bounded.zo_value(x, rng) - oracle.value(x)) <= 0.05 + 1e-15
        assert abs(rnd.zo_value(x, rng) - oracle.value(x)) <= 0.05 + 1e-15
        sq.append((stoch.zo_value(x, rng) - oracle.value(x)) ** 2)
    assert np.mean(sq) == pytest.approx(0.25, rel=0.25)  # E[xi^2] = delta_tilde^2
