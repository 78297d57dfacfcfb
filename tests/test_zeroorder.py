import contextlib
import dataclasses
import json
import math
import re
import struct

import numpy as np
import pytest

from optbench.core import (
    Box,
    CountingOracle,
    FullSpace,
    OracleBudgetError,
    OracleSuite,
    Rng,
    ZOBoundedValue,
    ZOStochValue,
    make_problem,
    wrap_noise,
)
from optbench.core.noise import AdditiveNoise
from optbench.bench.config import parse_config
from optbench.bench.runner import run_experiment
from optbench.core.rng import BLOCK_VALUES, ZO_CHUNK_VALUES
from optbench import zeroorder
from optbench.stochastic import AdaGradNorm, BudgetConst, Const, Decay, InvK
from optbench.zeroorder import (
    WEIGH_BATCH,
    ConstTau,
    PowerDecayTau,
    ZoConfig,
    build_kernel,
    chunk_iterations,
    estimator_scale,
    kernel_grad_estimate,
    run_zo_sgd,
)


@pytest.mark.parametrize("beta", [2, 3, 4, 5])
def test_kernel_moment_conditions(beta):
    k = build_kernel(beta)
    assert abs(k.moment(0)) <= 1e-10
    assert abs(k.moment(1) - 1.0) <= 1e-10
    for j in range(2, beta):
        assert abs(k.moment(j)) <= 1e-10
    assert math.isfinite(k.kappa_beta) and k.kappa_beta > 0
    assert build_kernel(beta) is k  # one shared kernel per beta ...
    with pytest.raises(ValueError):
        k.odd_coeffs[0] = 0.0       # ... that no caller can change


def test_kernel_closed_forms():
    k2 = build_kernel(2)
    np.testing.assert_allclose(k2.odd_coeffs, [3.0], atol=1e-12)
    assert k2(0.5) == pytest.approx(1.5)
    k3 = build_kernel(3)
    np.testing.assert_allclose(k3.odd_coeffs, [3.0], atol=1e-12)
    k4 = build_kernel(4)
    np.testing.assert_allclose(k4.odd_coeffs, [75 / 4, -105 / 4], atol=1e-10)
    u = 0.3
    assert k4(u) == pytest.approx((75 * u - 105 * u ** 3) / 4)
    assert k4.kappa == pytest.approx(37.5, rel=1e-10)


def horner_on_arrays(kernel, u):
    """The reference bits of K(u): Horner's rule on arrays, from a zero array, with numpy coefficients."""
    u2 = u * u
    acc = np.zeros_like(u)
    for c in kernel.odd_coeffs[::-1]:
        acc = acc * u2 + c
    return acc * u


@pytest.mark.parametrize("beta", [2, 3, 4, 5])
def test_kernel_float_and_array_calls_give_equal_bits(beta):
    k = build_kernel(beta)
    specials = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e-160, -1e-160]
    u = np.concatenate([np.random.default_rng(beta).uniform(-1.0, 1.0, 20_000), specials])
    on_array = k(u)
    assert on_array.dtype == np.float64 and on_array.tobytes() == horner_on_arrays(k, u).tobytes()
    on_floats = np.array([k(float(v)) for v in u])
    assert on_floats.tobytes() == on_array.tobytes()
    assert all(type(k(float(v))) is float for v in specials)


def test_unsupported_beta():
    with pytest.raises(ValueError):
        build_kernel(6)


def linear_oracle(c):
    c = np.asarray(c, dtype=float)
    return OracleSuite(value=lambda x: float(c @ x), subgrad=lambda x: c.copy(),
                       grad=lambda x: c.copy(), dim=c.shape[0])


class LoopRng(Rng):
    """Rng whose scalar uniform and sphere draws go through Generator.uniform and np.linalg.norm."""

    def uniform(self, low=-1.0, high=1.0, size=None):
        return self._gen.uniform(low, high, size)

    def sphere(self, d):
        while True:
            v = self._gen.standard_normal(d)
            n = float(np.linalg.norm(v))
            if n > 1e-12:
                return v / n


def reference_estimate(oracle, x, tau, kernel, rng, batch):
    """The estimator as one accumulating loop per sample: the bit-level reference."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    zo = (oracle if isinstance(oracle, CountingOracle) else CountingOracle(oracle)).zo_value
    acc = np.zeros(d)
    scale = d / (2.0 * tau)
    for _ in range(batch):
        r = float(rng.uniform(-1.0, 1.0))
        e = rng.sphere(d)
        fp = zo(x + (tau * r) * e, rng)
        fm = zo(x - (tau * r) * e, rng)
        acc += (scale * (fp - fm) * float(kernel(r))) * e
    return acc / batch


def _quad50(noise):
    lam = np.linspace(1.0, 10.0, 50)
    oracle, _ = make_problem("quad_diag", {"lambdas": lam.tolist(), "shift": np.sin(lam).tolist()})
    return wrap_noise(oracle, noise, Rng(17)), np.cos(3.0 * lam)


def _drawing_entry():
    # a hand-built entry that draws from the run's stream: the estimator cannot draw it ahead
    c = np.array([1.0, -2.0, 0.5])
    oracle = linear_oracle(c)
    return (dataclasses.replace(oracle, zo_value=lambda x, rng: float(c @ x) + 0.01 * float(rng.student_t(3))),
            np.array([0.3, -0.1, 2.0]))


def _declared_entry(**declaration):
    """The linear d=3 suite under declared value noise that no chunk draws: the per-sample loop's."""
    oracle, x = linear_oracle([1.0, -2.0, 0.5]), np.array([0.3, -0.1, 2.0])
    noisy = AdditiveNoise(oracle.value, 0.01, **declaration).entry()
    if noisy.noise.shape == ():
        return dataclasses.replace(oracle, zo_value=noisy), x

    def zo(x, rng):  # one value from a vector-shaped draw
        return float(noisy(x, rng).sum())

    zo.noise = noisy.noise
    return dataclasses.replace(oracle, zo_value=zo), x


BIT_CASES = {
    "linear-d3": lambda: (linear_oracle([1.0, -2.0, 0.5]), np.array([0.3, -0.1, 2.0])),
    "quad50-zo_stoch": lambda: _quad50(ZOStochValue(1e-3)),
    "quad50-zo_bounded-random": lambda: _quad50(ZOBoundedValue(1e-2, mode="random")),
    "quad50-zo_bounded-worst": lambda: _quad50(ZOBoundedValue(1e-2, mode="deterministic_worst")),
    # one column: a reduction over the sample axis alone may sum pairwise
    "quad-d1": lambda: (make_problem("quad_diag", {"lambdas": [3.0]})[0], np.array([0.7])),
    # equal probe values at the minimizer: every sample estimate is a signed zero
    "quad-minimizer": lambda: (make_problem("quad_diag", {"lambdas": [1.0, 1.0]})[0], np.zeros(2)),
    "linear-d3-drawing": _drawing_entry,
    "linear-d3-declared-student_t3": lambda: _declared_entry(distribution="student_t3"),
    "linear-d3-declared-vector": lambda: _declared_entry(shape=(1,)),
}
# both sides of WEIGH_BATCH (arrays from 4 samples on) and of 8 rows, from which sum(axis=0) may sum pairwise
BIT_BATCHES = [1, 2, 3, 4, 6, 7, 8, 1000]


@pytest.mark.parametrize("batch", BIT_BATCHES)
@pytest.mark.parametrize("beta", [2, 4])
@pytest.mark.parametrize("case", list(BIT_CASES))
def test_estimator_bits_match_the_per_sample_loop(case, beta, batch):
    oracle, x = BIT_CASES[case]()
    kernel = build_kernel(beta)
    ref_rng, rng = LoopRng(5), Rng(5)
    ref = reference_estimate(oracle, x, 0.05, kernel, ref_rng, batch)
    est = kernel_grad_estimate(oracle, x, 0.05, kernel, rng, batch)
    assert est.tobytes() == ref.tobytes()
    assert rng.gaussian(3).tobytes() == ref_rng.gaussian(3).tobytes()  # same draws consumed


def test_estimator_budget_cut_matches_the_per_sample_loop():
    oracle, x = BIT_CASES["quad50-zo_stoch"]()
    kernel = build_kernel(2)
    ref_ctr, ctr = CountingOracle(oracle, 7), CountingOracle(oracle, 7)
    ref_rng, rng = LoopRng(5), Rng(5)
    with pytest.raises(OracleBudgetError) as ref_err:
        reference_estimate(ref_ctr, x, 0.05, kernel, ref_rng, 10)
    with pytest.raises(OracleBudgetError) as err:
        kernel_grad_estimate(ctr, x, 0.05, kernel, rng, 10)
    # the 8th call is the second probe of sample 3
    assert str(err.value) == str(ref_err.value) and ctr.calls == ref_ctr.calls == 7
    assert rng.gaussian(3).tobytes() == ref_rng.gaussian(3).tobytes()


@pytest.mark.parametrize("batch", [1, 3, 7, 64])
@pytest.mark.parametrize("case", ["linear-d3", "quad50-zo_stoch"])
def test_estimator_at_the_budget_boundary_matches_the_per_sample_loop(case, batch):
    oracle, x = BIT_CASES[case]()
    kernel = build_kernel(2)
    for room in (2 * batch, 2 * batch - 1):
        ref_ctr, ctr = CountingOracle(oracle, 3 + room), CountingOracle(oracle, 3 + room)
        for _ in range(3):  # calls made earlier in the run
            ref_ctr.count_extra()
            ctr.count_extra()
        ref_rng, rng = LoopRng(5), Rng(5)
        if room == 2 * batch:  # exactly enough: no cut, the same bits
            ref = reference_estimate(ref_ctr, x, 0.05, kernel, ref_rng, batch)
            est = kernel_grad_estimate(ctr, x, 0.05, kernel, rng, batch)
            assert est.tobytes() == ref.tobytes()
        else:  # one call short: the cut comes at the last probe, with the stream where it is
            with pytest.raises(OracleBudgetError) as ref_err:
                reference_estimate(ref_ctr, x, 0.05, kernel, ref_rng, batch)
            with pytest.raises(OracleBudgetError) as err:
                kernel_grad_estimate(ctr, x, 0.05, kernel, rng, batch)
            assert str(err.value) == str(ref_err.value)
        assert ctr.calls == ref_ctr.calls == 3 + room
        assert rng.gaussian(3).tobytes() == ref_rng.gaussian(3).tobytes()


class SphereCountingRng(Rng):
    def __init__(self, seed):
        super().__init__(seed)
        self.spheres = 0

    def sphere(self, d):
        self.spheres += 1
        return super().sphere(d)


@pytest.mark.parametrize("batch", [1, 3, 4, 6, 7, 64])
@pytest.mark.parametrize("case", ["linear-d3", "quad50-zo_stoch", "quad50-zo_bounded-worst", "linear-d3-drawing",
                                  "linear-d3-declared-student_t3", "linear-d3-declared-vector"])
def test_estimator_draws_ahead_at_every_batch_with_room(case, batch):
    oracle, x = BIT_CASES[case]()
    kernel = build_kernel(2)
    # only the exact value and the zo_stoch entry are drawn ahead; any other entry keeps the per-sample loop
    ahead = case in ("linear-d3", "quad50-zo_stoch")
    for room, loop in ((None, not ahead), (2 * batch, not ahead), (2 * batch - 1, True)):
        rng = SphereCountingRng(5)
        with contextlib.suppress(OracleBudgetError):
            kernel_grad_estimate(CountingOracle(oracle, room), x, 0.05, kernel, rng, batch)
        # the per-sample loop draws each direction with Rng.sphere; a chunk does not
        assert (rng.spheres > 0) == loop


class TinyNormals:
    """Generator view whose ``call``-th standard_normal draw (from 0) is scaled to a norm below 1e-12.

    The stream position where that draw starts is kept, and a draw that
    starts there again after the stream is rewound is scaled too.  A fill of
    ``out=`` is scaled in place.
    """

    def __init__(self, gen, call):
        self.gen, self.call, self.calls, self.tiny, self.position = gen, call, 0, 0, None

    def standard_normal(self, size=None, out=None):
        position = self.gen.bit_generator.state["state"]["state"]
        if self.calls == self.call:
            self.position = position
        self.calls += 1
        out = self.gen.standard_normal(size, out=out)
        if position == self.position:
            self.tiny += 1
            out *= 1e-14
        return out

    def __getattr__(self, name):
        return getattr(self.gen, name)


@pytest.mark.parametrize("batch, call", [(1, 0), (7, 0), (7, 3), (1000, 0), (1000, 3)])
def test_estimator_redraws_a_tiny_direction_where_the_per_sample_loop_does(batch, call):
    oracle, x = BIT_CASES["linear-d3"]()  # draws nothing but the directions' normals
    kernel = build_kernel(2)
    ref_rng, rng = LoopRng(5), Rng(5)
    ref_rng._gen, rng._gen = TinyNormals(ref_rng._gen, call), TinyNormals(rng._gen, call)
    ref = reference_estimate(oracle, x, 0.05, kernel, ref_rng, batch)
    est = kernel_grad_estimate(oracle, x, 0.05, kernel, rng, batch)
    assert est.tobytes() == ref.tobytes()
    assert ref_rng._gen.calls == batch + 1 and ref_rng._gen.tiny == 1  # one redraw
    # the chunk fills the batch's rows once, finds the tiny norm, rewinds and replays the loop's draws
    assert rng._gen.calls == 2 * batch + 1 and rng._gen.tiny == 2
    assert rng.gaussian(3).tobytes() == ref_rng.gaussian(3).tobytes()


@pytest.mark.parametrize("batch", [1, 7, 1000])
@pytest.mark.parametrize("case", list(BIT_CASES))
def test_bare_suite_is_estimated_as_an_unbudgeted_counter(case, batch):
    oracle, x = BIT_CASES[case]()
    kernel, rng, counted_rng = build_kernel(2), Rng(5), Rng(5)
    counter = CountingOracle(oracle)
    est = kernel_grad_estimate(oracle, x, 0.05, kernel, rng, batch)
    assert est.tobytes() == kernel_grad_estimate(counter, x, 0.05, kernel, counted_rng, batch).tobytes()
    assert rng.state == counted_rng.state and counter.calls == 2 * batch


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("batch", [1, 7])
def test_estimator_refuses_a_zero_dimensional_suite_before_any_draw(batch, noisy):
    oracle = OracleSuite(value=lambda x: 0.0, subgrad=lambda x: np.zeros(0), dim=0)
    if noisy:
        oracle = wrap_noise(oracle, ZOStochValue(0.01), Rng(1))
    rng = Rng(0)
    with pytest.raises(ValueError, match="dim >= 1"):
        kernel_grad_estimate(oracle, np.zeros(0), 0.1, build_kernel(2), rng, batch)
    # a run refuses it at its first iteration, as the estimator does, and runs no iteration at N = 0
    fset = Box(np.zeros(0), np.zeros(0))  # FullSpace refuses dim 0
    cfg = ZoConfig(N=3, step_rule=Const(0.01), kernel=build_kernel(2), batch=batch)
    with pytest.raises(ValueError, match="dim >= 1"):
        run_zo_sgd(oracle, fset, np.zeros(0), cfg, rng)
    assert run_zo_sgd(oracle, fset, np.zeros(0), dataclasses.replace(cfg, N=0), rng).final.iter == 0
    assert rng.gaussian(3).tobytes() == Rng(0).gaussian(3).tobytes()


class CountingValue:
    def __init__(self, fn):
        self.fn, self.calls = fn, 0

    def __call__(self, x):
        self.calls += 1
        return self.fn(x)


@pytest.mark.parametrize("batch", [7, 64])
@pytest.mark.parametrize("noisy", [False, True])
def test_replacing_value_drops_its_rows(noisy, batch):
    lam = np.linspace(1.0, 10.0, 50)
    suite, _ = make_problem("quad_diag", {"lambdas": lam.tolist(), "shift": np.sin(lam).tolist()})
    assert hasattr(suite.value, "rows")
    f = CountingValue(suite.value)
    replaced = dataclasses.replace(suite, value=f)
    if noisy:
        suite, replaced = (wrap_noise(s, ZOStochValue(1e-3), Rng(17)) for s in (suite, replaced))
    x, kernel = np.cos(3.0 * lam), build_kernel(2)
    est = kernel_grad_estimate(replaced, x, 0.05, kernel, Rng(5), batch)
    assert f.calls == 2 * batch  # no rows on f: one call per probe
    assert est.tobytes() == kernel_grad_estimate(suite, x, 0.05, kernel, Rng(5), batch).tobytes()


def test_estimator_unbiased_for_linear():
    c = np.array([1.0, -2.0, 0.5])
    oracle = linear_oracle(c)
    kernel = build_kernel(2)
    rng = Rng(0)
    chunks = np.stack([kernel_grad_estimate(oracle, np.zeros(3), 0.1, kernel, rng, batch=1000)
                       for _ in range(100)])
    mean = chunks.mean(axis=0)
    se = chunks.std(axis=0, ddof=1) / math.sqrt(len(chunks))
    for i in range(3):
        assert abs(mean[i] - c[i]) <= 3 * se[i]


def test_estimator_zero_function():
    oracle = OracleSuite(value=lambda x: 0.0, subgrad=lambda x: np.zeros(2), dim=2)
    est = kernel_grad_estimate(oracle, np.ones(2), 0.1, build_kernel(2), Rng(1), batch=100)
    np.testing.assert_allclose(est, np.zeros(2))


def test_estimator_exactly_unbiased_on_quadratics():
    # symmetric differences cancel the quadratic term exactly, so the kernel
    # estimator of a quadratic gradient is unbiased at any tau
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    kernel = build_kernel(2)
    x = np.array([1.0, 0.0])
    rng = Rng(4)
    chunks = np.stack([kernel_grad_estimate(oracle, x, 0.4, kernel, rng, batch=1000)
                       for _ in range(60)])
    mean = chunks.mean(axis=0)
    se = chunks.std(axis=0, ddof=1) / math.sqrt(len(chunks))
    for i in range(2):
        assert abs(mean[i] - oracle.grad(x)[i]) <= 3 * se[i]


def test_bias_scales_linearly_for_c11_objective():
    # f(x) = ||x||^2 / 2 + x1 |x1| has a Lipschitz (not differentiable)
    # gradient at 0, so the beta = 2 bias bound O(tau) is tight there;
    # analytically E[g~] - grad = d * E[r|r|K(r)] * E[|e1|^3] * tau * e1.
    def value(x):
        return 0.5 * float(x @ x) + float(x[0]) * abs(float(x[0]))

    oracle = OracleSuite(value=value, subgrad=lambda x: x, dim=2)
    kernel = build_kernel(2)
    taus = [0.4, 0.2, 0.1, 0.05]
    biases = []
    for tau in taus:
        rng = Rng(9)
        est = kernel_grad_estimate(oracle, np.zeros(2), tau, kernel, rng, batch=120_000)
        biases.append(abs(est[0]))  # true gradient is 0 at the kink
    # E[r|r| 3r] = 3/4 over uniform r; E[|e1|^3] = 4/(3 pi) in d = 2
    coef = 2.0 * 0.75 * 4.0 / (3.0 * math.pi)
    for tau, b in zip(taus, biases):
        assert b / (coef * tau) == pytest.approx(1.0, rel=0.5)  # within factor 2 of O(tau)
    # halving tau halves the bias (within MC tolerance)
    for b1, b2 in zip(biases, biases[1:]):
        assert b2 < b1


def test_oracle_call_accounting():
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0, 1.0, 1.0]})
    ctr = CountingOracle(oracle)
    kernel_grad_estimate(ctr, np.ones(3), 1e-3, build_kernel(2), Rng(0), batch=7)
    assert ctr.calls == 14  # exactly 2 per sample

    cfg = ZoConfig(N=25, step_rule=Const(0.01), kernel=build_kernel(2), batch=3)
    tr = run_zo_sgd(oracle, fset, np.ones(3), cfg, Rng(0), record_every=10 ** 9)
    # 2 b N estimator calls; each recorded row adds one objective evaluation
    assert tr.final.oracle_calls == 2 * 3 * 25 + len(tr.rows)


def test_zo_sgd_converges_noiseless():
    oracle, fset = make_problem("quad_diag", {"lambdas": [2.0, 1.0, 1.0]})
    kernel = build_kernel(2)
    gamma = 1.0 / (8 * kernel.kappa * 3) / 2.0  # 1/(8 kappa d L)
    cfg = ZoConfig(N=10_000, step_rule=Const(gamma), kernel=kernel,
                   tau_schedule=ConstTau(1e-3), batch=10)
    x0 = np.ones(3)
    tr = run_zo_sgd(oracle, fset, x0, cfg, Rng(3), record_every=1000)
    assert tr.f_out <= 1e-3 * oracle.value(x0)


def test_zo_sgd_stays_at_minimizer_noiseless():
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    cfg = ZoConfig(N=200, step_rule=Const(0.01), kernel=build_kernel(2),
                   tau_schedule=ConstTau(1e-2))
    tr = run_zo_sgd(oracle, fset, np.zeros(2), cfg, Rng(5), record_x=True)
    # quadratic cancellation makes the estimate exactly zero at the minimizer
    for r in tr.rows:
        assert np.linalg.norm(r.x) <= 1e-12


def test_bounded_noise_plateau_grows_with_level():
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    kernel = build_kernel(2)
    plateaus = []
    for delta in (0.001, 0.01, 0.1):
        noisy = wrap_noise(oracle, ZOBoundedValue(delta, mode="random"), Rng(1))
        cfg = ZoConfig(N=4000, step_rule=Const(5e-4), kernel=kernel,
                       tau_schedule=ConstTau(1e-3), batch=1)
        tr = run_zo_sgd(noisy, fset, np.array([1.0, 1.0]), cfg, Rng(2), record_every=10)
        tail = [r.f_gap for r in tr.rows if r.iter >= 2000]
        plateaus.append(float(np.mean(tail)))
    assert plateaus[0] < plateaus[1] < plateaus[2]


@pytest.mark.parametrize("tau", [0.0, -1.0, math.inf, -math.inf, math.nan])
def test_tau_must_be_positive_and_finite(tau):
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
    rng = Rng(0)
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        kernel_grad_estimate(oracle, np.ones(2), tau, build_kernel(2), rng)
    assert rng.gaussian(3).tobytes() == Rng(0).gaussian(3).tobytes()  # refused before any draw
    with pytest.raises(ValueError, match="tau must be positive and finite"):
        ConstTau(tau)
    with pytest.raises(ValueError, match="tau0 must be positive and finite"):
        PowerDecayTau(tau, 0.5)


@pytest.mark.parametrize("d", [1, 2, 50])
def test_tau_whose_scale_overflows_is_refused_before_any_draw(d):
    oracle, _ = make_problem("quad_diag", {"lambdas": [1.0] * d})
    for tau in (1e-320, d * 1e-309):  # d / (2 tau) is inf, and 5e308 overflows
        for batch in (1, 7):
            rng = Rng(0)
            with pytest.raises(ValueError, match=re.escape(f"tau = {tau!r} is too small")):
                kernel_grad_estimate(oracle, np.ones(d), tau, build_kernel(2), rng, batch=batch)
            assert rng.gaussian(3).tobytes() == Rng(0).gaussian(3).tobytes()  # refused before any draw
    tau = d * 1e-308
    assert estimator_scale(d, tau) == d / (2.0 * tau) == pytest.approx(5e307)
    assert np.isfinite(kernel_grad_estimate(oracle, np.ones(d), tau, build_kernel(2), Rng(0))).all()


@pytest.mark.parametrize("shape", [(), (1,), (2,), (4,), (3, 1), (1, 3)])
@pytest.mark.parametrize("counted", [False, True])
def test_x_must_have_the_suite_shape(shape, counted):
    oracle = linear_oracle([1.0, -2.0, 0.5])
    oracle = CountingOracle(oracle, 100) if counted else oracle
    rng = Rng(0)
    with pytest.raises(ValueError, match=re.escape(f"x has shape {shape}")):
        kernel_grad_estimate(oracle, np.full(shape, 0.5), 0.1, build_kernel(2), rng, batch=5)
    assert rng.gaussian(3).tobytes() == Rng(0).gaussian(3).tobytes()  # refused before any draw
    assert not counted or oracle.calls == 0


STEP_RULES = {
    "Const": (Const(0.01), lambda k, sq: 0.01),
    "BudgetConst": (BudgetConst(R=1.0, M=10.0), lambda k, sq: 1.0 / (10.0 * math.sqrt(100))),
    "InvK": (InvK(mu=20.0), lambda k, sq: 1.0 / (20.0 * (k + 1))),
    "AdaGradNorm": (AdaGradNorm(R=0.05), lambda k, sq: 0.05 / math.sqrt(sq)),
    "Decay": (Decay(gamma0=0.05, eta=0.7), lambda k, sq: 0.05 * (k + 1) ** -0.7),
}


@pytest.mark.parametrize("rule_name", list(STEP_RULES))
def test_zo_sgd_deterministic(rule_name):
    rule, gamma = STEP_RULES[rule_name]
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0, 2.0]})
    noisy = wrap_noise(oracle, ZOStochValue(0.05), Rng(0))
    cfg = ZoConfig(N=100, step_rule=rule, kernel=build_kernel(3),
                   tau_schedule=PowerDecayTau(0.1, 0.25), batch=2)
    a = run_zo_sgd(noisy, fset, np.ones(2), cfg, Rng(8), record_x=True)
    b = run_zo_sgd(noisy, fset, np.ones(2), cfg, Rng(8), record_x=True)
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.x, rb.x)
    # every iteration is recorded, so AdaGradNorm's running sum is rebuilt from the rows
    sq = 0.0
    for r in a.rows[:-1]:
        sq += r.grad_norm ** 2
        assert r.step_size == pytest.approx(gamma(r.iter, sq), rel=1e-12)
    assert [r.iter for r in a.rows] == list(range(101))


def undeclared(suite):
    """``suite`` with a zeroth-order entry that declares nothing, so that ``run_zo_sgd`` takes the per-sample loop."""
    entry, value = suite.zo_value, suite.value
    if entry is None:
        return dataclasses.replace(suite, zo_value=lambda x, rng: value(x))
    return dataclasses.replace(suite, zo_value=lambda x, rng: entry(x, rng))


def trace_bits(trace):
    """Every value of a trace, floats as their bytes: equal lists mean byte-identical traces."""
    bits = [trace.status, struct.pack("d", trace.f_out), trace.x_out.tobytes()]
    for column in trace.columns.values():
        bits += [v.tobytes() if isinstance(v, np.ndarray) else struct.pack("d", v) if isinstance(v, float) else v
                 for v in column]
    return bits


@pytest.fixture
def block_chunks(monkeypatch):
    """Chunks of ``BLOCK_VALUES`` raw values, not ``ZO_CHUNK_VALUES``: runs that cross several chunks stay short.

    :func:`chunk_iterations`, which the tests below size their runs by, reads the same budget.
    """
    monkeypatch.setattr(zeroorder, "ZO_CHUNK_VALUES", BLOCK_VALUES)


def assert_run_matches_the_per_sample_loop(suite, x0, cfg, rng, ref_rng, **kw):
    """``run_zo_sgd`` on ``suite`` and on its undeclared copy: the same trace bits and the same stream after."""
    fset = FullSpace(suite.dim)
    ref = run_zo_sgd(undeclared(suite), fset, x0, cfg, ref_rng, record_x=True, **kw)
    got = run_zo_sgd(suite, fset, x0, cfg, rng, record_x=True, **kw)
    assert trace_bits(got) == trace_bits(ref)
    assert rng.state == ref_rng.state
    return got


def _zo_quad(d):
    suite, _ = make_problem("quad_diag", {"lambdas": np.linspace(1.0, 3.0, d).tolist()})
    return wrap_noise(suite, ZOStochValue(0.01), Rng(21)), np.linspace(1.5, -1.0, d)


def check_every_budget_across_the_first_chunk_boundary(d, batch, every):
    suite, x0 = _zo_quad(d)
    chunk = chunk_iterations(batch, d + 2)
    cfg = ZoConfig(N=chunk + 3, step_rule=Const(0.01), kernel=build_kernel(2), batch=batch)

    def calls_after(j):  # iterations 0..j-1 and their due rows
        return 2 * batch * j + (j - 1) // every + 1

    for budget in range(calls_after(chunk - 1), calls_after(chunk + 1) + 2):
        rng = SphereCountingRng(5)
        got = assert_run_matches_the_per_sample_loop(suite, x0, cfg, rng, Rng(5), record_every=every,
                                                     max_oracle_calls=budget)
        assert got.final.oracle_calls >= budget  # every budget cuts the run
        assert rng.spheres <= batch  # no iteration but the one the budget cuts draws a direction with Rng.sphere


@pytest.mark.usefixtures("block_chunks")
@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize("d, batch", [(2, 1), (10, 4), (2, 6), (3, 7)])
def test_run_budget_at_every_offset_across_a_chunk_boundary(d, batch, every):
    check_every_budget_across_the_first_chunk_boundary(d, batch, every)


def test_run_budget_at_every_offset_across_a_chunk_boundary_of_the_real_budget():
    assert chunk_iterations(4, 12) == ZO_CHUNK_VALUES // 48 == 85
    check_every_budget_across_the_first_chunk_boundary(10, 4, 7)


@pytest.mark.parametrize("N, chunks", [(85, 1), (100, 2)])
def test_run_draws_the_samples_of_a_chunk_budget_at_once(monkeypatch, N, chunks):
    # d = 10 under zo_stoch: 12 raw values per sample, so ZO_CHUNK_VALUES (4096) holds 85 iterations of batch 4
    suite, x0 = _zo_quad(10)
    cfg = ZoConfig(N=N, step_rule=Const(0.01), kernel=build_kernel(2), batch=4)
    draws, draw = [], zeroorder._draw

    def counted(*args):
        draws.append(len(args[3]))  # the chunk's iterations
        return draw(*args)

    monkeypatch.setattr(zeroorder, "_draw", counted)
    assert_run_matches_the_per_sample_loop(suite, x0, cfg, Rng(12), Rng(12), record_every=N + 1)
    assert len(draws) == chunks and sum(draws) == N


@pytest.mark.usefixtures("block_chunks")
@pytest.mark.parametrize("exponent", [0.5, 3.0])
@pytest.mark.parametrize("d, batch", [(1, 1), (2, 4), (10, 6)])
def test_run_takes_each_iterations_tau_of_power_decay(d, batch, exponent):
    suite, x0 = _zo_quad(d)
    cfg = ZoConfig(N=3 * chunk_iterations(batch, d + 2) + 2, step_rule=Const(0.01), kernel=build_kernel(2),
                   tau_schedule=PowerDecayTau(0.2, exponent), batch=batch)
    assert_run_matches_the_per_sample_loop(suite, x0, cfg, Rng(8), Rng(8), record_every=3)


@pytest.mark.parametrize("batch", [1, 6])
def test_run_refuses_an_underflowing_tau_where_the_per_sample_loop_does(batch):
    suite, x0 = _zo_quad(2)
    # tau is 0.0 from iteration 6 on; a step this small keeps the iterates, moved by the value noise times
    # d/(2 tau_k) up to 1e279, inside the run's distance monitor until iteration 5
    cfg = ZoConfig(N=20, step_rule=Const(1e-300), kernel=build_kernel(2), tau_schedule=PowerDecayTau(0.2, 400.0),
                   batch=batch)
    rng, ref_rng = Rng(3), Rng(3)
    # tau_5 = 0.2 * 6^-400 is subnormal, and d / (2 tau_5) overflows: iteration 5 is refused
    too_small = re.escape("is too small: the estimator's scale dim/(2 tau) overflows at dim 2")
    with pytest.raises(ValueError, match=too_small):
        run_zo_sgd(undeclared(suite), FullSpace(2), x0, cfg, ref_rng)
    with pytest.raises(ValueError, match=too_small):
        run_zo_sgd(suite, FullSpace(2), x0, cfg, rng)
    assert rng.state == ref_rng.state
    short = dataclasses.replace(cfg, N=5)  # iterations 0-4 only: their scales are finite
    assert_run_matches_the_per_sample_loop(suite, x0, short, Rng(3), Rng(3), record_every=1)


def test_run_refuses_an_x_of_another_shape_where_the_per_sample_loop_does():
    suite, _ = _zo_quad(2)
    cfg = ZoConfig(N=20, step_rule=Const(0.01), kernel=build_kernel(2), batch=3)
    rng, ref_rng = Rng(23), Rng(23)
    wrong = re.escape("x has shape (3,), the suite takes (2,)")
    with pytest.raises(ValueError, match=wrong):
        run_zo_sgd(undeclared(suite), FullSpace(3), np.ones(3), cfg, ref_rng)
    with pytest.raises(ValueError, match=wrong):
        run_zo_sgd(suite, FullSpace(3), np.ones(3), cfg, rng)
    assert rng.state == ref_rng.state


@pytest.mark.usefixtures("block_chunks")
@pytest.mark.parametrize("offset", [0, 1, 5])
@pytest.mark.parametrize("batch", [1, 4, 6])
def test_run_redraws_a_tiny_direction_in_a_later_chunk(batch, offset):
    oracle, x = BIT_CASES["linear-d3"]()  # exact values: each sample's one normal fill is its direction's
    chunk = chunk_iterations(batch, 3)
    cfg = ZoConfig(N=3 * chunk, step_rule=Const(0.01), kernel=build_kernel(2), batch=batch)
    call = chunk * batch + offset  # a sample of the second chunk
    ref_rng, rng = Rng(5), Rng(5)
    ref_rng._gen, rng._gen = TinyNormals(ref_rng._gen, call), TinyNormals(rng._gen, call)
    assert_run_matches_the_per_sample_loop(oracle, x, cfg, rng, ref_rng, record_every=4)
    assert ref_rng._gen.tiny == 1 and rng._gen.tiny >= 1  # the chunk redraws it after a rewind


@pytest.mark.parametrize("case", ["quad50-zo_stoch", "linear-d3", "quad-minimizer", "quad-d1",
                                  "quad50-zo_bounded-random", "linear-d3-drawing", "linear-d3-declared-student_t3"])
@pytest.mark.parametrize("batch", [1, 3, 6, 7, 64])
def test_run_draws_ahead_for_a_declared_entry_at_every_batch(monkeypatch, case, batch):
    oracle, x = BIT_CASES[case]()
    cfg = ZoConfig(N=12, step_rule=Const(0.01), kernel=build_kernel(4), batch=batch)
    estimates = []

    def counted(*args):
        estimates.append(args)
        return kernel_grad_estimate(*args)

    monkeypatch.setattr(zeroorder, "kernel_grad_estimate", counted)
    rng = SphereCountingRng(2)
    assert_run_matches_the_per_sample_loop(oracle, x, cfg, rng, Rng(2), record_every=5)
    declared = case in ("quad50-zo_stoch", "linear-d3", "quad-minimizer", "quad-d1")
    assert (rng.spheres == 0) == declared  # a chunk does not call Rng.sphere
    # the reference estimates all 12 iterations; a run that draws ahead estimates none
    assert len(estimates) == (12 if declared else 24)


def _zo_rosenbrock():
    suite, _ = make_problem("rosenbrock", {})
    return wrap_noise(suite, ZOStochValue(0.01), Rng(21)), np.array([1.5, -1.0])


# run_zo_sgd on both sides of the batch from which its samples are weighed as arrays
WEIGH_CASES = {
    "quad_diag-d1-zo_stoch": lambda: _zo_quad(1),   # one column: an unordered sum would show
    "quad_diag-d10-zo_stoch": lambda: _zo_quad(10),  # value.rows evaluates all probes in one call
    "rosenbrock-zo_stoch": _zo_rosenbrock,           # no rows: one value call per probe
    "linear-d3": BIT_CASES["linear-d3"],             # exact values: no noise terms
}
# Rosenbrock's curvature reaches about 3100 at its start, so a step of 0.01 would leave the run's distance monitor
# within 3 iterations; 1e-4 keeps every case's run going to its end.
WEIGH_STEP = Const(1e-4)
# 8: numpy sums the first 7 rows of a column in order, so only from 8 rows on would sum(axis=0) differ from
# the in-order cumsum at d = 1; 64: a chunk of one iteration (fewer than 2 at every case's width)
WEIGH_BATCHES = [WEIGH_BATCH - 1, WEIGH_BATCH, 6, 8, 64]


def count_weighs(monkeypatch):
    """A list that gets one entry per call of the array weigher ``zeroorder._weigh``."""
    calls, weigh = [], zeroorder._weigh

    def counted(*args):
        calls.append(args[2].shape[0])
        return weigh(*args)

    monkeypatch.setattr(zeroorder, "_weigh", counted)
    return calls


@pytest.mark.usefixtures("block_chunks")
@pytest.mark.parametrize("batch", WEIGH_BATCHES)
@pytest.mark.parametrize("case", list(WEIGH_CASES))
def test_run_weighs_a_batch_as_arrays_from_weigh_batch_with_the_per_sample_loops_bits(monkeypatch, case, batch):
    suite, x0 = WEIGH_CASES[case]()
    width = suite.dim + 2 * (suite.zo_value is not None)
    N = 2 * chunk_iterations(batch, width) + 3  # three chunks, the last one short
    cfg = ZoConfig(N=N, step_rule=WEIGH_STEP, kernel=build_kernel(4), tau_schedule=PowerDecayTau(0.2, 0.5),
                   batch=batch)
    weighs = count_weighs(monkeypatch)
    assert_run_matches_the_per_sample_loop(suite, x0, cfg, Rng(6), Rng(6), record_every=3)
    # from WEIGH_BATCH on every iteration is one call of the array weigher; below it, none is
    assert weighs == ([batch] * N if batch >= WEIGH_BATCH else [])


@pytest.mark.usefixtures("block_chunks")
@pytest.mark.parametrize("batch", WEIGH_BATCHES)
@pytest.mark.parametrize("case", list(WEIGH_CASES))
def test_run_budget_inside_an_iteration_weighed_as_arrays(monkeypatch, case, batch):
    suite, x0 = WEIGH_CASES[case]()
    width = suite.dim + 2 * (suite.zo_value is not None)
    j = chunk_iterations(batch, width) // 4 * 2 + 1  # odd, inside the first chunk: no row is due at iteration j
    cfg = ZoConfig(N=3 * j, step_rule=WEIGH_STEP, kernel=build_kernel(2), batch=batch)
    calls_before = 2 * batch * j + (j - 1) // 2 + 1  # iterations 0..j-1 and their due rows at record_every 2
    weighs = count_weighs(monkeypatch)
    for budget in range(calls_before, calls_before + 2 * batch):  # each cuts one of iteration j's probes
        weighs.clear()
        got = assert_run_matches_the_per_sample_loop(suite, x0, cfg, Rng(4), Rng(4), record_every=2,
                                                     max_oracle_calls=budget)
        assert got.final.iter == j and got.final.oracle_calls == budget + 1  # the call past the budget counts
        # iterations before j are weighed as arrays; j itself, without room for its probes, by the estimator's loop
        assert weighs == ([batch] * j if batch >= WEIGH_BATCH else [])


def test_a_decaying_tau_below_the_resolution_of_x_does_not_blow_the_run_up():
    # a tau below the resolution of x puts both probes on x, and the estimate is the value noise times d/(2 tau_k)
    spec = parse_config(json.dumps({
        "problem": {"name": "quad_diag", "params": {"lambdas": [2, 1]}},
        "noise": {"kind": "zo_stoch", "delta_tilde": 0.01},
        "method": {"name": "zo_sgd", "params": {"gamma": 0.01, "tau0": 0.2, "tau_exponent": 40}},
        "iterations": 200}))
    trace, summary = run_experiment(spec)
    # run_zo_sgd's distance monitor ends such a run diverged, before its gap reaches about 1e18
    assert summary["status"] != "budget_exhausted" or summary["final_gap"] <= trace.rows[0].f_gap
