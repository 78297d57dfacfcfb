import dataclasses
import itertools

import numpy as np
import pytest

from optbench import claims
from optbench.bench import write_trace
from optbench.core import AdditiveStochGrad, Rng, make_problem, wrap_noise
from optbench.core.noise import AdditiveNoise
from optbench.core.rng import BLOCK_VALUES, chunk_uses
from optbench.smooth import SmoothRunConfig, run_gd
from optbench.stochastic import (
    AdaGradNorm,
    BudgetConst,
    Const,
    Decay,
    InvK,
    NoAveraging,
    SgdConfig,
    TailAvg,
    UniformAvg,
    clip,
    monte_carlo_mean_cov,
    run_sgd,
)


def quad1d(sigma, wrap_seed=0):
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0]})
    return wrap_noise(oracle, AdditiveStochGrad(sigma), Rng(wrap_seed)), fset


def test_clip_examples():
    np.testing.assert_allclose(clip(np.array([3.0, 4.0]), 1.0), [0.6, 0.8])
    np.testing.assert_allclose(clip(np.array([0.1, 0.0]), 1.0), [0.1, 0.0])
    np.testing.assert_allclose(clip(np.zeros(3), 2.0), np.zeros(3))
    with pytest.raises(ValueError):
        clip(np.ones(2), 0.0)


def test_zero_noise_matches_gd_bitwise():
    oracle, fset = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, AdditiveStochGrad(0.0), Rng(0))
    x0 = np.array([1.0, -2.0])
    gd = run_gd(oracle, x0, SmoothRunConfig(N=30, tol=0.0), record_x=True)
    sgd = run_sgd(noisy, fset, x0, SgdConfig(N=30, step_rule=Const(0.25)), Rng(1),
                  record_x=True)
    for ra, rb in zip(gd.rows, sgd.rows):
        assert np.array_equal(ra.x, rb.x)


def test_stationary_variance_constant_step():
    gamma, n, sigma = 0.25, 30_000, 1.0
    noisy, fset = quad1d(sigma)
    tr = run_sgd(noisy, fset, np.array([1.0]), SgdConfig(N=n, step_rule=Const(gamma)),
                 Rng(7), record_every=1, record_x=False)
    dists = np.array([r.dist_to_opt for r in tr.rows[2000:]])
    target = claims.sgd_stationary_variance(gamma, sigma, noisy.mu)  # 1/7
    assert np.mean(dists ** 2) == pytest.approx(target, rel=0.10)


def test_constant_step_mean_bound_over_seeds():
    gamma, n, d0, sigma = 0.25, 200, 1.0, 1.0
    noisy, fset = quad1d(sigma)
    finals = []
    for seed in range(100):
        tr = run_sgd(noisy, fset, np.array([d0]), SgdConfig(N=n, step_rule=Const(gamma)),
                     Rng(1000 + seed), record_every=n)
        finals.append(tr.final.dist_to_opt ** 2)
    bound = claims.sgd_mean_square(gamma, sigma, noisy.mu, n, d0)
    assert np.mean(finals) <= bound


def test_inv_k_uniform_average_bound():
    noisy, fset = quad1d(sigma=1.0)
    n, seeds = 2000, 50
    gaps, m2 = [], []
    for seed in range(seeds):
        cfg = SgdConfig(N=n, step_rule=InvK(1.0), averaging=UniformAvg())
        tr = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(seed), record_every=50)
        gaps.append(tr.f_out)
        m2.append(np.mean([r.grad_norm ** 2 for r in tr.rows if r.grad_norm is not None]))
    m2_hat = float(np.mean(m2))
    assert float(np.mean(gaps)) <= 3 * m2_hat / (1.0 * n)


def test_batching_variance_reduction():
    noisy, fset = quad1d(sigma=1.0)
    xstar = np.zeros(1)
    rng = Rng(3)
    base = None
    for b in (1, 4, 16):
        draws = []
        for _ in range(4000):
            g = np.mean([noisy.stoch_grad(xstar, rng)[0] for _ in range(b)])
            draws.append(g)
        v = float(np.var(draws))
        if base is None:
            base = v
        assert v == pytest.approx(base / b, rel=0.2)


def test_clipped_step_norm():
    noisy, fset = quad1d(sigma=5.0)
    lam = 0.7
    cfg = SgdConfig(N=200, step_rule=Const(0.1), clip_lambda=lam)
    tr = run_sgd(noisy, fset, np.array([2.0]), cfg, Rng(5), record_x=True)
    for prev, cur in zip(tr.rows, tr.rows[1:]):
        step_vec = np.linalg.norm(cur.x - prev.x)
        assert step_vec <= prev.step_size * lam * (1 + 1e-12)
        assert prev.grad_norm <= lam * (1 + 1e-12)


def test_adagrad_steps_nonincreasing():
    noisy, fset = quad1d(sigma=1.0)
    cfg = SgdConfig(N=300, step_rule=AdaGradNorm(R=1.0))
    tr = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(9))
    steps = [r.step_size for r in tr.rows[:-1]]
    for a, b in zip(steps, steps[1:]):
        assert b <= a * (1 + 1e-15)


def test_budget_const_and_decay_schedules():
    noisy, fset = quad1d(sigma=0.5)
    cfg = SgdConfig(N=100, step_rule=BudgetConst(R=2.0, M=4.0))
    tr = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(0))
    assert tr.rows[0].step_size == pytest.approx(2.0 / (4.0 * 10.0))
    cfg = SgdConfig(N=100, step_rule=Decay(gamma0=0.5, eta=0.6))
    tr = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(0))
    assert tr.rows[3].step_size == pytest.approx(0.5 * 4 ** -0.6)
    with pytest.raises(ValueError):
        Decay(gamma0=0.5, eta=0.5)


def test_tail_averaging_window():
    # average of the last half of iterates; verified against recorded x's
    noisy, fset = quad1d(sigma=1.0)
    n = 40
    cfg = SgdConfig(N=n, step_rule=Const(0.2), averaging=TailAvg(0.5))
    tr = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(2), record_x=True)
    xs = np.array([r.x[0] for r in tr.rows[:-1]])  # iterates 0..N-1
    np.testing.assert_allclose(tr.x_out[0], np.mean(xs[n - 20:]), atol=1e-12)


@pytest.mark.parametrize("averaging, first", [(UniformAvg(), 0), (TailAvg(0.5), 18), (TailAvg(0.3), 25),
                                               (TailAvg(1.0), 0)], ids=["uniform", "tail-0.5", "tail-0.3", "tail-1"])
def test_averages_are_the_in_order_mean_of_the_recorded_iterates(averaging, first):
    # N = 37: the tail of fraction f starts at x^{N - ceil(f N)}, x^18 for 0.5 and x^25 for 0.3
    oracle, fset = make_problem("quad_diag", {"lambdas": [4.0, 1.0]})
    noisy = wrap_noise(oracle, AdditiveStochGrad(1.0), Rng(0))
    n = 37
    cfg = SgdConfig(N=n, step_rule=Const(0.1), averaging=averaging)
    tr = run_sgd(noisy, fset, np.array([1.0, -2.0]), cfg, Rng(3), record_x=True)
    assert [r.iter for r in tr.rows] == list(range(n + 1))
    total = np.zeros(2)
    for r in tr.rows[first:n]:  # x^first .. x^{N-1}, added in order from zeros
        total = total + r.x
    assert tr.x_out.tobytes() == (total / (n - first)).tobytes()


def test_seed_determinism():
    noisy, fset = quad1d(sigma=1.0)
    cfg = SgdConfig(N=50, step_rule=Const(0.1), averaging=UniformAvg())
    a = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(11), record_x=True)
    b = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(11), record_x=True)
    assert a.x_out == b.x_out
    for ra, rb in zip(a.rows, b.rows):
        assert np.array_equal(ra.x, rb.x) and ra.f_value == rb.f_value


def test_heavy_tail_clipping_robustness():
    oracle, fset = make_problem("quad_diag", {"lambdas": [1.0]})
    noisy = wrap_noise(oracle, AdditiveStochGrad(3.0, distribution="student_t3"), Rng(0))
    raw, clipped = [], []
    for seed in range(30):
        cfg = SgdConfig(N=400, step_rule=Const(0.05))
        raw.append(run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(seed),
                           record_every=400).final.dist_to_opt ** 2)
        cfg = SgdConfig(N=400, step_rule=Const(0.05), clip_lambda=3.0)
        clipped.append(run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(seed),
                               record_every=400).final.dist_to_opt ** 2)
    assert np.mean(clipped) < np.mean(raw)


# -- noise drawn in blocks ---------------------------------------------------------

RULES = {"const": Const(0.05), "budget_const": BudgetConst(R=2.0, M=3.0), "inv_k": InvK(mu=1.0),
         "adagrad_norm": AdaGradNorm(R=1.0), "decay": Decay(gamma0=0.3, eta=0.7)}
AVERAGING = (NoAveraging(), UniformAvg(), TailAvg(0.3))
DISTRIBUTIONS = ("gaussian", "student_t3")


def noisy_quad(d, distribution="gaussian", raise_after=None):
    """``quad_diag`` under additive noise; its grad raises after ``raise_after`` calls when given."""
    oracle, fset = make_problem("quad_diag", {"lambdas": np.linspace(2.0, 1.0, d).tolist()})
    if raise_after is not None:
        oracle = dataclasses.replace(oracle, grad=raising_after(raise_after, oracle.grad))
    return wrap_noise(oracle, AdditiveStochGrad(0.5, distribution), Rng(11)), fset


def raising_after(calls, grad):
    count = 0

    def g(x):
        nonlocal count
        count += 1
        if count > calls:
            raise FloatingPointError(f"grad call {count}")
        return grad(x)
    return g


def per_call(suite):
    """The same suite behind a hand-built ``stoch_grad``, which run_sgd calls once per draw."""
    return dataclasses.replace(suite, stoch_grad=lambda x, r: suite.stoch_grad(x, r))


def crossing_n(d, batch):
    """An iteration count whose draws cross at least two chunk boundaries of the block path."""
    return 2 * chunk_uses(BLOCK_VALUES, d) // batch + 7


def sgd_outcome(tmp_path, suite, fset, x0, cfg, **kw):
    """Trace bytes, status, calls and reported point of a run, then the next draws of its rng."""
    rng = Rng(12)
    try:
        trace = run_sgd(suite, fset, x0, cfg, rng, record_x=True, **kw)
    except FloatingPointError as e:
        outcome = (str(e),)
    else:
        path = tmp_path / "trace.json"
        write_trace(trace, str(path), "json")
        outcome = (path.read_bytes(), trace.status, trace.final.oracle_calls, trace.x_out.tobytes())
    return outcome + (rng.gaussian(5).tobytes(),)


def test_noise_rows_equal_successive_calls():
    # shape () is a value entry's noise (zo_stoch), (d,) a gradient entry's (additive_stoch_grad)
    for distribution, shape in itertools.product(DISTRIBUTIONS, ((), (1,), (3,))):
        base = (lambda x: 1.5) if shape == () else (lambda x, d=shape[0]: np.arange(d, dtype=float))
        noise = AdditiveNoise(base, 0.7, shape, distribution)
        entry, x = noise.entry(), np.zeros(3)
        assert entry.noise is noise
        r1, r2, r3 = Rng(4), Rng(4), Rng(4)
        calls = [entry(x, r1) for _ in range(37)]
        assert all(type(f) is float for f in calls) if shape == () else calls[0].shape == shape
        calls = np.stack(calls).tobytes()
        assert (base(x) + noise.rows(r2, 37)).tobytes() == calls
        raw = r3.gaussian((37, *shape)) if distribution == "gaussian" else r3.student_t(3, (37, *shape))
        assert (base(x) + noise.terms(raw)).tobytes() == calls
        assert r1.state == r2.state == r3.state


def test_wrap_noise_takes_the_block_path():
    suite, _ = noisy_quad(2)
    assert isinstance(suite.stoch_grad.noise, AdditiveNoise)
    assert not hasattr(per_call(suite).stoch_grad, "noise")


@pytest.mark.parametrize("rule, distribution", itertools.product(RULES, DISTRIBUTIONS))
def test_block_path_is_bit_identical_to_per_call(tmp_path, rule, distribution):
    for d, batch, clip_lambda, averaging in itertools.product((1, 2, 50), (1, 3), (None, 0.5), AVERAGING):
        suite, fset = noisy_quad(d, distribution)
        cfg = SgdConfig(N=crossing_n(d, batch), step_rule=RULES[rule], batch=batch,
                        clip_lambda=clip_lambda, averaging=averaging)
        x0 = np.linspace(1.5, -1.0, d)
        block = sgd_outcome(tmp_path, suite, fset, x0, cfg, record_every=7)
        assert block == sgd_outcome(tmp_path, per_call(suite), fset, x0, cfg, record_every=7), \
            (d, batch, clip_lambda, averaging)


@pytest.mark.parametrize("batch", [1, 3])
def test_unbudgeted_block_path_draws_each_noise_row_once(monkeypatch, batch):
    noisy, fset = quad1d(1.0)
    rows, sets = [], []
    gaussian, state = Rng.gaussian, Rng.state

    def counted(rng, size=None):
        rows.append(size[0])  # a block of (n, 1) rows
        return gaussian(rng, size)

    def set_state(rng, value):
        sets.append(value)
        state.fset(rng, value)

    monkeypatch.setattr(Rng, "gaussian", counted)
    monkeypatch.setattr(Rng, "state", property(state.fget, set_state))
    cfg = SgdConfig(N=1000, step_rule=Decay(gamma0=0.3), batch=batch, averaging=UniformAvg())
    run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(3), record_every=1001)
    assert sum(rows) == 1000 * batch and max(rows) == BLOCK_VALUES and sets == []


@pytest.mark.parametrize("case", ["budget_mid_chunk", "budget_at_record_row", "grad_raises"])
def test_block_path_cut_short_leaves_the_per_call_stream(tmp_path, case):
    for d, batch, distribution in itertools.product((1, 2, 50), (1, 3), DISTRIBUTIONS):
        N = crossing_n(d, batch)
        draws = N * batch
        kw = {"record_every": 1 if case == "budget_at_record_row" else 7}
        if case == "budget_mid_chunk":
            kw["max_oracle_calls"] = draws // 2 + 3
        elif case == "budget_at_record_row":
            # b draws, then one recording evaluation, per iteration: the budget's
            # last call is a draw, so the next row's evaluation is the call it refuses
            kw["max_oracle_calls"] = (N // 2) * (batch + 1) + batch
        cfg = SgdConfig(N=N, step_rule=Decay(gamma0=0.3), batch=batch, averaging=UniformAvg())
        x0 = np.linspace(1.5, -1.0, d)
        raise_after = draws // 2 + 1 if case == "grad_raises" else None
        suite, fset = noisy_quad(d, distribution, raise_after)
        block = sgd_outcome(tmp_path, suite, fset, x0, cfg, **kw)
        suite, fset = noisy_quad(d, distribution, raise_after)  # a fresh grad-call count
        call = sgd_outcome(tmp_path, per_call(suite), fset, x0, cfg, **kw)
        assert block == call, (d, batch, distribution)
        assert len(block) == (2 if case == "grad_raises" else 5)


# -- Monte-Carlo statistics ------------------------------------------------------

def test_concurrent_runs_do_not_interfere():
    # one shared oracle suite, two threads with their own rng streams: results
    # equal the sequential ones
    import threading

    noisy, fset = quad1d(sigma=1.0)
    cfg = SgdConfig(N=300, step_rule=Const(0.1))
    sequential = [run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(s)).x_out for s in (1, 2)]
    results = [None, None]

    def work(i, seed):
        results[i] = run_sgd(noisy, fset, np.array([1.0]), cfg, Rng(seed)).x_out

    threads = [threading.Thread(target=work, args=(i, s)) for i, s in enumerate((1, 2))]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for got, want in zip(results, sequential):
        assert np.array_equal(got, want)


def test_monte_carlo_constant_output():
    stats = monte_carlo_mean_cov(lambda rng: np.array([1.0, -2.0]), replicas=50, seed=0)
    np.testing.assert_allclose(stats.mean, [1.0, -2.0])
    np.testing.assert_allclose(stats.covariance, np.zeros((2, 2)), atol=1e-300)


def test_monte_carlo_validation_and_properties():
    with pytest.raises(ValueError):
        monte_carlo_mean_cov(lambda rng: np.zeros(1), replicas=1, seed=0)
    stats = monte_carlo_mean_cov(lambda rng: rng.gaussian(3), replicas=400, seed=1)
    assert np.allclose(stats.covariance, stats.covariance.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(stats.covariance)) >= -1e-10
    np.testing.assert_allclose(stats.covariance, np.eye(3), atol=0.35)
    # derived replica seeds are reproducible
    again = monte_carlo_mean_cov(lambda rng: rng.gaussian(3), replicas=400, seed=1)
    assert np.array_equal(stats.mean, again.mean)
