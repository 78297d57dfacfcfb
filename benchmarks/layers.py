"""Isolated and stacked per-call cost of the layers one iteration passes through.

For the SGD, GD and ZO paths each layer is timed alone (its child replaced
by a stub that returns a precomputed value) and in the stack (raw
callable, then + noise wrapper, + CountingOracle, + TraceRecorder.record
with its recording evaluation, + project or lmo), as one iteration of the
method loop uses them.
"""

from __future__ import annotations

import dataclasses
import itertools
import statistics
import time

import numpy as np

from optbench.core import (
    AdditiveStochGrad,
    Box,
    CountingOracle,
    RelativeGrad,
    Rng,
    TraceRecorder,
    ZOStochValue,
    make_problem,
    wrap_noise,
)

CALLS, REPEATS = 1000, 5


def _us(fn) -> float:
    """Median over repeats of the mean per-call time, in microseconds."""
    pc = time.perf_counter
    times = []
    for _ in range(REPEATS):
        t0 = pc()
        for _ in range(CALLS):
            fn()
        times.append((pc() - t0) / CALLS)
    return statistics.median(times) * 1e6


def _path(kind, seed):
    box = Box(-2.0 * np.ones(2), 2.0 * np.ones(2))
    x = np.array([0.3, -0.2])
    rng = Rng((seed, 31))
    if kind == "sgd":
        suite, _ = make_problem("quad_diag", {"lambdas": [2.0, 1.0]})
        noise, entry, raw = AdditiveStochGrad(1.0), "stoch_grad", "grad"
    elif kind == "gd":
        suite, _ = make_problem("quad_diag", {"lambdas": [10.0, 1.0]})
        noise, entry, raw = RelativeGrad(0.25, mode="shrink"), "grad", "grad"
    else:
        suite, _ = make_problem("quad_diag", {"lambdas": [1.0, 1.0]})
        noise, entry, raw = ZOStochValue(0.01), "zo_value", "value"
    takes_rng = entry in ("stoch_grad", "zo_value")
    base = getattr(suite, raw)
    out = base(x)
    noisy = wrap_noise(suite, noise, rng)
    noise_alone = wrap_noise(dataclasses.replace(suite, **{raw: lambda x: out}), noise, rng)
    stub = dataclasses.replace(suite, **{entry: (lambda x, r: out) if takes_rng else (lambda x: out)})
    ctr_alone = CountingOracle(stub)
    ctr = CountingOracle(noisy)
    rec_alone = TraceRecorder(suite, CountingOracle(suite))
    rec = TraceRecorder(suite, ctr)
    it = itertools.count()

    def call(obj, name):
        fn = getattr(obj, name)
        return (lambda: fn(x, rng)) if takes_rng else (lambda: fn(x))

    def recorded():
        g = call(ctr, entry)()
        rec.record(next(it), x, ctr.value(x), grad_norm=float(np.linalg.norm(g)), step_size=0.1)
        return g

    last = (lambda: box.lmo(np.atleast_1d(recorded()))) if kind == "gd" else (
        lambda: box.project(x - 0.1 * recorded()))
    last_alone = (lambda: box.lmo(x)) if kind == "gd" else (lambda: box.project(x))
    tail = "lmo" if kind == "gd" else "project"
    return {
        "raw_us": _us(lambda: base(x)),
        "noise_us": _us(call(noise_alone, entry)),
        "count_us": _us(call(ctr_alone, entry)),
        "record_us": _us(lambda: rec_alone.record(next(it), x, 1.0, grad_norm=1.0, step_size=0.1)),
        f"{tail}_us": _us(last_alone),
        "stack_noise_us": _us(call(noisy, entry)),
        "stack_count_us": _us(call(ctr, entry)),
        "stack_record_us": _us(recorded),
        f"stack_{tail}_us": _us(last),
    }


def layer_costs(seed: int) -> dict:
    out = {}
    for kind in ("sgd", "gd", "zo"):
        for name, value in _path(kind, seed).items():
            out[f"path.{kind}.{name}"] = value
    return out
