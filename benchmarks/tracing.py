"""Out-of-process-free tracing: spans around optbench's public calls.

Nothing under ``src/`` is edited.  While a :class:`Tracer` is installed:

* the names ``bench.cli``, ``bench.runner`` and ``bench.config`` imported
  from their layers are rebound to timed wrappers;
* the method entry points of every method module are wrapped, as the
  registry looks them up as module attributes at call time;
* ``make_problem`` returns its suite with every callable wrapped through
  ``dataclasses.replace`` (so the noise wrapper built on top of it calls
  the timed raw entries, which separates raw time from noise time) and
  its feasible set as a timing subclass of the set's own class, so the
  methods' ``isinstance`` checks still hold;
* ``Rng`` is replaced by a timing subclass in the modules that build
  streams (``bench.runner`` and ``stochastic``).

Each span charges its duration minus the time of its traced children
("self time") to its layer.  Hot per-call layers (raw oracles, noise,
sets, rng) are aggregated only; coarse spans (CLI calls, parsing,
problem builds, method runs, trace I/O) are also kept as records with
their parent and the op they belong to, and written out at the end.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import os
import time
from collections import defaultdict

# Program layers whose self time is reported; "harness" is the benchmark's own code.
LAYERS = (
    "bench.cli", "bench.config", "bench.runner", "bench.tracefile.write", "bench.tracefile.read",
    "bench.rates", "subgrad", "smooth", "momentum", "frankwolfe", "stochastic", "zeroorder",
    "core.problems", "core.problems.build", "core.noise", "core.sets", "core.rng",
)

_METHOD_ENTRIES = {
    "subgrad": ("run_polyak_subgrad", "run_const_subgrad", "run_switching", "run_restarted_switching"),
    "smooth": ("run_gd", "run_gd_abs", "run_gd_rel"),
    "momentum": ("run_momentum", "run_cg_quadratic"),
    "frankwolfe": ("run_fw",),
    "stochastic": ("run_sgd", "monte_carlo_mean_cov"),
    "zeroorder": ("run_zo_sgd", "build_kernel"),
}


class Tracer:
    def __init__(self):
        self._stack = []
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.spans = []
        self.op = -1
        self._ids = itertools.count()
        self._patches = []

    # -- spans -----------------------------------------------------------------

    def wrap(self, layer, fn, count=None, keep=False):
        """``fn`` with its self time charged to ``layer``; ``count`` names a call counter.

        With ``keep`` every call is also recorded as a span whose parent is
        the nearest enclosing kept span.
        """
        stack, self_s, counts, spans, pc = self._stack, self.self_s, self.counts, self.spans, time.perf_counter
        count = count or layer + ".calls"
        name = getattr(fn, "__name__", layer)
        ids = self._ids

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else None
            span_id = next(ids) if keep else parent
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = pc()
                dur = t1 - t0
                stack.pop()
                self_s[layer] += dur - frame[0]
                counts[count] += 1
                if stack:
                    stack[-1][0] += dur
                if keep:
                    spans.append((span_id, name, layer, t0, t1, parent, self.op))

        traced.__wrapped__ = fn
        return traced

    def harness(self, fn):
        """Benchmark code called from inside a traced layer; kept out of that layer's self time."""
        return self.wrap("harness", fn)

    # -- proxies ----------------------------------------------------------------

    def timed_suite(self, suite):
        """``suite`` with its raw callables charged to ``core.problems``."""
        w = self.wrap
        repl = {}
        for field, count in (("value", "core.problems.value_calls"), ("subgrad", "core.problems.grad_calls"),
                             ("grad", "core.problems.grad_calls")):
            fn = getattr(suite, field)
            if fn is not None:
                repl[field] = w("core.problems", fn, count)
        if suite.constraint is not None:
            repl["constraint"] = dataclasses.replace(
                suite.constraint,
                value=w("core.problems", suite.constraint.value, "core.problems.value_calls"),
                subgrad=w("core.problems", suite.constraint.subgrad, "core.problems.grad_calls"))
        if suite.quadratic is not None:
            repl["quadratic"] = dataclasses.replace(
                suite.quadratic, matvec=w("core.problems", suite.quadratic.matvec, "core.problems.matvec_calls"))
        return dataclasses.replace(suite, **repl)

    def _timed_set(self, fset):
        sub = self._set_classes.get(type(fset))
        if sub is None:
            base = type(fset)
            attrs = {m: self.wrap("core.sets", getattr(base, m)) for m in ("project", "lmo")}
            sub = type("Timed" + base.__name__, (base,), attrs)
            self._set_classes[base] = sub
        obj = object.__new__(sub)
        obj.__dict__.update(fset.__dict__)
        return obj

    def timed_rng(self, rng):
        """A timing view sharing ``rng``'s generator state."""
        obj = object.__new__(self.TimedRng)
        obj.__dict__.update(rng.__dict__)
        return obj

    # -- install / uninstall ----------------------------------------------------

    def _patch(self, module, name, value):
        self._patches.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def install(self, ob):
        """Rebind optbench's names; ``ob`` is the imported ``optbench`` package."""
        from optbench.bench import cli, config, runner, tracefile
        from optbench.core import noise as core_noise
        from optbench.core import problems as core_problems
        from optbench.core.rng import Rng

        w = self.wrap
        tracer = self
        self._set_classes = {}

        draws = {m: w("core.rng", getattr(Rng, m), "core.rng.draws")
                 for m in ("uniform", "gaussian", "student_t", "integers", "sphere")}

        def spawn(rng, key):
            return tracer.TimedRng(rng._entropy + (int(key),))

        self.TimedRng = type("TimedRng", (Rng,), dict(draws, spawn=spawn))

        make_problem = core_problems.make_problem
        traced_make = w("core.problems.build", make_problem, "core.problems.builds", keep=True)
        timed_suite, timed_set = self.harness(self.timed_suite), self.harness(self._timed_set)

        def make_problem_traced(name, params=None, seed=0):
            suite, fset = traced_make(name, params, seed)
            return timed_suite(suite), timed_set(fset)

        wrap_noise = core_noise.wrap_noise
        traced_wrap = w("core.noise", wrap_noise, "core.noise.builds", keep=True)

        def wrap_entries(base, out):
            repl = {f: w("core.noise", getattr(out, f))
                    for f in ("grad", "subgrad", "stoch_grad", "zo_value")
                    if getattr(out, f) is not None and getattr(out, f) is not getattr(base, f)}
            return dataclasses.replace(out, **repl) if repl else out

        wrap_entries = self.harness(wrap_entries)

        def wrap_noise_traced(oracle, noise, rng):
            return wrap_entries(oracle, traced_wrap(oracle, noise, rng))

        write_trace = tracefile.write_trace
        traced_write = w("bench.tracefile.write", write_trace, keep=True)

        def write_traced(trace, path, format="csv"):
            traced_write(trace, path, format)
            tracer.counts["bench.tracefile.bytes"] += os.path.getsize(path)

        for mod in (core_problems, runner, config):
            self._patch(mod, "make_problem", make_problem_traced)
        self._patch(runner, "default_x0", w("core.problems.build", runner.default_x0, "core.problems.builds"))
        for mod in (core_noise, runner):
            self._patch(mod, "wrap_noise", wrap_noise_traced)
        for mod in (runner, ob.stochastic):
            self._patch(mod, "Rng", self.TimedRng)
        self._patch(runner, "write_trace", write_traced)
        self._patch(cli, "read_trace", w("bench.tracefile.read", cli.read_trace, keep=True))
        self._patch(cli, "parse_config", w("bench.config", cli.parse_config, "bench.config.parses", keep=True))
        self._patch(cli, "run_experiment", w("bench.runner", cli.run_experiment, keep=True))
        self._patch(cli, "fit_rate", w("bench.rates", cli.fit_rate, keep=True))
        self._patch(cli, "main", w("bench.cli", cli.main, keep=True))
        for modname, names in _METHOD_ENTRIES.items():
            mod = getattr(ob, modname)
            for name in names:
                self._patch(mod, name, w(modname, getattr(mod, name), keep=True))
        self._patch(ob.smooth, "run_gd_rel_adaptive", self._adaptive(ob.smooth.run_gd_rel_adaptive))
        self._patch(ob.zeroorder, "kernel_grad_estimate", self._estimator(ob.zeroorder.kernel_grad_estimate))

    def _adaptive(self, fn):
        """gd_rel_adaptive: one value call per trial step, plus the start and final values."""
        traced = self.wrap("smooth", fn, keep=True)
        counts = self.counts

        def run(*args, **kwargs):
            before = counts["core.problems.value_calls"]
            trace = traced(*args, **kwargs)
            counts["smooth.trials"] += counts["core.problems.value_calls"] - before - 2
            counts["smooth.accepted"] += trace.final.iter
            return trace

        return run

    def _estimator(self, fn):
        traced = self.wrap("zeroorder", fn, "zeroorder.estimates")
        counts = self.counts

        def estimate(oracle, x, tau, kernel, rng, batch=1):
            counts["zeroorder.samples"] += batch
            return traced(oracle, x, tau, kernel, rng, batch)

        return estimate

    def uninstall(self):
        while self._patches:
            module, name, value = self._patches.pop()
            setattr(module, name, value)

    # -- output -----------------------------------------------------------------

    def dump(self, path, extra):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        doc = dict(extra)
        doc["layers"] = {k: {"self_s": v} for k, v in sorted(self.self_s.items())}
        doc["counts"] = dict(sorted(self.counts.items()))
        doc["span_fields"] = ["id", "name", "layer", "start", "end", "parent", "op"]
        doc["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(doc, fh)
