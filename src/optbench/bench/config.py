"""Experiment configuration: JSON schema, strict parsing, validation.

A config document is a single JSON object:

    {
      "problem": {"name": "quad_diag", "params": {"lambdas": [10, 1]}, "seed": 0},
      "noise":   {"kind": "relative_grad", "alpha": 0.25, "mode": "shrink"},
      "method":  {"name": "gd_rel", "params": {"alpha": 0.25}},
      "budget":  {"iterations": 200, "max_oracle_calls": null},
      "output":  {"trace_path": null, "record_every": 1, "record_x": false},
      "x0": [1.0, 1.0]
    }

``problem`` and ``method`` may also be bare name strings, and
``iterations`` may be given at the top level.  Unknown keys are rejected
at every level to catch typos.  Parsing then builds the spec with
:func:`optbench.bench.runner.assemble`: the problem, its noise wrapper
and, against the noisy problem, the method, so bad names, noise models
the problem cannot carry, an ``x0`` of the wrong length and bad
parameters fail at parse time, the keys of an alternative the config did
not pick (another step rule kind's, say) among them.  The spec keeps
that build for its first run.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, field, fields
from typing import Optional

import numpy as np

from ..core.linalg import flag, number
from ..core.noise import NOISE_KINDS, NoNoise, NoiseSpec
# unused here (parsing builds through runner.assemble), but benchmarks/tracing.py rebinds config.make_problem
from ..core.problems import make_problem

_MAX_TRACE_ROWS = 100_000


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ExperimentSpec:
    problem_name: str
    method_name: str
    iterations: int
    problem_params: dict = field(default_factory=dict)
    seed: int = 0
    noise: NoiseSpec = field(default_factory=NoNoise)
    method_params: dict = field(default_factory=dict)
    max_oracle_calls: Optional[int] = None
    trace_path: Optional[str] = None
    record_every: int = 1
    record_x: bool = False
    x0: Optional[np.ndarray] = None
    # parse_config's build of this spec, (oracle, fset, x0, run), until run_experiment takes it for the first run;
    # not an init field, so a spec made with dataclasses.replace() holds none and builds its own
    built: list = field(default_factory=list, init=False, repr=False, compare=False)


def _object(obj, where: str) -> dict:
    """``obj``, or ``{}`` for null; a ConfigError unless it is a JSON object."""
    if obj is None:
        return {}
    if not isinstance(obj, dict):
        raise ConfigError(f"{where} must be an object, got {obj!r}")
    return obj


def _require_keys(obj: dict, allowed: set[str], where: str):
    unknown = set(_object(obj, where)) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; allowed: {sorted(allowed)}")


def _count(value, name: str, least: int) -> int:
    """``value`` as a whole number ``>= least``, or a ConfigError naming ``name``."""
    try:
        return number(value, name, whole=True, least=least)
    except ValueError as e:
        raise ConfigError(str(e)) from None


def _parse_noise(obj) -> NoiseSpec:
    if obj is None:
        return NoNoise()
    if not isinstance(obj, dict):
        raise ConfigError("noise must be an object with a 'kind' key")
    kind = obj.get("kind")
    cls = NOISE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"unknown noise kind {kind!r}; available: {sorted(NOISE_KINDS)}")
    spec_fields = fields(cls)
    _require_keys(obj, {f.name for f in spec_fields} | {"kind"}, "noise")
    for f in spec_fields:
        if f.default is MISSING and f.name not in obj:
            raise ConfigError(f"noise kind {kind!r}: missing required field {f.name!r}")
    try:
        return cls(**{f.name: _noise_field(f, obj[f.name]) for f in spec_fields if f.name in obj})
    except ValueError as e:
        raise ConfigError(f"noise: {e}") from None


def _noise_field(f, value):
    """A float field's value read through ``number``, a list's (``v``) entry by entry; any other as given."""
    if f.type == "float":
        return number(value, f.name)
    if isinstance(value, list):
        return [number(v, f"{f.name} entry") for v in value]
    return value


def parse_config(text: str, seed: Optional[int] = None) -> ExperimentSpec:
    """Parse and validate a JSON experiment document, and build it for its first run.

    ``seed``, when given, replaces the document's seed (the CLI passes
    ``OPT_SEED``), so the spec is built at the seed it runs with.
    """
    from .runner import assemble  # deferred: runner imports this module

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"parse error at line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    _require_keys(doc, {"problem", "noise", "method", "budget", "output", "x0", "iterations"},
                  "config")

    problem = doc.get("problem")
    if problem is None:
        raise ConfigError("missing required field 'problem'")
    if isinstance(problem, str):
        problem = {"name": problem}
    _require_keys(problem, {"name", "params", "seed"}, "problem")
    if "name" not in problem:
        raise ConfigError("problem: missing required field 'name'")
    problem_params = dict(_object(problem.get("params"), "problem: params"))
    config_seed = _count(problem.get("seed", 0), "seed", 0)  # checked even where ``seed`` replaces it

    method = doc.get("method")
    if method is None:
        raise ConfigError("missing required field 'method'")
    if isinstance(method, str):
        method = {"name": method}
    _require_keys(method, {"name", "params"}, "method")
    if "name" not in method:
        raise ConfigError("method: missing required field 'name'")
    method_params = dict(_object(method.get("params"), "method: params"))

    budget = _object(doc.get("budget"), "budget")
    _require_keys(budget, {"iterations", "max_oracle_calls"}, "budget")
    iterations = doc.get("iterations", budget.get("iterations"))
    if iterations is None:
        raise ConfigError("missing required field 'iterations' (top level or under budget)")
    iterations = _count(iterations, "iterations", 0)
    max_calls = budget.get("max_oracle_calls")
    if max_calls is not None:
        max_calls = _count(max_calls, "max_oracle_calls", 1)

    output = _object(doc.get("output"), "output")
    _require_keys(output, {"trace_path", "record_every", "record_x"}, "output")
    record_every = output.get("record_every")
    if record_every is None:
        # keep traces under _MAX_TRACE_ROWS rows by default
        record_every = max(1, -(-(iterations + 1) // _MAX_TRACE_ROWS))
    record_every = _count(record_every, "record_every", 1)
    try:
        record_x = flag(output.get("record_x"), "record_x")
    except ValueError as e:
        raise ConfigError(str(e)) from None
    trace_path = output.get("trace_path")
    if trace_path is not None and not isinstance(trace_path, str):
        raise ConfigError(f"trace_path must be a string, got {trace_path!r}")

    noise = _parse_noise(doc.get("noise"))

    x0 = doc.get("x0")
    if x0 is not None:
        if not isinstance(x0, list):
            raise ConfigError("x0 must be a flat list of numbers")
        try:
            x0 = np.array([number(v, "x0 entry") for v in x0], dtype=float)
        except ValueError as e:
            raise ConfigError(str(e)) from None
        if not np.isfinite(x0).all():
            raise ConfigError(f"x0 must hold finite numbers only, got {doc['x0']!r}")

    spec = ExperimentSpec(
        problem_name=problem["name"],
        problem_params=problem_params,
        seed=config_seed if seed is None else int(seed),
        noise=noise,
        method_name=method["name"],
        method_params=method_params,
        iterations=iterations,
        max_oracle_calls=max_calls,
        trace_path=trace_path,
        record_every=record_every,
        record_x=record_x,
        x0=x0,
    )
    spec.built.append(assemble(spec))
    return spec
