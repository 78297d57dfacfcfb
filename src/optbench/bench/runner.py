"""Experiment assembly and execution.

:func:`assemble` is the one place a spec is built into a problem, its
noise and its method: :func:`~optbench.bench.config.parse_config` calls it
to check a config and :func:`run_experiment` to run one.  Seeding is
derived from the spec's single seed: problem data use the seed itself,
noise wrappers use child stream (seed, 101) and method randomness child
stream (seed, 202), so identical spec text yields byte-identical traces.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.noise import NoiseCompatibilityError, wrap_noise
from ..core.oracles import OracleSuite, Trace
from ..core.problems import default_x0, make_problem
from ..core.rng import Rng
from ..core.sets import FeasibleSet
from .config import ConfigError, ExperimentSpec
from .registry import Run, build_method
from .tracefile import format_for_path, write_trace

_NOISE_STREAM = 101
_METHOD_STREAM = 202


def assemble(spec: ExperimentSpec) -> tuple[OracleSuite, FeasibleSet, Run]:
    """Build ``spec``'s problem, its noise and its method: ``(oracle, fset, run)``.

    ``oracle`` is the bare problem and ``run`` the method built against
    the noise-wrapped one.  A bad problem, a noise model the problem
    cannot carry, a given ``x0`` of the wrong length and a bad method
    name or parameter each raise :class:`ConfigError`.  No oracle is called.
    """
    try:
        oracle, fset = make_problem(spec.problem_name, spec.problem_params, spec.seed)
    except ValueError as e:  # an UnknownProblemError among them
        raise ConfigError(str(e)) from None
    try:
        noisy = wrap_noise(oracle, spec.noise, Rng((int(spec.seed), _NOISE_STREAM)))
    except NoiseCompatibilityError as e:
        raise ConfigError(f"noise: {e}") from None
    if spec.x0 is not None and len(spec.x0) != oracle.dim:
        raise ConfigError(f"x0 has dimension {len(spec.x0)}, problem has {oracle.dim}")
    return oracle, fset, build_method(spec, noisy)


def run_experiment(spec: ExperimentSpec, trace_path: Optional[str] = None) -> tuple[Trace, dict]:
    """Run one experiment; returns (trace, summary) and writes the trace file.

    The summary reports the gap and distance at the run's output point,
    the oracle-call total, the terminal status and the wall time.
    """
    t0 = time.perf_counter()
    oracle, fset, run = assemble(spec)
    x0 = spec.x0 if spec.x0 is not None else default_x0(spec.problem_name, spec.problem_params, spec.seed)
    try:
        trace = run(fset, np.asarray(x0, dtype=float), Rng((int(spec.seed), _METHOD_STREAM)))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{spec.method_name} on {spec.problem_name}: {e}") from e
    wall = time.perf_counter() - t0

    summary = {
        "final_gap": None if oracle.fstar is None else trace.f_out - oracle.fstar,
        "final_dist": oracle.dist_to_opt(trace.x_out),
        "oracle_calls": trace.final.oracle_calls,
        "status": trace.status.value,
        "wall_time": wall,
    }
    path = trace_path or spec.trace_path
    if path:
        write_trace(trace, path, format_for_path(path))
    return trace, summary
