"""Experiment execution: problem construction, noise wrapping, dispatch.

Seeding is derived from the spec's single seed: problem data use the
seed itself, noise wrappers use child stream (seed, 101) and method
randomness child stream (seed, 202), so identical spec text yields
byte-identical traces.
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from ..core.noise import wrap_noise
from ..core.oracles import Trace
from ..core.problems import default_x0, make_problem
from ..core.rng import Rng
from .config import ConfigError, ExperimentSpec
from .registry import build_method
from .tracefile import format_for_path, write_trace

_NOISE_STREAM = 101
_METHOD_STREAM = 202


def run_experiment(spec: ExperimentSpec, trace_path: Optional[str] = None) -> tuple[Trace, dict]:
    """Run one experiment; returns (trace, summary) and writes the trace file.

    The summary reports the gap and distance at the run's output point,
    the oracle-call total, the terminal status and the wall time.
    """
    t0 = time.perf_counter()
    oracle, fset = make_problem(spec.problem_name, spec.problem_params, spec.seed)
    noisy = wrap_noise(oracle, spec.noise, Rng((int(spec.seed), _NOISE_STREAM)))
    x0 = spec.x0 if spec.x0 is not None else default_x0(spec.problem_name, spec.problem_params, spec.seed)
    if np.asarray(x0).shape[0] != oracle.dim:
        raise ConfigError(f"x0 has dimension {np.asarray(x0).shape[0]}, problem has {oracle.dim}")
    run = build_method(spec, noisy)
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
