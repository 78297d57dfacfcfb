"""Benchmark harness: experiment configs, execution, rate fitting, trace files."""

from .config import ConfigError, ExperimentSpec, parse_config
from .rates import InsufficientDataError, RateFit, fit_rate
from .registry import build_method, method_entry, method_names
from .runner import run_experiment
from .tracefile import read_trace, write_trace

__all__ = [
    "ConfigError",
    "ExperimentSpec",
    "InsufficientDataError",
    "RateFit",
    "build_method",
    "fit_rate",
    "method_entry",
    "method_names",
    "parse_config",
    "read_trace",
    "run_experiment",
    "write_trace",
]
