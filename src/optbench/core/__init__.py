"""Shared infrastructure: vectors, oracles, feasible sets, problems, noise, traces."""

from .linalg import norm
from .noise import (
    AbsoluteGrad,
    AdditiveStochGrad,
    NoNoise,
    NoiseCompatibilityError,
    NoiseSpec,
    RelativeGrad,
    ZOBoundedValue,
    ZOStochValue,
    wrap_noise,
)
from .oracles import (
    ConstraintOracle,
    CountingOracle,
    OracleBudgetError,
    OracleSuite,
    QuadraticForm,
    RunStatus,
    Trace,
    TraceRecorder,
    TraceRow,
    UnsupportedProblemError,
    ZeroSubgradientError,
)
from .problems import UnknownProblemError, default_x0, make_problem, problem_doc, problem_names
from .rng import Rng
from .sets import Ball, Box, DimensionMismatchError, FeasibleSet, FullSpace, Simplex, UnboundedSetError

__all__ = [
    "AbsoluteGrad",
    "AdditiveStochGrad",
    "Ball",
    "Box",
    "ConstraintOracle",
    "CountingOracle",
    "DimensionMismatchError",
    "FeasibleSet",
    "FullSpace",
    "NoNoise",
    "NoiseCompatibilityError",
    "NoiseSpec",
    "OracleBudgetError",
    "OracleSuite",
    "QuadraticForm",
    "RelativeGrad",
    "Rng",
    "RunStatus",
    "Simplex",
    "Trace",
    "TraceRecorder",
    "TraceRow",
    "UnboundedSetError",
    "UnknownProblemError",
    "UnsupportedProblemError",
    "ZOBoundedValue",
    "ZOStochValue",
    "ZeroSubgradientError",
    "default_x0",
    "make_problem",
    "norm",
    "problem_doc",
    "problem_names",
    "wrap_noise",
]
