"""Conditional gradient (Frank-Wolfe) methods on bounded feasible sets.

The iteration queries the linear minimization oracle at the current
gradient, ``y = argmin_{v in Q} <grad f(x), v>``, and moves to the
convex combination ``x <- (1 - gamma) x + gamma y``.  Two step rules:

* ``Classic``   -- the open-loop schedule ``gamma_k = 2/(k+1)`` (k >= 1),
  with the guarantee :func:`optbench.claims.frank_wolfe_gap`;
* ``ShortStep`` -- ``gamma_k = min{ -<g, y-x> / (L ||y-x||^2), 1 }``,
  the minimizer of the quadratic upper model along the segment.  When
  it saturates at 1 the optimality gap at least halves.

``fw_gap(x) = <grad f(x), x - lmo(grad f(x))>`` is the standard duality
gap: nonnegative, zero only at solutions, and an upper bound on
``f(x) - f*`` for convex objectives.

Every iterate is a convex combination of feasible points, hence
feasible; iteration indices in the trace are 1-based to match the
``2/(k+1)`` schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .core.linalg import norm
from .core.oracles import OracleSuite, RunStatus, Stop, Trace, run_steps
from .core.sets import FeasibleSet, FullSpace, UnboundedSetError


@dataclass(frozen=True)
class Classic:
    kind: ClassVar[str] = "classic"


@dataclass(frozen=True)
class ShortStep:
    kind: ClassVar[str] = "short"
    L: Optional[float] = None  # the problem's when omitted

    def __post_init__(self):
        if self.L is not None and not self.L > 0:  # also true for NaN
            raise ValueError("ShortStep requires a positive L (config or oracle)")


FW_STEP_RULES: dict[str, type] = {cls.kind: cls for cls in (Classic, ShortStep)}  # a class's fields are its keys


@dataclass(frozen=True)
class FwConfig:
    N: int
    step_rule: Classic | ShortStep = field(default_factory=Classic)
    tol: float = 0.0  # stop once the FW gap drops to tol (0 keeps only the exact-optimum stop)

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if not 0 <= self.tol < math.inf:  # also true for NaN
            raise ValueError(f"tol must be >= 0 and finite, got {self.tol}")


def run_fw(oracle: OracleSuite, fset: FeasibleSet, x0, cfg: FwConfig, *,
           record_every: int = 1, record_x: bool = False,
           max_oracle_calls: Optional[int] = None) -> Trace:
    """Frank-Wolfe from a feasible x0; performs N-1 steps and reports x^N."""
    if isinstance(fset, FullSpace):
        raise UnboundedSetError("Frank-Wolfe needs a bounded feasible set")
    x = fset.project(np.array(x0, dtype=float))
    if norm(x - np.asarray(x0, dtype=float)) > 1e-9:
        raise ValueError("x0 must be feasible")

    L = None
    if isinstance(cfg.step_rule, ShortStep):
        L = oracle.constant("L", cfg.step_rule.L)
        if not L > 0:
            raise ValueError("ShortStep requires a positive L (config or oracle)")

    def step(ctr, k, x):
        g = ctr.grad(x)
        y = fset.lmo(g)
        d = y - x
        gap = -float(g.dot(d))  # FW duality gap at x
        if gap <= cfg.tol:
            raise Stop(RunStatus.CONVERGED, grad_norm=norm(g))
        if isinstance(cfg.step_rule, Classic):
            gamma = 2.0 / (k + 1)
        else:
            gamma = min(max(gap / (L * float(d.dot(d))), 0.0), 1.0)
        return (1.0 - gamma) * x + gamma * y, None, g, gamma, None

    return run_steps(oracle, x, cfg.N, step, record_every=record_every, record_x=record_x,
                     max_oracle_calls=max_oracle_calls, first=1)


def fw_gap(oracle: OracleSuite, fset: FeasibleSet, x) -> float:
    """Duality gap <grad f(x), x - lmo(grad f(x))> at a feasible point."""
    x = np.asarray(x, dtype=float)
    if oracle.grad is None:
        raise ValueError("fw_gap needs a gradient oracle")
    g = np.asarray(oracle.grad(x), dtype=float)
    y = fset.lmo(g)
    return float(g.dot(x - y))
