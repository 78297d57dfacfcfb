"""Empirical convergence-rate fitting from traces.

Two models over the positive-gap rows of a tail window:

* ``sublinear``: least squares of log(gap) on log(iter); the estimate is
  p with gap ~ C / iter^p.
* ``geometric``: per-iteration contraction q = exp(mean log-ratio of
  consecutive gaps), i.e. gap ~ C q^iter.

Both are invariant to positive rescaling of the gaps.  A window that
holds a non-finite gap (a diverged run's rows), or whose iterations do
not increase strictly (a run's always do), is refused with
:class:`InsufficientDataError`, which names the first such row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.oracles import Trace

MODELS = ("sublinear", "geometric")


class InsufficientDataError(ValueError):
    pass


@dataclass(frozen=True)
class RateFit:
    model: str
    estimate: float  # exponent p, or per-step ratio q
    r_squared: float
    window: float


def _r_squared(xs: np.ndarray, ys: np.ndarray, slope: float, intercept: float) -> float:
    """r² of the line through ``(xs, ys)``; 1.0 where every y is equal, which the line fits exactly.

    The equal case is told by the ys themselves: their rounded mean need
    not equal them, so ``ss_tot`` may be a tiny positive number there.
    """
    if ys.min() == ys.max():
        return 1.0
    resid = ys - (slope * xs + intercept)
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(ys - ys.mean(), ys - ys.mean()))
    return max(0.0, 1.0 - ss_res / ss_tot)


def fit_rate(trace: Trace, model: str, window: float = 0.5) -> RateFit:
    """Fit a rate model to the tail ``window`` fraction of a trace."""
    if model not in MODELS:
        raise ValueError(f"unknown rate model {model!r}; choose from {MODELS}")
    if not 0 < window <= 1:
        raise ValueError("window must lie in (0, 1]")
    cols = trace.columns
    start = len(cols["iter"]) - max(1, math.ceil(window * len(cols["iter"])))
    window_rows = list(zip(cols["iter"][start:], cols["f_gap"][start:]))
    before = None
    for row, (k, g) in enumerate(window_rows, start):
        if g is not None and not math.isfinite(g):
            raise InsufficientDataError(f"f_gap is {g} at iter {k}; a rate needs finite gaps")
        if before is not None and k <= before:
            raise InsufficientDataError(f"row {row} has iter {k} after iter {before}; "
                                        "a rate needs strictly increasing iterations")
        before = k
    pts = [(k, g) for k, g in window_rows if g is not None and g > 0 and k >= 1]
    if len(pts) < 10:
        raise InsufficientDataError(
            f"need >= 10 rows with positive f_gap in the window, got {len(pts)}")
    iters = np.array([p[0] for p in pts], dtype=float)
    logg = np.log(np.array([p[1] for p in pts]))

    if model == "sublinear":
        logk = np.log(iters)
        slope, intercept = np.polyfit(logk, logg, 1)
        return RateFit(model=model, estimate=float(-slope),
                       r_squared=_r_squared(logk, logg, slope, intercept),
                       window=window)

    # Geometric: the mean of consecutive per-iteration log ratios telescopes
    # to the endpoint slope; r^2 comes from the log-linear regression.
    q = math.exp((logg[-1] - logg[0]) / (iters[-1] - iters[0]))
    slope, intercept = np.polyfit(iters, logg, 1)
    return RateFit(model=model, estimate=float(q),
                   r_squared=_r_squared(iters, logg, slope, intercept),
                   window=window)
