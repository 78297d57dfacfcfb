import numpy as np
import pytest

from optbench.core import norm
from optbench.core.linalg import row_dots

TINY = np.nextafter(0.0, 1.0)  # smallest subnormal


def _vectors(d: int):
    rng = np.random.default_rng(d)
    yield rng.standard_normal(d)
    yield rng.standard_normal(d) * 10.0 ** rng.integers(-300, 300, d)
    yield np.full(d, TINY)
    yield rng.standard_normal(d) * 1e-310  # subnormal entries
    yield np.zeros(d)
    yield -np.zeros(d)
    if d:
        for special in (np.inf, -np.inf, np.nan, -0.0, TINY, -TINY, 1e308):
            v = rng.standard_normal(d)
            v[d // 2] = special
            yield v


@pytest.mark.parametrize("d", [0, 1, 2, 3, 50])
def test_norm_has_the_bits_of_numpy_norm(d):
    for v in _vectors(d):
        with np.errstate(over="ignore"):
            got, want = norm(v), np.linalg.norm(v)
        assert type(got) is float
        assert np.float64(got).tobytes() == want.tobytes(), v


ROW_DOT_DIMS = [1, 2, 3, 5, 10, 50, 200]
ROW_SPECIALS = np.array([0.0, -0.0, TINY, -TINY, -2.5e-310, 1e200, -3e200, np.inf, -np.inf, np.nan, -np.nan])


def row_dot_grid(d: int, width: int) -> np.ndarray:
    """Rows of ``width >= d`` entries: random rows at scales 1e-300 to 1e150, and special values in the first d."""
    rng = np.random.default_rng(d)
    rows = [scale * rng.standard_normal(width) for scale in 10.0 ** np.arange(-300, 151, 10) for _ in range(3)]
    rows += [rng.standard_normal(width) * 10.0 ** rng.integers(-300, 150, width) for _ in range(20)]
    for u in ROW_SPECIALS:
        rows.append(np.where(np.arange(width) < d, u, 1.0))
        for v in ROW_SPECIALS:  # every pair of specials in the first and the d-th entries
            x = rng.standard_normal(width)
            x[0], x[d - 1] = u, v
            rows.append(x)
    return np.array(rows)


@pytest.mark.parametrize("d", ROW_DOT_DIMS)
def test_row_dots_have_the_bits_of_per_row_dot(d):
    A, B = row_dot_grid(d, d), row_dot_grid(d, d)[::-1].copy()
    wide = row_dot_grid(d, d + 2)
    view = wide[:, :d]  # the column slice the estimator passes
    with np.errstate(all="ignore"):
        for X, Y in ((A, A), (A, B), (view, view), (view, B)):
            got = row_dots(X, Y)
            want = np.array([x.dot(y) for x, y in zip(X, Y)])
            copies = np.array([x.copy().dot(y.copy()) for x, y in zip(X, Y)])  # contiguous rows, as one draw is
            assert got.dtype == np.float64 and got.shape == (len(X),)
            assert got.tobytes() == want.tobytes() == copies.tobytes()
