import numpy as np
import pytest

from optbench.core import norm

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
