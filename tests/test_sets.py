import itertools

import numpy as np
import pytest

from optbench.core import Ball, Box, DimensionMismatchError, FullSpace, Rng, Simplex, UnboundedSetError

ALL_SETS = [
    FullSpace(4),
    Box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 1.0, 0.5])),
    Ball(np.array([0.5, -0.5]), 1.5),
    Simplex(5),
]


def brute_force_simplex_projection(y):
    """Independent oracle: bisection on the monotone threshold equation.

    The projection has the form max(y - theta, 0) with sum equal to 1;
    sum is continuous and strictly decreasing in theta, so bisection
    finds theta without any sorting logic.
    """
    y = np.asarray(y, dtype=float)
    lo, hi = float(y.min()) - 2.0, float(y.max())
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(y - mid, 0.0).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(y - 0.5 * (lo + hi), 0.0)


def test_box_projection_clamps():
    box = Box(np.zeros(2), np.ones(2))
    assert np.array_equal(box.project(np.array([2.0, -1.0])), np.array([1.0, 0.0]))


def test_ball_projection_radial_scaling():
    ball = Ball(np.zeros(2), 1.0)
    np.testing.assert_allclose(ball.project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)
    inside = np.array([0.1, -0.2])
    assert np.array_equal(ball.project(inside), inside)


def test_simplex_projection_against_threshold_search():
    y = np.array([0.5, 0.5, 1.0])
    x = Simplex(3).project(y)
    np.testing.assert_allclose(x, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(x, brute_force_simplex_projection(y), atol=1e-10)

    rng = Rng(7)
    for _ in range(50):
        y = rng.gaussian(4) * 2
        x = Simplex(4).project(y)
        assert abs(x.sum() - 1.0) < 1e-12 and np.all(x >= 0)
        np.testing.assert_allclose(x, brute_force_simplex_projection(y), atol=1e-10)


@pytest.mark.parametrize("fset", ALL_SETS, ids=lambda s: type(s).__name__)
def test_projection_idempotent(fset):
    rng = Rng(11)
    for _ in range(1000):
        y = rng.gaussian(fset.dim) * 3
        p = fset.project(y)
        assert np.linalg.norm(fset.project(p) - p) <= 1e-12


@pytest.mark.parametrize("fset", ALL_SETS, ids=lambda s: type(s).__name__)
def test_projection_nonexpansive(fset):
    rng = Rng(13)
    for _ in range(300):
        y = rng.gaussian(fset.dim) * 3
        z = rng.gaussian(fset.dim) * 3
        assert (np.linalg.norm(fset.project(y) - fset.project(z))
                <= np.linalg.norm(y - z) + 1e-12)


def test_lmo_examples():
    assert np.array_equal(Simplex(3).lmo(np.array([3.0, 1.0, 2.0])), [0.0, 1.0, 0.0])
    box = Box(np.array([-1.0, -1.0]), np.array([1.0, 1.0]))
    assert np.array_equal(box.lmo(np.array([0.5, -2.0])), [-1.0, 1.0])
    np.testing.assert_allclose(Ball(np.zeros(2), 1.0).lmo(np.array([3.0, 4.0])),
                               [-0.6, -0.8], atol=1e-15)


def test_lmo_zero_gradient_canonical_points():
    box = Box(np.array([-1.0, 0.0]), np.array([1.0, 2.0]))
    assert np.array_equal(box.lmo(np.zeros(2)), box.lo)
    assert np.array_equal(Simplex(3).lmo(np.zeros(3)), [1.0, 0.0, 0.0])
    ball = Ball(np.array([2.0, 2.0]), 1.0)
    assert np.array_equal(ball.lmo(np.zeros(2)), ball.center)


def test_lmo_optimality_box_brute_force():
    box = Box(np.array([-1.0, 0.0, -2.0]), np.array([1.0, 1.0, 0.5]))
    corners = [np.array(c) for c in itertools.product(*zip(box.lo, box.hi))]
    rng = Rng(5)
    for _ in range(200):
        g = rng.gaussian(3)
        v = box.lmo(g)
        best = min(float(g @ c) for c in corners)
        assert float(g @ v) <= best + 1e-12


def test_lmo_optimality_simplex_and_ball_sampling():
    rng = Rng(3)
    simplex = Simplex(5)
    ball = Ball(np.array([0.5, -0.5]), 1.5)
    for _ in range(1000):
        g = rng.gaussian(5)
        v = simplex.lmo(g)
        assert float(g @ v) <= float(np.min(g)) + 1e-12  # coordinate check
        g2 = rng.gaussian(2)
        v2 = ball.lmo(g2)
        w = ball.project(rng.gaussian(2) * 3)
        assert float(g2 @ v2) <= float(g2 @ w) + 1e-12


def test_diameters():
    assert Box(np.array([-1.0, 0.0]), np.array([1.0, 1.0])).diameter == pytest.approx(np.sqrt(5))
    assert Ball(np.zeros(3), 2.0).diameter == 4.0
    assert Simplex(4).diameter == pytest.approx(np.sqrt(2))
    assert FullSpace(2).diameter == np.inf


def test_dimension_and_boundedness_errors():
    with pytest.raises(DimensionMismatchError):
        Box(np.zeros(2), np.ones(2)).project(np.zeros(3))
    with pytest.raises(UnboundedSetError):
        FullSpace(2).lmo(np.ones(2))
    with pytest.raises(ValueError):
        Box(np.ones(2), np.zeros(2))
    with pytest.raises(ValueError):
        Ball(np.zeros(2), 0.0)


SPECIALS = np.array([0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1.0, -1.0, np.inf, -np.inf, np.nan])


def special_box_inputs(rng):
    """Every pair of special values in the first and last entries of a 3-vector, plus random vectors."""
    points = [3.0 * rng.standard_normal(3) for _ in range(50)]
    for u, v in itertools.product(SPECIALS, SPECIALS):
        x = rng.standard_normal(3)
        x[0], x[-1] = u, v
        points.append(x)
    return points


BIT_BOXES = {
    "finite": (np.array([-1.0, 0.0, -2.0]), np.array([1.0, 1.0, 0.5])),
    "signed-zero-subnormal": (np.array([0.0, -5e-324, -0.0]), np.array([-0.0, 5e-324, 0.0])),
    "infinite": (np.array([-np.inf, -1.0, 0.0]), np.array([np.inf, np.inf, 0.0])),
}


@pytest.mark.parametrize("case", list(BIT_BOXES))
def test_box_project_and_lmo_bits_match_numpy(case):
    lo, hi = BIT_BOXES[case]
    box = Box(lo, hi)
    with np.errstate(invalid="ignore"):
        for x in special_box_inputs(np.random.default_rng(3)):
            p = box.project(x)
            assert p.dtype == np.float64 and p.tobytes() == np.clip(x, lo, hi).tobytes()
            v = box.lmo(x)
            assert v.dtype == np.float64 and v.tobytes() == np.where(x < 0, hi, lo).astype(float).tobytes()
            for out in (p, v):  # fresh arrays: writing to them must not move the box
                assert not np.shares_memory(out, box.lo) and not np.shares_memory(out, box.hi)
                assert not np.shares_memory(out, x)
    assert box.lo.tobytes() == lo.tobytes() and box.hi.tobytes() == hi.tobytes()
