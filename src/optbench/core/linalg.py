"""The Euclidean norm of a 1-d float vector, row-wise dot products, and the checks on a number or a flag read from a config."""

from __future__ import annotations

import math
import numbers

# The longest vector that a screen on Python floats (``math.hypot``, ``math.dist``) takes before a numpy
# norm: such a screen converts every entry, so its cost grows with the length.  The gradient screens
# break even with ``norm`` near 20 entries, the distance screen near 40, and the relative noise screen far
# above; a longer vector goes straight to the exact test.
SCREEN_MAX_DIM = 32


def norm(v) -> float:
    """``||v||_2`` of a contiguous 1-d float64 vector, as a Python float.

    ``np.linalg.norm`` computes the 2-norm of a 1-d float vector as
    ``sqrt(v.dot(v))`` on a contiguous copy; calling the dot product
    directly skips its argument dispatch and gives the same bits.  ``v``
    must be float64, since an integer vector's dot product is summed in
    integers, and contiguous, since a strided view's dot product may add
    in another order.
    """
    return math.sqrt(v.dot(v))


def row_dots(A, B):
    """``[A[i].dot(B[i]) for i in range(n)]`` for float64 ``(n, d)`` arrays, as one array with the same bits.

    For d >= 2, ``matmul`` of the ``(n, 1, d)`` and ``(n, d, 1)`` views
    computes each 1 x d by d x 1 product with the dot kernel that
    ``ndarray.dot`` of two 1-d vectors calls, so each entry adds in the
    same order, ``+-0.0``, subnormals, ``+-inf`` and NaN included.  At
    d = 1 ``matmul`` gives +0.0 where the product is -0.0, so the rows'
    products are returned as they are, as ``dot`` returns them.  ``einsum`` and ``sum(axis=1)`` add in other orders and
    differ in the last bit on many rows.  The rows of ``A`` and ``B``
    must each be contiguous (a column slice of a wider array is), for the
    reason :func:`norm` gives.
    """
    if A.shape[1] == 1:
        return A[:, 0] * B[:, 0]
    return (A[:, None, :] @ B[:, :, None])[:, 0, 0]


def number(value, name: str, whole: bool = False, least=None):
    """``value`` as a float, or an int if ``whole`` (5.0 passes, 5.5 not), and ``>= least``; or a ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if whole and not isinstance(value, numbers.Integral) and not float(value).is_integer():
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    value = int(value) if whole else float(value)
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}")
    return value


def flag(value, name: str) -> bool:
    """``value`` as a bool, null read as false; or a ValueError unless it is a JSON boolean."""
    if value is not None and not isinstance(value, bool):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)
