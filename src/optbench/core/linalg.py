"""The Euclidean norm of a 1-d float vector, bit-identical to ``np.linalg.norm``."""

from __future__ import annotations

import math


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
