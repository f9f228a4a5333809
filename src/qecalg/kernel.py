"""The axis-contraction primitive behind every transform in the package.

Contracts an s x s matrix along each of the n axes of a length-s^n vector
viewed as an n-dimensional array in C order.  Each axis is one batched
numpy matmul over the (outer, s, inner) view, so the result is fixed for a
given input and BLAS build.
"""

from __future__ import annotations

import numpy as np


def apply_axiswise(mat: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """out[h_1..h_n] = sum_g prod_i mat[h_i, g_i] * vec[g_1..g_n].

    `vec` is never written to; the output is a fresh complex128 array.
    """
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    a = np.ascontiguousarray(vec, dtype=np.complex128)
    s = mat.shape[0]
    if n < 1 or a.shape != (s ** n,):
        raise ValueError(
            f"vector length {a.shape} does not match side {s} and n={n}"
        )
    for axis in range(n):
        a = np.matmul(mat, a.reshape(s ** axis, s, -1))
    return a.reshape(-1)
