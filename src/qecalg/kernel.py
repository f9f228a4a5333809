"""The axis-contraction primitive behind every transform in the package.

Contracts an s x s matrix along each of the n axes of a length-s^n vector
viewed as an n-dimensional array in C order.  Each axis is one full-size
GEMM: the leading axis is contracted and moved to the end, (s, rest) ->
(rest, s), so after n steps the axes are back in order.  No step is split
into small batches, and the result is fixed for a given input and BLAS
build.

A real 4 x 4 matrix (the m=2 Pauli kernel, every accepted m=2 custom
kernel, and the m=2 Pauli basis matrices) takes a real route instead: the
complex vector is viewed as float64 (re, im) pairs, and kron(K, K) is
contracted two axes at a time as one real matmul, with a last single axis
for odd n.  That halves the memory passes and avoids complex arithmetic;
integer-valued input (code indicators) gives the same bits as the complex
loop.  Every other matrix, and so every m >= 3 kernel, takes the complex
loop: blocking measured slower there, and rotating the float view of the
real route measured no faster.
"""

from __future__ import annotations

import numpy as np

# side of the matrices that take the real route: the m=2 Pauli side m^2
_REAL_SIDE = 4


def apply_axiswise(mat: np.ndarray, vec: np.ndarray, n: int) -> np.ndarray:
    """out[h_1..h_n] = sum_g prod_i mat[h_i, g_i] * vec[g_1..g_n].

    `vec` is never written to; the output is a fresh complex128 array.
    """
    mat = np.asarray(mat)
    a = np.ascontiguousarray(vec, dtype=np.complex128)
    s = mat.shape[0]
    if n < 1 or a.shape != (s ** n,):
        raise ValueError(
            f"vector length {a.shape} does not match side {s} and n={n}"
        )
    if s == _REAL_SIDE and not (np.iscomplexobj(mat) and mat.imag.any()):
        return _apply_real(np.ascontiguousarray(mat.real, dtype=np.float64), a, n)
    mat = np.ascontiguousarray(mat, dtype=np.complex128)
    for _ in range(n):
        a = a.reshape(s, -1).T @ mat.T
    return a.reshape(-1)


def _apply_real(mat: np.ndarray, a: np.ndarray, n: int) -> np.ndarray:
    """apply_axiswise for a real `mat`, on the (re, im) view of `a`."""
    s = mat.shape[0]
    pair = np.kron(mat, mat)
    x = a.view(np.float64)
    axis = 0
    while axis + 2 <= n:
        x = np.matmul(pair, x.reshape(s ** axis, s * s, -1))
        axis += 2
    if axis < n:
        x = np.matmul(mat, x.reshape(s ** axis, s, -1))
    return x.reshape(-1).view(np.complex128)
