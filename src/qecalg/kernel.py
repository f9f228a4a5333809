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
for odd n.  The trailing step, whose blocks would hold only the (re, im)
pair, is one 2-D GEMM against its matrix Kronecker'd with I_2.  That
halves the memory passes and avoids complex arithmetic; integer-valued
input (code indicators) gives the same bits as the complex loop.  Every
other matrix, and so every m >= 3 kernel, takes the complex loop: blocking
measured slower there, and rotating the float view of the real route
measured no faster.

Every step writes into one of two buffers that the steps alternate between,
so a call allocates at most two output-sized arrays, and only one when the
caller hands its input over with `overwrite_input`.
"""

from __future__ import annotations

import numpy as np

# side of the matrices that take the real route: the m=2 Pauli side m^2
_REAL_SIDE = 4


def apply_axiswise(mat: np.ndarray, vec: np.ndarray, n: int, *,
                   overwrite_input: bool = False) -> np.ndarray:
    """out[h_1..h_n] = sum_g prod_i mat[h_i, g_i] * vec[g_1..g_n].

    The output is a complex128 array.  `vec` is never written to unless
    `overwrite_input` is true: then a complex128 C-contiguous `vec` is used
    as scratch, its contents are lost, and the output may share its memory.
    """
    mat = np.asarray(mat)
    a = np.ascontiguousarray(vec, dtype=np.complex128)
    s = mat.shape[0]
    if n < 1 or a.shape != (s ** n,):
        raise ValueError(
            f"vector length {a.shape} does not match side {s} and n={n}"
        )
    if s == _REAL_SIDE and not (np.iscomplexobj(mat) and mat.imag.any()):
        real = np.ascontiguousarray(mat.real, dtype=np.float64)
        return _apply_real(real, a, n, overwrite_input)
    mat_t = np.ascontiguousarray(mat, dtype=np.complex128).T

    def step(src, dst):
        np.matmul(src.reshape(s, -1).T, mat_t, out=dst.reshape(-1, s))

    return _run(a, [step] * n, overwrite_input)


def _apply_real(mat: np.ndarray, a: np.ndarray, n: int, overwrite: bool) -> np.ndarray:
    """apply_axiswise for a real `mat`, on the (re, im) view of `a`."""
    s = mat.shape[0]
    pair = (mat[:, None, :, None] * mat[None, :, None, :]).reshape(s * s, s * s)  # kron(mat, mat)

    def pair_step(axis):
        def step(src, dst):
            shape = (s ** axis, s * s, -1)
            np.matmul(pair, src.reshape(shape), out=dst.reshape(shape))
        return step

    steps = [pair_step(axis) for axis in range(0, n - 2, 2)]
    # the trailing pair (or single axis), whose blocks hold only the (re, im)
    # pair: one GEMM, rows (g, re/im) against kron(last.T, I_2)
    last = pair if n % 2 == 0 else mat
    k = last.shape[0]
    tail = np.zeros((k, 2, k, 2))
    tail[:, 0, :, 0] = tail[:, 1, :, 1] = last.T
    tail = tail.reshape(2 * k, 2 * k)

    def trailing(src, dst):
        np.matmul(src.reshape(-1, 2 * k), tail, out=dst.reshape(-1, 2 * k))
    return _run(a.view(np.float64), steps + [trailing], overwrite).view(np.complex128)


def _run(a: np.ndarray, steps, overwrite: bool) -> np.ndarray:
    """Apply `steps` to `a` in turn, each step(src, dst) writing a buffer it
    does not read; the buffers alternate, and `a` is one of them when
    `overwrite`."""
    src, spare = a, (a if overwrite else None)
    for step in steps:
        dst = np.empty_like(a) if spare is None or spare is src else spare
        step(src, dst)
        spare, src = (src if overwrite or src is not a else None), dst
    return src
