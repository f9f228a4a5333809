"""The codewords of a stabilizer code, built with no m^n x m^n matrix.

Read as a basis code, a stabilizer code's codewords must give the exact
route's K, d, purity, A and A' on the dense basis route too, and so must a
K x K rotation of them and their image under local unitaries, which leave A
and A' unchanged (Rains, IEEE Trans. IT 44, 1388 (1998)).  The oracle
diagonalises the dense m^n x m^n projector; here the projector is applied to
K + 2 random vectors one Howell row at a time, each operator one tensordot
per qudit, so memory stays O(K m^n) and codes far past the oracle's reach
get an exact reference.
"""

from __future__ import annotations

import math

import numpy as np

from qecalg import CodeSpec, analyze
from qecalg.errors import InconsistentStabilizers

from stabilizer_reference import howell_form


def consistent_phases(sys_, m, n, gens):
    """The first phase exponent per generator that keeps the group free of
    multiples of the identity, chosen generator by generator."""
    phases = []
    for i in range(len(gens)):
        for p in range(2 * m):
            try:
                analyze(sys_, CodeSpec.from_stabilizers(m, n, gens[:i + 1], phases + [p]))
            except InconsistentStabilizers:
                continue
            phases.append(p)
            break
        else:
            raise AssertionError(f"no consistent phase for generator {i}")
    return phases


def apply_local(mats, x: np.ndarray) -> np.ndarray:
    """(mats[0] (x) ... (x) mats[n-1]) applied to each x[j], an (m, ..., m)
    tensor with one axis per qudit; a None matrix is the identity."""
    for i, mat in enumerate(mats):
        if mat is not None:
            x = np.moveaxis(np.tensordot(mat, x, axes=([1], [i + 1])), 0, i + 1)
    return x


def random_unitary(rng, size: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def stabilizer_codewords(sys_, code: CodeSpec, seed: int, gap: float = 1e-9) -> np.ndarray:
    """(K, m^n) orthonormal codewords of a stabilizer code under `sys_`.

    Each Howell row h of S, of additive order o, gives the operator
    lam E_h with lam = exp(i pi p / m) for the phase p that `consistent_phases`
    picks, so that (lam E_h)^o = I; its average (1/o) sum_t (lam E_h)^t is the
    projector onto its +1 eigenspace, and the product over the rows projects
    onto the code.  It is applied to K + 2 random vectors; the K leading
    right singular vectors of the result are the codewords, and the (K+1)-th
    singular value must be below `gap` times the K-th.
    """
    m, n = code.m, code.n
    rows, orders = howell_form(code.body.rows, m)
    k = m ** n // math.prod(int(t) for t in orders)
    phases = consistent_phases(sys_, m, n, rows.reshape(len(rows), n, 2).tolist())
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((k + 2, m ** n)) + 1j * rng.standard_normal((k + 2, m ** n))
    x = x.reshape((k + 2,) + (m,) * n)
    for row, p in zip(rows.tolist(), phases):
        order = m // math.gcd(m, *row)
        lam = np.exp(1j * np.pi * p / m)
        mats = [None if a == b == 0 else sys_.matrices[sys_.ordering.position[a, b]]
                for a, b in zip(row[0::2], row[1::2])]
        # qudit by qudit, E^o is a multiple of I, and the multiples make lam^-o
        powers = [np.linalg.matrix_power(mat, order) for mat in mats if mat is not None]
        assert all(np.allclose(pw, pw[0, 0] * np.eye(m), atol=1e-12) for pw in powers)
        assert abs(lam ** order * math.prod(pw[0, 0] for pw in powers) - 1) <= 1e-12
        term, total = x, x.copy()
        for _ in range(order - 1):
            term = lam * apply_local(mats, term)
            total += term
        x = total / order
    _, s, vh = np.linalg.svd(x.reshape(k + 2, -1), full_matrices=False)
    assert s[k] <= gap * s[k - 1], f"singular values {s[k - 1]:.3e}, {s[k]:.3e}"
    return vh[:k]
