"""The coset-doubling enumeration of S that `qecalg.code_analysis` replaced,
the per-pair symplectic product its pairwise commutation check replaced, the
numpy Howell form that `qecalg.stabilizer._howell_form` replaced, the
weight counts of the normalizer N(S) read off that form, and the matrix
products that gave the scalar of a word of phased generators before
`qecalg.stabilizer._word_phase` walked the phase table instead.

Kept only as the reference the Howell-form stream is tested against, the
way `element_io_reference.py` certifies the bulk element parser: S is built
generator by generator and stored whole, each generator's order is found by
searching the stored group, and the phases of phased codes are carried on
every stored element.

The library builds its Howell form in Python ints, because a code's matrix
of a few dozen residues costs less that way than numpy's first calls in a
fresh process.  The numpy form below takes the same steps in the same order
on whole arrays; the library's rows and orders must equal its own, and
`codeword_reference.py` reads S's rows from it, so that the codewords that
certify the phase check do not rest on the routine under test.
"""

from __future__ import annotations

import math

import numpy as np

from qecalg.code_analysis import CodeSpec
from qecalg.error_basis import PHASE_TOL, PhaseSystem, canonical_ordering
from qecalg.errors import InconsistentStabilizers, ShapeMismatch
from qecalg.stabilizer import _unit_to_divisor, _weight_counts


def howell_form(gens: np.ndarray, m: int):
    """Howell form over Z_m of the rows of `gens`: rows h_k whose pivot (the
    first nonzero entry) p_k divides m, in strictly increasing columns, with
    the entries above each pivot reduced below it, and t_k h_k in the span
    of the later rows for t_k = m / p_k.  Every element of the row span is
    sum_k c_k h_k with 0 <= c_k < t_k in exactly one way, so its order is
    prod_k t_k.  Returns the rows and the orders t_k.

    Each column is cleared by unimodular row steps (Storjohann's): the row
    whose entry generates the largest ideal is the pivot row, rows are added
    to it until its entry generates the ideal of the whole column (needed
    only when m has two prime factors), it is scaled by a unit to the
    divisor g, and a multiple of it is subtracted from every other row.  For
    g != 1 the annihilator row (m/g) h joins the rows still to be reduced.
    """
    mat = gens % m  # rows [0, k) are the Howell rows found so far, the rest still to reduce
    k, cols = 0, []
    while (todo := np.flatnonzero(mat[k:].any(axis=0))).size:
        col = int(todo[0])  # every row below k is zero before this column
        vals = mat[k:, col]
        p = k + int(np.argmin(np.gcd(vals, m)))  # a zero entry has gcd m, the largest
        g = math.gcd(int(mat[p, col]), m)
        # only when m has two prime factors can an entry lie outside the ideal
        # of the pivot's: then c times its row joins the pivot row, for a c
        # with gcd(a + c b, m) = gcd(a, b, m), which always exists
        for i in k + np.flatnonzero(vals % g):
            a, b = int(mat[p, col]), int(mat[i, col])
            c = next(c for c in range(m) if math.gcd(a + c * b, m) == math.gcd(a, b, m))
            mat[p] = (mat[p] + c * mat[i]) % m
        u, g = _unit_to_divisor(int(mat[p, col]), m)
        if u != 1:
            mat[p] = u * mat[p] % m
        if p != k:
            mat[[k, p]] = mat[[p, k]]
        q = mat[:, col] // g  # clears the rows below k, reduces those above below g
        q[k] = 0
        mat -= q[:, None] * mat[k]
        mat %= m
        cols.append(col)
        k += 1
        if g != 1:
            mat = np.vstack([mat, m // g * mat[k - 1] % m])
    return mat[:k], m // mat[np.arange(k), cols]


def normalizer_counts(code: CodeSpec) -> tuple[list[int], int]:
    """The weight counts of the normalizer N(S) of a stabilizer code and
    |N(S)|, counted directly: N(S) holds the x with <x, g_k> = 0 for every
    generator, the rows of [Lambda G^T | I_2n] span the [<x, g_k> | x], so
    the rows [0 | x] of its Howell form (by `howell_form` above, not the
    library's) are Howell rows of N(S), whose span `_weight_counts` streams."""
    m, n, gens = code.m, code.n, code.body.rows
    products = np.empty((2 * n, len(gens)), dtype=np.int64)  # of the unit labels with each g_k
    products[0::2], products[1::2] = gens[:, 1::2].T, -gens[:, 0::2].T
    rows, orders = howell_form(np.hstack([products, np.eye(2 * n, dtype=np.int64)]), m)
    inside = ~rows[:, :len(gens)].any(axis=1)
    return _weight_counts(canonical_ordering(m), rows[inside, len(gens):], orders[inside])


def _locate(group: np.ndarray, target: np.ndarray) -> int | None:
    """Column of `group` equal to `target`, narrowing the candidates one
    coordinate at a time so that no temporary of the size of `group` is built."""
    hit = np.flatnonzero(group[0] == target[0])
    for j in range(1, group.shape[0]):
        hit = hit[group[j, hit] == target[j]]
    return int(hit[0]) if hit.size else None


def _ordering_positions(m: int) -> np.ndarray:
    """(m, m) table: the canonical ordering index of (a, b), read off the ordering's exponent rows."""
    pos = np.empty((m, m), dtype=np.intp)
    for i, (a, b) in enumerate(canonical_ordering(m).order):
        pos[a, b] = i
    return pos


def symplectic_product(g, h, m: int) -> int:
    """sum_i (a_i d_i - b_i c_i) mod m for g_i = (a_i, b_i), h_i = (c_i, d_i),
    zero iff E_g and E_h commute: the per-pair reference for the one integer
    product of all pairs that a `CodeSpec` takes when it is built."""
    total = 0
    for (a, b), (c, d) in zip(g, h):
        total += a * d - b * c
    return total % m


def stabilizer_group(sys: PhaseSystem, code: CodeSpec) -> np.ndarray:
    """The index group S generated by the labels, as a (2n, |S|) array whose
    columns are the elements (a_1, b_1, ..., a_n, b_n), identity first, in
    the smallest unsigned dtype holding m - 1 (2n bytes per element for
    m <= 256).  Each coordinate of all elements is one contiguous row.

    Coset doubling: for each generator g, find the first t >= 1 with t g
    already in S, then append the cosets S + t' g for t' = 1 .. t - 1, so S
    grows t-fold and no element is formed twice; no prime-power case is needed.

    When the code carries phases, each element also carries the phase of its
    operator, a product taken coordinate by coordinate from `sys.omega`.  At
    the stopping t, (phi E_g)^t must equal the operator already stored for
    t g; otherwise the group holds a nontrivial multiple of the identity and
    InconsistentStabilizers is raised.
    """
    if sys.m != code.m:
        raise ShapeMismatch(f"system has m={sys.m}, code has m={code.m}")
    m, n = code.m, code.n
    dtype = np.min_scalar_type(m - 1)
    plus = ((np.arange(m)[:, None] + np.arange(m)) % m).astype(dtype)
    phases = code.body.phases
    if phases is not None:
        pos = _ordering_positions(m)

        def omega_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            """prod_i omega[left_i, right_i] for each column of `left`."""
            out = np.ones(left.shape[1], dtype=np.complex128)
            for i in range(n):
                out *= sys.omega[pos[left[2 * i], left[2 * i + 1]],
                                 pos[right[2 * i], right[2 * i + 1]]]
            return out

        lam = np.ones(1, dtype=np.complex128)
    group = np.zeros((2 * n, 1), dtype=dtype)
    for k, row in enumerate(code.body.rows):
        g = row.astype(dtype)
        shifts = [g]  # t g for t = 1, 2, ...; the last one is in S
        while (hit := _locate(group, shifts[-1])) is None:
            shifts.append(plus[shifts[-1], g])
        if phases is not None:
            phi = np.exp(1j * np.pi * phases[k] / m)
            mu = [phi]  # (phi E_g)^t = mu[t - 1] E_(t g)
            for tg in shifts[:-1]:
                mu.append(mu[-1] * phi * omega_product(tg[:, None], g)[0])
            if not abs(mu[-1] - lam[hit]) <= PHASE_TOL:
                turn = np.angle(mu[-1] / lam[hit]) / (2 * np.pi) % 1.0
                raise InconsistentStabilizers(
                    f"generator {k} to the power {len(shifts)} is exp(2*pi*i*{turn:.6g}) "
                    "times an element of the group: the group holds a multiple of the identity"
                )
            lam = np.concatenate([lam] + [lam * mu[t] * omega_product(group, tg)
                                          for t, tg in enumerate(shifts[:-1])])
        size = group.shape[1]
        grown = np.empty((2 * n, size * len(shifts)), dtype=dtype)
        grown[:, :size] = group
        for t, tg in enumerate(shifts[:-1], start=1):
            for j, v in enumerate(tg):
                np.take(plus[v], group[j], out=grown[j, t * size:(t + 1) * size])
        group = grown
    return group


def group_indices(group: np.ndarray, m: int, n: int) -> np.ndarray:
    """Flat coefficient indices of the columns of `stabilizer_group`."""
    pos = _ordering_positions(m)
    idx = np.zeros(group.shape[1], dtype=np.int64)
    for i in range(n):
        idx *= m * m
        idx += pos[group[2 * i], group[2 * i + 1]]
    return idx


def hamming_counts(group: np.ndarray, n: int) -> list[int]:
    """A_w: the number of columns of `stabilizer_group` of weight w."""
    weights = np.zeros(group.shape[1], dtype=np.min_scalar_type(n))
    for i in range(n):
        weights += (group[2 * i] | group[2 * i + 1]) != 0
    return [int(x) for x in np.bincount(weights, minlength=n + 1)]


def word_phase(mats: np.ndarray, lam: np.ndarray, c: np.ndarray) -> complex:
    """The scalar s of prod_k (lam_k E_{g_k})^{c_k} = s I for a word c with
    sum_k c_k g_k = 0, where mats[k] holds the (n, m, m) qudit matrices of
    E_{g_k}: the product of the lam_k^{c_k} and, qudit by qudit, of the
    matrix powers, each product a multiple of I."""
    word = np.eye(mats.shape[-1])
    for k in np.flatnonzero(c):
        word = word @ np.linalg.matrix_power(mats[k], int(c[k]))
    return np.prod(lam ** c) * np.prod(word[..., 0, 0])
