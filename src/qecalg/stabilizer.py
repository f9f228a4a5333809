"""The exact route: the index group S of a stabilizer code, streamed from its
Howell form over Z_m (Howell 1986; Storjohann-Mulders 1998), which is built
in Python ints: its few dozen residues cost less than numpy's first calls.

`_subgroup` gives S's Howell rows h_k, of orders t_k, and checks phased
generators on their powers and on the relation words of one Howell form of
[G | I], each word walked over the phase table omega alone (no matrix).
Every element of S is sum_k c_k h_k, 0 <= c_k < t_k, in exactly one way, so
`_stream` yields the span of any rows, never stored: a table of the
combinations of the last rows (at most _BLOCK elements) plus one offset per
combination of the others, in Z_m arithmetic on O(m^2) tables.

A span leaves the module in two forms, neither framed: `_weight_counts`,
A_0..A_n and its order as exact ints in O(n _BLOCK) memory, and
`_group_labels`, its flat labels all at once (S is isotropic, so |S| <= m^n,
the square root of the m^(2n) coefficients of C).  `code_analysis` builds
codes, takes t9 of the counts and scatters the labels.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from .error_basis import PHASE_TOL, GroupOrdering, PhaseSystem, canonical_ordering, pauli_phase
from .errors import InconsistentStabilizers, ShapeMismatch

_BLOCK = 1 << 16  # the most elements of S in one block: the stored low-row combinations


def _unit_to_divisor(a: int, m: int) -> tuple[int, int]:
    """(u, g): a unit u of Z_m with u a = g = gcd(a, m) mod m, for 0 < a < m."""
    g = math.gcd(a, m)
    u = pow(a // g, -1, m // g)
    while math.gcd(u, m) != 1:  # lift the inverse mod m/g to a unit mod m
        u += m // g
    return u, g


def _require_identity(lam: complex, what: str) -> None:
    """Raise InconsistentStabilizers unless the operator lam I is I."""
    if not abs(lam - 1.0) <= PHASE_TOL:
        turn = np.angle(lam) / (2 * np.pi) % 1.0
        raise InconsistentStabilizers(f"{what} is exp(2*pi*i*{turn:.6g}) times the identity: "
                                      "the group holds a multiple of the identity")


def _howell_form(gens: np.ndarray, m: int):
    """Howell form over Z_m of the rows of `gens`: rows h_k whose pivot (the
    first nonzero entry) p_k divides m, in strictly increasing columns, with
    the entries above each pivot reduced below it, and t_k h_k in the span
    of the later rows for t_k = m / p_k.  Every element of the row span is
    sum_k c_k h_k with 0 <= c_k < t_k in exactly one way, so its order is
    prod_k t_k.  Returns the rows and the orders t_k, both int64 arrays.

    Each column is cleared by unimodular row steps (Storjohann's): the row
    whose entry generates the largest ideal is the pivot row, rows are added
    to it until its entry generates the ideal of the whole column (needed
    only when m has two prime factors), it is scaled by a unit to the
    divisor g, and a multiple of it is subtracted from every other row.  For
    g != 1 the annihilator row (m/g) h joins the rows still to be reduced.
    The rows are lists of Python ints: a code's matrix holds a few dozen
    residues, on which numpy's first calls in a fresh process, several per
    pivot, cost more than the arithmetic.
    """
    mat = [[x % m for x in row] for row in gens.tolist()]  # rows [0, k) are the Howell rows
    k, orders = 0, []
    for col in range(gens.shape[1]):  # every row below k is zero before this column
        if not any(vals := [row[col] for row in mat[k:]]):
            continue
        g, p = min((math.gcd(v, m), k + i) for i, v in enumerate(vals))  # gcd(0, m) = m
        # only when m has two prime factors can an entry lie outside the ideal
        # of the pivot's: then c times its row joins the pivot row, for a c
        # with gcd(a + c b, m) = gcd(a, b, m), which always exists
        for i in [k + j for j, v in enumerate(vals) if v % g]:
            a, b = mat[p][col], mat[i][col]
            c = next(c for c in range(m) if math.gcd(a + c * b, m) == math.gcd(a, b, m))
            mat[p] = [(x + c * y) % m for x, y in zip(mat[p], mat[i])]
        u, g = _unit_to_divisor(mat[p][col], m)
        pivot = [u * x % m for x in mat[p]]
        mat[p], mat[k] = mat[k], pivot
        for i, row in enumerate(mat):  # clears the rows below k, reduces those above below g
            if i != k and (q := row[col] // g):
                mat[i] = [(x - q * y) % m for x, y in zip(row, pivot)]
        orders.append(m // g)
        k += 1
        if g != 1:
            mat.append([m // g * x % m for x in pivot])
    return np.array(mat[:k], np.int64).reshape(k, gens.shape[1]), np.array(orders, np.int64)


def _word_phase(sys: PhaseSystem | None, ordering: GroupOrdering, gens, lam, c) -> complex:
    """The scalar s of prod_k (lam_k E_{g_k})^{c_k} = s I for a word c with
    sum_k c_k g_k = 0, from omega (of `sys`, else the Pauli basis's) alone:
    the lam_k^{c_k} times, qudit by qudit, omega(r, g) of each factor E_g,
    the rows g_k repeated c_k times, on the running label r, from 0 to 0."""
    factors = np.repeat(gens, c, axis=0)
    before = (np.cumsum(factors, axis=0) - factors) % ordering.m
    i, j = (ordering.position[x[:, 0::2], x[:, 1::2]] for x in (before, factors))
    return np.prod(lam ** c) * np.prod(sys.omega[i, j] if sys else pauli_phase(ordering, i, j))


def _stream(rows: np.ndarray, orders: np.ndarray,
            ordering: GroupOrdering) -> tuple[np.ndarray, np.ndarray]:
    """The row span of Howell rows (r, 2n) of orders t_k as two tables of
    per-qudit ordering indices: `low`, (n, L) with L <= _BLOCK, the
    combinations of the last rows, and `high`, (n, prod_k t_k / L), those of
    the others.  Every element of the span is low[:, j] + high[:, k] (added
    qudit by qudit in Z_m x Z_m) for exactly one (j, k), so `_weight_counts`
    streams the span in prod_k t_k / L blocks and never stores it.  Tables
    sum code rows multiples[k, :, t] = t h_k, in the smallest dtype for 2m - 2."""
    m, n = ordering.m, rows.shape[1] // 2
    multiples = (rows[:, :, None] * np.arange(m) % m).astype(np.min_scalar_type(2 * m - 2))

    def combinations(ks) -> np.ndarray:
        out = np.zeros((2 * n, 1), dtype=multiples.dtype)
        for k in ks:
            out = (out[:, None, :] + multiples[k, :, :orders[k], None]).reshape(2 * n, -1)
            out %= m
        return ordering.position.astype(np.min_scalar_type(m * m - 1))[out[0::2], out[1::2]]

    split, size = len(orders), 1
    while split and size * orders[split - 1] <= _BLOCK:
        split -= 1
        size *= int(orders[split])
    return combinations(range(split, len(orders))), combinations(range(split))


def _subgroup(code, sys: PhaseSystem | None) -> tuple[np.ndarray, np.ndarray]:
    """The Howell rows (r, 2n) of the index group S of a stabilizer `CodeSpec`
    and their orders, read off one Howell form of [G | I]: its rows [h | c]
    with a pivot in G's columns, while the others, [0 | c], are words that
    generate every relation sum_k c_k g_k = 0.  Phased codes are checked on
    them with the omega of `sys`, its one use (the Pauli basis's, entry by
    entry, if None): each lam_k E_{g_k} must have order dividing m, as the
    word m e_k, and each relation word must give the identity itself."""
    if sys is not None and sys.m != code.m:
        raise ShapeMismatch(f"system has m={sys.m}, code has m={code.m}")
    m, n, gens = code.m, code.n, code.body.rows
    rows, orders = _howell_form(np.hstack([gens, np.eye(len(gens), dtype=gens.dtype)]), m)
    span = np.count_nonzero(rows[:, :2 * n].any(axis=1))  # rows pivoting in G come first
    if code.body.phases is not None:
        word = partial(_word_phase, sys, canonical_ordering(m), gens,
                       np.array([np.exp(1j * np.pi * p / m) for p in code.body.phases]))
        for k, c in enumerate(m * np.eye(len(gens), dtype=np.int64)):
            _require_identity(word(c), f"generator {k} to the power {m}")
        for c in rows[span:, 2 * n:]:
            _require_identity(word(c), "a product of the generators")
    return rows[:span, :2 * n], orders[:span]


def _weight_counts(ordering: GroupOrdering, rows, orders) -> tuple[list[int], int]:
    """The weight counts A_0..A_n of the row span of Howell rows (r, 2n) of
    orders t_k, as ints, and its order prod_k t_k, with the span streamed in
    blocks.  A block counts the weights of low - offset, nonzero at a qudit
    where the two indices differ: -H is a transversal of the cosets of L as
    H is, so each element of the span counts once."""
    n = rows.shape[1] // 2
    low, high = _stream(rows, orders, ordering)
    counts = np.zeros(n + 1, dtype=np.int64)
    weight = np.min_scalar_type(n)
    for minus in high.T:
        differs = (low != minus[:, None]).view(np.uint8)  # summing bytes skips a cast per entry
        counts += np.bincount(differs.sum(axis=0, dtype=weight), minlength=n + 1)
    return [int(x) for x in counts], low.shape[1] * high.shape[1]


def _group_labels(ordering: GroupOrdering, rows, orders) -> np.ndarray:
    """The flat labels of the whole span of Howell rows of orders t_k: every
    low row plus every offset, ordering indices as base-m^2 digits."""
    low, high = _stream(rows, orders, ordering)
    digits = ordering.add(low[:, :, None], high[:, None, :]).reshape(len(low), -1)
    return np.ravel_multi_index(digits, (ordering.size,) * len(low))
