"""Reference mathematics the benchmark checks qecalg's outputs against.

Everything here is written from the conventions the root README documents
(canonical ordering of Z_m x Z_m, coordinate-major flat labels, the character
exp(2*pi*i*(d*a - b*c)/m)) and from the paper's identities.  It imports
nothing from qecalg, so a fault in the program cannot hide in its own check.

Stabilizer results are exact: the group is enumerated from its generators,
the weight distribution A is an integer vector, and A' comes from the Hamming
MacWilliams identity (t9) in rational arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np


# --- Z_m x Z_m ordering and characters ---

def canonical_order(m: int) -> list[tuple[int, int]]:
    """Row-major (a, b) for even m.  For odd m: the identity, then the
    lexicographically smaller member of each {g, -g} pair in lex order, then
    their negations mirrored, so that alpha_(m^2 - i) = -alpha_i."""
    pairs = [(a, b) for a in range(m) for b in range(m)]
    if m % 2 == 0:
        return pairs
    smaller = [g for g in pairs[1:] if g < ((-g[0]) % m, (-g[1]) % m)]
    return [(0, 0)] + smaller + [((-a) % m, (-b) % m) for a, b in reversed(smaller)]


def character_matrix(m: int) -> np.ndarray:
    """K[h, g] = exp(2*pi*i*(d*a - b*c)/m) for h = (c, d), g = (a, b), both
    indexed in canonical order."""
    order = canonical_order(m)
    expo = np.array([[(d * a - b * c) % m for (a, b) in order] for (c, d) in order])
    return np.exp(2j * np.pi * expo / m)


def contract_axes(mat: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Apply `mat` along every axis of the (q,)*n tensor held in `coeffs`."""
    q = mat.shape[0]
    t = np.asarray(coeffs, dtype=np.complex128).reshape((q,) * n)
    for axis in range(n):
        t = np.moveaxis(np.tensordot(mat, t, axes=([1], [axis])), 0, axis)
    return np.ascontiguousarray(t).reshape(-1)


def transform(m: int, n: int, coeffs: np.ndarray) -> np.ndarray:
    """C' = (1/M) sum_h chi_h(C) z^h, one axis at a time."""
    return contract_axes(character_matrix(m), coeffs, n) / coeffs.sum()


def _digit_sum(table: np.ndarray, n: int) -> np.ndarray:
    """sum over coordinates of table[digit_i], for every flat label."""
    q = table.shape[0]
    out = np.zeros((q,) * n, dtype=table.dtype)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = q
        out = out + table.reshape(shape)
    return out.reshape(-1)


def label_weights(m: int, n: int) -> np.ndarray:
    """Hamming weight (number of non-identity coordinates) of every label."""
    return _digit_sum((np.arange(m * m) != 0).astype(np.int16), n)


def hamming_binning(m: int, n: int, coeffs: np.ndarray) -> np.ndarray:
    w = label_weights(m, n)
    c = np.asarray(coeffs, dtype=np.complex128)
    return (np.bincount(w, weights=c.real, minlength=n + 1)
            + 1j * np.bincount(w, weights=c.imag, minlength=n + 1))


def lee_classes(m: int) -> np.ndarray:
    """Ordering index -> Lee class: l_0 = s_0, l_i = s_i + s_(m^2 - i)."""
    q = m * m
    idx = np.arange(q)
    return np.where(idx <= (q - 1) // 2, idx, q - idx)


def composition_binning(m: int, n: int, coeffs: np.ndarray, lee: bool = False) -> dict:
    """{count vector: summed coefficient} over the complete (or Lee)
    composition of every label; entries are kept even when they sum to 0."""
    q = m * m
    classes = lee_classes(m) if lee else np.arange(q)
    width = int(classes.max()) + 1
    keys = _digit_sum((n + 1) ** classes.astype(np.int64), n)
    uniq, inverse = np.unique(keys, return_inverse=True)
    c = np.asarray(coeffs, dtype=np.complex128)
    sums = (np.bincount(inverse, weights=c.real, minlength=len(uniq))
            + 1j * np.bincount(inverse, weights=c.imag, minlength=len(uniq)))
    out = {}
    for key, val in zip(uniq.tolist(), sums):
        counts = []
        for _ in range(width):
            key, r = divmod(key, n + 1)
            counts.append(r)
        out[tuple(counts)] = complex(val)
    return out


def _rowmajor_positions(m: int, n: int) -> np.ndarray:
    """Flat position of every canonical label in the (m,)*2n tensor whose
    axes are (a_1, b_1, ..., a_n, b_n)."""
    pair_index = np.array([a * m + b for a, b in canonical_order(m)], dtype=np.int64)
    q = m * m
    places = q ** np.arange(n - 1, -1, -1, dtype=np.int64)
    out = np.zeros((q,) * n, dtype=np.int64)
    for axis in range(n):
        shape = [1] * n
        shape[axis] = q
        out = out + (pair_index * places[axis]).reshape(shape)
    return out.reshape(-1)


def convolution(m: int, n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """out[k] = sum over g + h = k of a_g b_h, as a cyclic convolution on
    Z_m^(2n) computed by FFT."""
    pos = _rowmajor_positions(m, n)
    shape = (m,) * (2 * n)
    ta = np.zeros(pos.size, dtype=np.complex128)
    tb = np.zeros(pos.size, dtype=np.complex128)
    ta[pos] = a
    tb[pos] = b
    conv = np.fft.ifftn(np.fft.fftn(ta.reshape(shape)) * np.fft.fftn(tb.reshape(shape)))
    return conv.reshape(-1)[pos]


def flat_index(m: int, label) -> int:
    """Coordinate-major flat index of a label ((a_1, b_1), ..., (a_n, b_n))."""
    index = {g: i for i, g in enumerate(canonical_order(m))}
    out = 0
    for a, b in label:
        out = out * m * m + index[(a % m, b % m)]
    return out


# --- stabilizer groups, exactly ---

def symplectic(g, h, m: int) -> int:
    return sum(a * d - b * c for (a, b), (c, d) in zip(g, h)) % m


def stabilizer_group(m: int, generators) -> set:
    """Every element of the group generated by the labels, as tuples of
    (a, b) pairs; phases play no part in the index group."""
    n = len(generators[0])
    group = {((0, 0),) * n}
    for gen in generators:
        frontier = set(group)
        while True:
            frontier = {tuple(((x + a) % m, (y + b) % m) for (x, y), (a, b) in zip(s, gen))
                        for s in frontier}
            if frontier <= group:
                break
            group |= frontier
    return group


def weight_distribution(m: int, n: int, labels) -> list[int]:
    a = [0] * (n + 1)
    for label in labels:
        a[sum(1 for g in label if g != (0, 0))] += 1
    return a


def krawtchouk(m: int, n: int) -> list[list[int]]:
    """K[w][j]: coefficient of x^(n-w) y^w in (x + (m^2-1) y)^(n-j) (x - y)^j."""
    q = m * m
    return [[sum((-1) ** s * comb(j, s) * comb(n - j, w - s) * (q - 1) ** (w - s)
                 for s in range(min(j, w) + 1)) for j in range(n + 1)] for w in range(n + 1)]


def macwilliams_t9(a, m: int, n: int) -> list[Fraction]:
    """Coefficients of (1/M) W(x + (m^2 - 1) y, x - y), M = sum(a), exactly."""
    mass = sum(a)
    return [Fraction(sum(k * x for k, x in zip(row, a)), mass) for row in krawtchouk(m, n)]


def distance_and_purity(a, a_dual, k: int) -> tuple[int, bool]:
    """d = min{w >= 1 : A'_w > A_w} for K > 1 (valid because c <= c'), the
    smallest nonzero weight of A for K = 1; pure when A vanishes on 1..d-1."""
    n = len(a) - 1
    if k > 1:
        d = min(w for w in range(1, n + 1) if a_dual[w] > a[w])
    else:
        d = min(w for w in range(1, n + 1) if a[w] > 0)
    return d, all(a[w] == 0 for w in range(1, d))


def stabilizer_summary(m: int, n: int, generators) -> dict:
    """K, d, purity, A and A' of a stabilizer code, in exact arithmetic."""
    group = stabilizer_group(m, generators)
    a = weight_distribution(m, n, group)
    a_dual = macwilliams_t9(a, m, n)
    if any(x.denominator != 1 for x in a_dual):
        raise ArithmeticError("t9 image of a stabilizer distribution is not integral")
    a_dual = [int(x) for x in a_dual]
    if m ** n % len(group):
        raise ArithmeticError(f"|S| = {len(group)} does not divide m^n = {m ** n}")
    k = m ** n // len(group)
    d, pure = distance_and_purity(a, a_dual, k)
    return {"K": k, "d": d, "pure": pure, "A": a, "A_dual": a_dual, "order": len(group)}


# --- element files ---

def write_element(path, m: int, n: int, entries) -> None:
    """entries: iterable of (flat index, complex)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"element v1\nm {m}\nn {n}\n")
        fh.writelines(f"{i} {float(c.real)!r},{float(c.imag)!r}\n" for i, c in entries)


def read_element(path) -> tuple[int, int, np.ndarray]:
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if lines[0] != "element v1" or not lines[1].startswith("m ") or not lines[2].startswith("n "):
        raise ValueError(f"{path}: not an element file")
    m, n = int(lines[1][2:]), int(lines[2][2:])
    coeffs = np.zeros((m * m) ** n, dtype=np.complex128)
    for ln in lines[3:]:
        idx, val = ln.split()
        re, im = val.split(",")
        coeffs[int(idx)] = complex(float(re), float(im))
    return m, n, coeffs


def write_stabilizer_code(path, m: int, n: int, generators) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"code v1\nm {m}\nn {n}\nkind stabilizer\n")
        for gen in generators:
            fh.write(" ".join(f"{a},{b}" for a, b in gen) + "\n")
