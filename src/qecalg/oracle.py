"""Brute-force reference implementations.

Everything here materializes operators as explicit m^n x m^n matrices, or
the per-label table of all m^(2n) labels, and exists solely to certify the
fast paths at small sizes; nothing scales and nothing is cached.
"""

from __future__ import annotations

import numpy as np

from .code_analysis import BasisVectors, CodeSpec, StabilizerGenerators, validate_code
from .error_basis import PhaseSystem, canonical_ordering
from .errors import SizeCap
from .group_algebra import AlgebraElement
from .reports import CheckReport

DEFAULT_SIZE_CAP = 256
_TOL = 1e-9


def label_digits(m: int, n: int) -> np.ndarray:
    """(m^(2n), n) table: the ordering-index digits of every flat index."""
    q = m * m
    idx = np.arange(q ** n)
    digits = np.empty((q ** n, n), dtype=np.int64)
    for i in range(n - 1, -1, -1):
        digits[:, i] = idx % q
        idx //= q
    return digits


def _grouped_terms(keys: np.ndarray, coeffs: np.ndarray) -> dict:
    """Sum coefficients by unique key row; exactly-zero sums are dropped."""
    uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.complex128)
    np.add.at(sums, inverse.reshape(-1), coeffs)
    return {tuple(int(x) for x in row): complex(v) for row, v in zip(uniq, sums) if v != 0}


def oracle_hamming_distribution(a: AlgebraElement) -> np.ndarray:
    """A_w = sum of c_g over labels of weight w, from the label table."""
    weights = (label_digits(a.m, a.n) != 0).sum(axis=1)
    out = np.zeros(a.n + 1, dtype=np.complex128)
    np.add.at(out, weights, a.coeffs)
    return out


def oracle_composition_terms(a: AlgebraElement, lee: bool = False) -> dict:
    """Complete (or, for odd m, Lee) distribution from the label table."""
    q = a.m * a.m
    digits = label_digits(a.m, a.n)
    count = q
    if lee:
        delta = (q - 1) // 2
        digits = np.where(digits > delta, q - digits, digits)
        count = delta + 1
    counts = np.stack([(digits == v).sum(axis=1) for v in range(count)], axis=1)
    return _grouped_terms(counts, a.coeffs)


def oracle_enumerator_value(a: AlgebraElement, points: np.ndarray) -> complex:
    """sum_g c_g prod_i points[i, g_i]; a 1-D `points` is shared by all i."""
    points = np.asarray(points, dtype=np.complex128)
    digits = label_digits(a.m, a.n)
    prods = np.ones(a.size, dtype=np.complex128)
    for i in range(a.n):
        prods *= points[digits[:, i]] if points.ndim == 1 else points[i, digits[:, i]]
    return complex(a.coeffs @ prods)


def oracle_minimum_distance(a: AlgebraElement, dual: AlgebraElement, k: int) -> int:
    """Smallest weight >= 1 where c differs from c' (K > 1) or c is
    nonzero (K = 1), read off the label table."""
    weights = (label_digits(a.m, a.n) != 0).sum(axis=1)
    if k > 1:
        mask = np.abs(a.coeffs - dual.coeffs) > _TOL
    else:
        mask = (np.abs(a.coeffs) > _TOL) & (weights > 0)
    return int(weights[mask].min())


def oracle_multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Group convolution by scattering b once per support element of a."""
    ordering = canonical_ordering(a.m)
    digits = label_digits(a.m, a.n)
    places = ordering.size ** np.arange(a.n - 1, -1, -1, dtype=np.int64)
    out = np.zeros(a.size, dtype=np.complex128)
    for gi in np.nonzero(a.coeffs)[0]:
        target = ordering.add_table[digits[gi][None, :], digits] @ places
        out[target] += a.coeffs[gi] * b.coeffs
    return AlgebraElement(a.m, a.n, out)


def _check_cap(m: int, n: int, cap: int) -> None:
    if m ** n > cap:
        raise SizeCap(f"m^n = {m ** n} exceeds cap {cap}")


def build_operator(sys: PhaseSystem, label, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Kronecker product of the single-system matrices for the label."""
    n = len(label)
    _check_cap(sys.m, n, cap)
    out = np.ones((1, 1), dtype=np.complex128)
    for g in label:
        out = np.kron(out, sys.matrices[sys.ordering.index_of(g)])
    return out


def oracle_character(sys: PhaseSystem, h, g, cap: int = DEFAULT_SIZE_CAP) -> complex:
    """tr(E_h^dag E_g^dag E_h E_g) / m^n with explicit matrices."""
    eh = build_operator(sys, h, cap)
    eg = build_operator(sys, g, cap)
    return complex(np.trace(eh.conj().T @ eg.conj().T @ eh @ eg) / sys.m ** len(h))


def verify_basis_axioms(sys: PhaseSystem) -> CheckReport:
    """Check identity, traces, and phase closure of the stored matrices
    against the stored omega table."""
    m, q = sys.m, sys.q
    mats = sys.matrices
    worst = 0.0
    bad = []

    r = float(np.abs(mats[0] - np.eye(m)).max())
    worst = max(worst, r)
    if r > _TOL:
        bad.append(("identity", 0))
    for i in range(q):
        expected = m if i == 0 else 0.0
        r = abs(np.trace(mats[i]) - expected)
        worst = max(worst, r)
        if r > _TOL:
            bad.append(("trace", i))
    add = sys.ordering.add_table
    for i in range(q):
        for j in range(q):
            w = sys.omega[i, j]
            r = max(
                float(np.abs(mats[i] @ mats[j] - w * mats[int(add[i, j])]).max()),
                abs(abs(w) - 1.0),
            )
            worst = max(worst, r)
            if r > _TOL:
                bad.append(("closure", i, j))
    return CheckReport(
        name="basis-axioms",
        passed=not bad,
        max_residual=worst,
        failures=tuple(bad),
    )


def projector(sys: PhaseSystem, code: CodeSpec, cap: int = DEFAULT_SIZE_CAP) -> np.ndarray:
    """Orthogonal projector onto the code space, as a dense matrix.

    For stabilizer input, each generator contributes the averaging projector
    (1/m) sum_t (phi E)^t with phi = exp(i*pi*phase/m); the phased operator
    must have order dividing m.
    """
    validate_code(code)
    _check_cap(code.m, code.n, cap)
    dim = code.m ** code.n
    if isinstance(code.body, BasisVectors):
        v = code.body.vectors
        return v.T @ v.conj()
    p = np.eye(dim, dtype=np.complex128)
    for gen, phase in zip(code.body.labels, code.body.phases):
        op = np.exp(1j * np.pi * phase / code.m) * build_operator(sys, gen, cap)
        power = np.eye(dim, dtype=np.complex128)
        avg = np.zeros_like(power)
        for _ in range(code.m):
            avg += power
            power = power @ op
        if np.abs(power - np.eye(dim)).max() > _TOL:
            raise ValueError(
                f"phased generator {gen} does not have order dividing m={code.m}"
            )
        p = p @ (avg / code.m)
    if np.abs(p @ p - p).max() > _TOL or np.abs(p - p.conj().T).max() > _TOL:
        raise ValueError("stabilizer data does not define an orthogonal projector")
    return p


def codewords_from_stabilizers(
    sys: PhaseSystem, code: CodeSpec, cap: int = DEFAULT_SIZE_CAP
) -> np.ndarray:
    """(K, m^n) orthonormal codewords extracted from the projector."""
    p = projector(sys, code, cap)
    k = round(float(np.trace(p).real))
    vals, vecs = np.linalg.eigh(p)
    if np.abs(vals[-k:] - 1.0).max() > 1e-7:
        raise ValueError("projector eigenvalues are not 0/1 within tolerance")
    return np.ascontiguousarray(vecs[:, -k:].T)


def oracle_associated_element(
    sys: PhaseSystem, code: CodeSpec, cap: int = DEFAULT_SIZE_CAP
) -> AlgebraElement:
    """c_g = |tr(E_g P)|^2 / K^2 with an explicitly materialized projector."""
    p = projector(sys, code, cap)
    k = round(float(np.trace(p).real))
    m, n = code.m, code.n
    digits = label_digits(m, n)
    order = sys.ordering.order
    coeffs = np.empty(digits.shape[0], dtype=np.complex128)
    for idx in range(digits.shape[0]):
        label = [order[d] for d in digits[idx]]
        e = build_operator(sys, label, cap)
        coeffs[idx] = abs((e * p.T).sum()) ** 2 / k ** 2
    return AlgebraElement(m, n, coeffs)


def oracle_dual_element(
    sys: PhaseSystem, code: CodeSpec, cap: int = DEFAULT_SIZE_CAP
) -> AlgebraElement:
    """c'_h = (1/K) sum_{i,j} |<v_i|E_h|v_j>|^2 with explicit matrices."""
    validate_code(code)
    _check_cap(code.m, code.n, cap)
    if isinstance(code.body, BasisVectors):
        v = code.body.vectors
    else:
        v = codewords_from_stabilizers(sys, code, cap)
    k = v.shape[0]
    m, n = code.m, code.n
    digits = label_digits(m, n)
    order = sys.ordering.order
    coeffs = np.empty(digits.shape[0], dtype=np.complex128)
    for idx in range(digits.shape[0]):
        label = [order[d] for d in digits[idx]]
        e = build_operator(sys, label, cap)
        w = v.conj() @ (e @ v.T)
        coeffs[idx] = (np.abs(w) ** 2).sum() / k
    return AlgebraElement(m, n, coeffs)
