"""From quantum codes to algebra elements: dimension, distance, purity.

A code given by orthonormal basis vectors {v_i} maps to the element with

    c_g = (1/K^2) |sum_i <v_i| E_g |v_i>|^2,

computed without ever materializing an m^n x m^n operator: for the
generalized Pauli basis, E_(a,b) acts on a state as an index shift by a and
a diagonal phase in b, so for a fixed shift a all Z-parts b are obtained at
once by contracting the m x m phase character matrix along each coordinate
axis of the pointwise product conj(v(.+a)) * v(.).

A code given by stabilizer generators maps to the indicator of the generated
index subgroup.  For every input kind C is built once and C' is its
transform (for basis input C' has the closed form
c'_h = (1/K) sum_{i,j} |<v_i| E_h |v_j>|^2, which the dense-matrix oracle
computes to certify this route; for stabilizer input C' is the indicator of
the normalizer).  From the pair (C, C'):

    K    = m^n / mass(C)
    d    = min weight where c_g != c'_g        (K > 1)
           min nonzero weight where c_g != 0   (K = 1)
    pure = no support of C at weights strictly between 0 and d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import (
    GroupElement,
    PhaseSystem,
    _roots_of_unity,
    canonical_ordering,
)
from .errors import (
    ClosureOverflow,
    NoDistance,
    NonCommutingGenerators,
    NonIntegerDimension,
    NonOrthonormalBasis,
)
from .enumerators import HammingDistribution, hamming_distribution
from .group_algebra import AlgebraElement, transform, weight_reduce
from .reports import CheckReport

COEFF_TOL = 1e-9
DIMENSION_TOL = 1e-6
_MASK_SLICE = 1 << 16

Label = tuple[GroupElement, ...]


def pauli_label(s: str) -> Label:
    """Convenience: 'XZZXI' -> qubit label ((1,0),(0,1),(0,1),(1,0),(0,0))."""
    lookup = {
        "I": GroupElement(0, 0),
        "X": GroupElement(1, 0),
        "Z": GroupElement(0, 1),
        "Y": GroupElement(1, 1),
    }
    try:
        return tuple(lookup[ch] for ch in s.upper())
    except KeyError as exc:
        raise ValueError(f"unknown Pauli letter in {s!r}") from exc


@dataclass(frozen=True, eq=False)
class StabilizerGenerators:
    labels: tuple[Label, ...]
    phases: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class BasisVectors:
    vectors: np.ndarray  # (K, m^n), rows orthonormal


@dataclass(frozen=True, eq=False)
class CodeSpec:
    m: int
    n: int
    body: StabilizerGenerators | BasisVectors

    @classmethod
    def from_stabilizers(
        cls, m: int, n: int, generators: Sequence[Label],
        phases: Sequence[int] | None = None,
    ) -> "CodeSpec":
        labels = tuple(tuple(GroupElement(a % m, b % m) for (a, b) in gen) for gen in generators)
        for gen in labels:
            if len(gen) != n:
                raise ValueError(f"generator has {len(gen)} coordinates, expected {n}")
        ph = tuple(phases) if phases is not None else tuple(0 for _ in labels)
        if len(ph) != len(labels):
            raise ValueError("one phase exponent per generator required")
        return cls(m, n, StabilizerGenerators(labels, ph))

    @classmethod
    def from_basis(cls, m: int, n: int, vectors: np.ndarray) -> "CodeSpec":
        v = np.ascontiguousarray(vectors, dtype=np.complex128)
        if v.ndim != 2 or v.shape[1] != m ** n:
            raise ValueError(f"expected vectors of shape (K, {m ** n})")
        v = v.copy()
        v.setflags(write=False)
        return cls(m, n, BasisVectors(v))

    @property
    def kind(self) -> str:
        return "stabilizer" if isinstance(self.body, StabilizerGenerators) else "basis"


def symplectic_product(g: Label, h: Label, m: int) -> int:
    """sum_i (a_i d_i - b_i c_i) mod m for g_i=(a_i,b_i), h_i=(c_i,d_i);
    zero iff E_g and E_h commute."""
    total = 0
    for (a, b), (c, d) in zip(g, h):
        total += a * d - b * c
    return total % m


def validate_code(code: CodeSpec) -> None:
    """Orthonormality for basis input, pairwise commutation for stabilizers."""
    if isinstance(code.body, BasisVectors):
        v = code.body.vectors
        gram = v @ v.conj().T
        resid = np.abs(gram - np.eye(v.shape[0])).max()
        if resid > COEFF_TOL:
            raise NonOrthonormalBasis(f"max |<v_i|v_j> - delta_ij| = {resid:.3e}")
    else:
        gens = code.body.labels
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if symplectic_product(gens[i], gens[j], code.m) != 0:
                    raise NonCommutingGenerators(f"generators {i} and {j} do not commute")


def stabilizer_group_indices(code: CodeSpec) -> np.ndarray:
    """Flat coefficient indices of the subgroup generated by the labels.

    Breadth-first coset expansion in the index group; no prime-power
    assumption on m.  Capped at m^(2n) (the whole group).
    """
    ordering = canonical_ordering(code.m)
    cap = ordering.size ** code.n
    add = ordering.add_table
    group = {(0,) * code.n}
    for gen in code.body.labels:
        gd = tuple(ordering.index_of(g) for g in gen)
        layer = set(group)
        for _ in range(1, code.m):
            layer = {tuple(int(add[x[i], gd[i]]) for i in range(code.n)) for x in layer}
            group |= layer
            if len(group) > cap:
                raise ClosureOverflow(f"closure exceeded {cap} elements")
    places = ordering.size ** np.arange(code.n - 1, -1, -1, dtype=np.int64)
    idx = np.sort(np.array([np.dot(t, places) for t in group], dtype=np.int64))
    return idx


@lru_cache(maxsize=None)
def _phase_character_matrix(m: int) -> np.ndarray:
    """F[b, j] = exp(2*pi*i*b*j/m): contracting F along every coordinate of
    u(j) yields sum_j u(j) * prod_l F[b_l, j_l] for all Z-parts b at once."""
    roots = _roots_of_unity(m)
    f = roots[np.outer(np.arange(m), np.arange(m)) % m]
    f.setflags(write=False)
    return f


@lru_cache(maxsize=None)
def _rowmajor_digit_permutation(m: int) -> np.ndarray | None:
    """Per-coordinate permutation taking row-major (a,b) digits to ordering
    digits, or None when the ordering is already row-major (even m)."""
    ordering = canonical_ordering(m)
    perm = np.array([g.a * m + g.b for g in ordering.order], dtype=np.intp)
    if np.array_equal(perm, np.arange(m * m)):
        return None
    perm.setflags(write=False)
    return perm


def _reorder_pair_axes(t_all: np.ndarray, m: int, n: int) -> np.ndarray:
    """(m^n, m^n) array over (X-parts, Z-parts) -> flat coefficient layout."""
    t = t_all.reshape((m,) * (2 * n))
    interleave = [ax for i in range(n) for ax in (i, n + i)]
    t = np.transpose(t, interleave).reshape((m * m,) * n)
    perm = _rowmajor_digit_permutation(m)
    if perm is not None:
        for axis in range(n):
            t = np.take(t, perm, axis=axis)
    return np.ascontiguousarray(t.reshape(-1))


def _shifted_conj(vectors: np.ndarray, shift: tuple[int, ...], m: int, n: int) -> np.ndarray:
    """conj(v(. + shift)) for every row, via an index roll per coordinate."""
    v = vectors.reshape((vectors.shape[0],) + (m,) * n)
    rolled = np.roll(v, tuple(-s for s in shift), axis=tuple(range(1, n + 1)))
    return rolled.conj().reshape(vectors.shape)


def _all_shifts(m: int, n: int):
    shifts = np.indices((m,) * n).reshape(n, -1).T
    return [tuple(int(x) for x in row) for row in shifts]


def _associated_basis_generic(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """C for basis input under any nice error basis.

    Applies each E_g factor by factor (one m x m contraction per coordinate,
    identity factors skipped) and takes c_g = |sum_i <v_i|E_g|v_i>|^2 / K^2.
    """
    m, n = code.m, code.n
    vectors = code.body.vectors
    k = vectors.shape[0]
    states = vectors.reshape((k,) + (m,) * n)
    c = np.empty((m * m) ** n, dtype=np.complex128)
    for idx, digits in enumerate(np.ndindex(*(m * m,) * n)):
        w = states
        for axis, d in enumerate(digits):
            if d:
                w = np.moveaxis(
                    np.tensordot(sys.matrices[d], w, axes=([1], [axis + 1])), 0, axis + 1
                )
        c[idx] = abs(np.vdot(vectors, w.reshape(k, -1))) ** 2 / k ** 2
    return AlgebraElement(m, n, c)


def _associated_basis_pauli(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    m, n = code.m, code.n
    vectors = code.body.vectors
    k = vectors.shape[0]
    f = _phase_character_matrix(m)
    dim = m ** n
    t_all = np.empty((dim, dim), dtype=np.complex128)
    for row, shift in enumerate(_all_shifts(m, n)):
        u = (_shifted_conj(vectors, shift, m, n) * vectors).sum(axis=0)
        t_all[row] = _kernel.apply_axiswise(f, u, n)
    coeffs = np.abs(t_all) ** 2 / k ** 2
    return AlgebraElement(m, n, _reorder_pair_axes(coeffs.astype(np.complex128), m, n))


def associated_element(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """The algebra element encoding the code (c_0 is always 1).

    Stabilizer input: indicator of the generated index subgroup.  Basis
    input: Pauli systems take the shift+phase fast path (all Z-parts of a
    fixed X-shift in one contraction); other bases apply their matrices
    factor by factor.
    """
    validate_code(code)
    m, n = code.m, code.n
    if isinstance(code.body, StabilizerGenerators):
        coeffs = np.zeros((m * m) ** n, dtype=np.complex128)
        coeffs[stabilizer_group_indices(code)] = 1.0
        return AlgebraElement(m, n, coeffs)
    if sys.pauli:
        return _associated_basis_pauli(sys, code)
    return _associated_basis_generic(sys, code)


def dual_element(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """C', the transform of the associated element, for every input kind.

    For basis input it equals (1/K) sum_{i,j} |<v_i|E_h|v_j>|^2, which the
    dense-matrix oracle computes directly to certify this route.
    """
    return transform(sys, associated_element(sys, code)).element


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    K: int
    d: int
    pure: bool
    mass: float
    primary_distribution: HammingDistribution
    dual_distribution: HammingDistribution


def _minimum_distance(m: int, n: int, c: np.ndarray, c_dual: np.ndarray, k: int) -> int:
    """First weight w >= 1 holding a coefficient where c differs from c'
    (K > 1), or where c is nonzero (K = 1); reduced one axis at a time."""
    # in slices, so that no full-size c - c' or modulus array is ever alive
    mask = np.empty(c.shape, dtype=bool)
    for s in range(0, c.size, _MASK_SLICE):
        part = c[s:s + _MASK_SLICE]
        if k > 1:
            part = part - c_dual[s:s + _MASK_SLICE]
        np.greater(np.abs(part), COEFF_TOL, out=mask[s:s + _MASK_SLICE])
    hit = np.flatnonzero(weight_reduce(mask, m * m, n, np.logical_or)[1:])
    if not hit.size:
        raise NoDistance(
            "no coefficient distinguishes the element from its transform"
            if k > 1 else "element has no support off the identity"
        )
    return int(hit[0]) + 1


def analyze(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """Extract K, d, and purity from the associated element and its dual."""
    c = associated_element(sys, code)
    c_dual = transform(sys, c).element
    mass = c.mass.real
    k_exact = sys.m ** code.n / mass
    k = round(k_exact)
    if k < 1 or abs(k_exact - k) > DIMENSION_TOL:
        raise NonIntegerDimension(f"m^n / M = {k_exact!r} is not an integer")
    d = _minimum_distance(code.m, code.n, c.coeffs, c_dual.coeffs, k)
    dist = hamming_distribution(c)
    pure = bool(np.all(np.abs(dist.a[1:d]) <= COEFF_TOL))
    return AnalysisReport(
        K=k, d=d, pure=pure, mass=mass,
        primary_distribution=dist,
        dual_distribution=hamming_distribution(c_dual),
    )


def check_cs_ordering(sys: PhaseSystem, code: CodeSpec) -> CheckReport:
    """Cauchy-Schwarz consequence: c_g <= c'_g (up to tolerance) everywhere."""
    c = associated_element(sys, code)
    c_dual = transform(sys, c).element
    gap = c.coeffs.real - c_dual.coeffs.real
    worst = float(gap.max())
    bad = tuple(int(i) for i in np.nonzero(gap > COEFF_TOL)[0])
    return CheckReport(
        name="cauchy-schwarz-ordering",
        passed=not bad,
        max_residual=max(worst, 0.0),
        failures=bad,
    )


def random_code(m: int, n: int, k: int, seed: int) -> CodeSpec:
    """Seeded random K-dimensional code: orthonormalized complex Gaussians."""
    dim = m ** n
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= K <= {dim}, got {k}")
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        mat = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, r = np.linalg.qr(mat)
        if np.abs(np.diag(r)).min() > 1e-8:
            return CodeSpec.from_basis(m, n, q.T.conj().copy())
    raise RuntimeError(f"rank-deficient draws for seeds {seed}..{seed + 15}")
