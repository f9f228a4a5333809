"""From quantum codes to algebra elements: dimension, distance, purity.

A code given by orthonormal basis vectors {v_i} (the rows of V) maps to the
Shor-Laflamme expansion of its projector P = sum_i |v_i><v_i|,

    c_g = (1/K^2) |tr(E_g P)|^2,

for any nice error basis.  E_g = (x)_i E_{g_i} is a tensor product, so with
the m^n x m^n matrix Q = conj(V)^T V = P^T (as many entries as C has
coefficients) viewed with its row and column digits interleaved, every trace
comes out of one contraction of the (m^2, m^2) matrix E_g[r, c] along each
of the n (r_i, c_i) axes; no error operator E_g is ever built.

A code given by stabilizer generators maps to the indicator of the generated
index subgroup S.  `hamming_pair` alone picks the route to the Hamming pair:

  exact (stabilizer code)  `qecalg.stabilizer` streams S from its Howell
      form over Z_m and counts A and |S| in exact integers; A' is t9 of A
      in integers, which holds for every nice error basis (lemma 1).  No
      array of m^(2n) coefficients is built.
  dense (other codes, elements)  C is built once, A is its Hamming
      distribution and A' comes from t9 in floating point; C' is never built.

K comes from S or V, and d and purity from the Hamming pair (A, A'):

    K    = m^n / |S|  (exact route), the row count of V (dense route)
    d    = min weight where c_g != c'_g       (K > 1)
         = min{w >= 1 : B_w > A_w}            (c <= c' entrywise, so B_w > A_w
                                               iff some weight-w coefficient differs)
           min{w >= 1 : A_w > 0}              (K = 1; c >= 0)
    pure = A_w = 0 for every 0 < w < d.

Both routes decide d and purity in `analyze` by `_distance_and_purity`; on
the exact route's integers every comparison is exact, on the dense route's
floats it uses COEFF_TOL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import PhaseSystem, build_pauli_system, canonical_ordering
from .errors import NoDistance, NonCommutingGenerators, NonOrthonormalBasis, ShapeMismatch
from .enumerators import (
    HammingDistribution, hamming_distribution, macwilliams_hamming, macwilliams_terms)
from .group_algebra import AlgebraElement, array_length, transform
from .reports import CheckReport
from .stabilizer import _group_labels, _subgroup, _weight_counts

COEFF_TOL = 1e-9

Label = tuple[tuple[int, int], ...]  # one (a, b) exponent pair per coordinate


def pauli_label(s: str) -> Label:
    """Convenience: 'XZZXI' -> qubit label ((1,0),(0,1),(0,1),(1,0),(0,0))."""
    lookup = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}
    try:
        return tuple(lookup[ch] for ch in s.upper())
    except KeyError as exc:
        raise ValueError(f"unknown Pauli letter in {s!r}") from exc


@dataclass(frozen=True, eq=False)
class StabilizerGenerators:
    """Generator rows (a_1, b_1, ..., a_n, b_n), which a `CodeSpec` holds as
    one read-only (r, 2n) int64 array reduced mod m, and optionally one phase
    exponent p per generator, reduced mod 2m (the operator is exp(i*pi*p/m) E_g).
    phases=None is phase-free: only the index group is analysed and no
    phase is checked."""

    rows: np.ndarray
    phases: tuple[int, ...] | None


@dataclass(frozen=True, eq=False)
class BasisVectors:
    vectors: np.ndarray  # (K, m^n), rows orthonormal


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """A code, checked as it is built, with a read-only copy of the caller's
    body: n integer (a, b) pairs per generator, commuting pairwise, and one
    phase each if phased; or a nonempty (K, m^n) basis of orthonormal rows."""

    m: int
    n: int
    body: StabilizerGenerators | BasisVectors

    def __post_init__(self):
        m, n, body = self.m, self.n, self.body
        if m < 2 or n < 1:
            raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
        if isinstance(body, BasisVectors):
            dim = array_length(m, n, "a basis row")  # before m^n is formed
            v = np.array(body.vectors, dtype=np.complex128, order="C")
            if v.ndim != 2 or v.shape[1] != dim:
                raise ValueError(f"expected vectors of shape (K, {dim})")
            if not len(v):
                raise ValueError("a basis code needs at least one vector")
            resid = np.abs(v @ v.conj().T - np.eye(len(v))).max()
            if not resid <= COEFF_TOL:  # NaN fails too
                raise NonOrthonormalBasis(f"max |<v_i|v_j> - delta_ij| = {resid:.3e}")
            body = BasisVectors(v)
        else:
            bad = next((len(row) for row in body.rows if len(row) != 2 * n), None)
            if bad is not None:
                raise ValueError(f"generator has {bad / 2:g} coordinates, expected {n}")
            # a phase exponent p stands for exp(i*pi*p/m), so it is read mod 2m,
            # as a Python int like the exponents below
            phases = (None if body.phases is None
                      else tuple(operator.index(p) % (2 * m) for p in body.phases))
            if phases is not None and len(phases) != len(body.rows):
                raise ValueError("one phase exponent per generator required")
            # the rows are int64, as are their symplectic products: sums of n products below m^2
            if n * m * m > np.iinfo(np.int64).max:
                raise ValueError(f"m={m} is too large: the symplectic products of "
                                 f"generators on n={n} qudits would overflow int64")
            # operator.index refuses a float exponent, which % m would truncate; the
            # exponents are reduced as Python ints, so any size reads as its residue
            v = np.array([[operator.index(x) % m for x in row] for row in body.rows],
                         dtype=np.int64).reshape(-1, 2 * n)
            x, z = v[:, 0::2], v[:, 1::2]
            clash = (x @ z.T - z @ x.T) % m  # the symplectic products of all pairs
            if clash.any():
                # antisymmetric with a zero diagonal: the first nonzero entry in
                # row-major order is the first pair i < j
                i, j = np.argwhere(clash)[0]
                raise NonCommutingGenerators(f"generators {i} and {j} do not commute")
            body = StabilizerGenerators(v, phases)
        v.setflags(write=False)
        object.__setattr__(self, "body", body)

    @classmethod
    def from_stabilizers(
        cls, m: int, n: int, generators: Sequence[Label],
        phases: Sequence[int] | None = None,
    ) -> "CodeSpec":
        rows = [[x for a, b in gen for x in (a, b)] for gen in generators]
        return cls(m, n, StabilizerGenerators(rows, phases))

    @classmethod
    def from_basis(cls, m: int, n: int, vectors: np.ndarray) -> "CodeSpec":
        return cls(m, n, BasisVectors(vectors))

    @property
    def kind(self) -> str:
        return "stabilizer" if isinstance(self.body, StabilizerGenerators) else "basis"


def _associated_basis(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """c_g = |tr(E_g P)|^2 / K^2 for the projector P onto the rows of V.

    With Q = conj(V)^T V = P^T, tr(E_g P) = sum_{r,c} E_g[r, c] Q[r, c], and
    E_g = (x)_i E_{g_i} factorizes over the (r_i, c_i) index pairs: with Q's
    axes interleaved to (r_1, c_1, ..., r_n, c_n), all traces are one
    contraction of the (m^2, m^2) matrix E_g[r, c] along each pair axis.
    """
    m, n = code.m, code.n
    if sys.m != m:
        raise ShapeMismatch(f"system has m={sys.m}, code has m={m}")
    v = code.body.vectors
    q = v.conj().T @ v
    interleave = [ax for i in range(n) for ax in (i, n + i)]
    q = np.ascontiguousarray(q.reshape((m,) * (2 * n)).transpose(interleave)).reshape(-1)
    # q is ours: the kernel alternates between it and one scratch array
    t = _kernel.apply_axiswise(sys.matrices.reshape(m * m, m * m), q, n, overwrite_input=True)
    del q
    # |t|^2 / K^2 in place: no complex temporary, and an imaginary part of exactly 0
    re, im = t.real, t.imag
    np.square(re, out=re)
    np.square(im, out=im)
    re += im
    re /= len(v) ** 2
    im[...] = 0.0
    return AlgebraElement(m, n, t)


def associated_element(sys: PhaseSystem | None, code: CodeSpec | AlgebraElement) -> AlgebraElement:
    """The algebra element encoding the code (c_0 is always 1); an element
    is its own.

    Stabilizer input: the indicator of S, scattered from `_group_labels`.
    Basis input: |tr(E_g P)|^2 / K^2 for every label in one axis
    contraction, under any nice error basis, the Pauli one if `sys` is None.
    """
    if isinstance(code, AlgebraElement):
        return code
    m, n = code.m, code.n
    if isinstance(code.body, StabilizerGenerators):
        size = array_length(m, n, "an element", 2)  # before S is formed
        labels = _group_labels(canonical_ordering(m), *_subgroup(code, sys))
        coeffs = np.zeros(size, dtype=np.complex128)
        coeffs[labels] = 1.0
        return AlgebraElement(m, n, coeffs)
    return _associated_basis(sys or build_pauli_system(m), code)


def hamming_pair(sys: PhaseSystem | None, subject: CodeSpec | AlgebraElement
                 ) -> tuple[HammingDistribution, HammingDistribution, int | complex]:
    """(A, A', M): the Hamming pair of a code or an element and the mass M
    of its C, by the route for the input: exact, with M = |S| and no C, for
    a stabilizer code; from C and t9, with no C', for any other input.  `sys`
    None is the Pauli basis, built only for a basis code or a phased code."""
    if isinstance(subject, CodeSpec) and subject.kind == "stabilizer":
        m, n = subject.m, subject.n
        a, size = _weight_counts(canonical_ordering(m), *_subgroup(subject, sys))
        b = [x // size for x in macwilliams_terms(a, m * m, n)]  # |S| times N(S)'s weight counts
        return (HammingDistribution.of_ints(m, n, a), HammingDistribution.of_ints(m, n, b), size)
    c = associated_element(sys, subject)
    a = hamming_distribution(c)
    return a, HammingDistribution(c.m, c.n, macwilliams_hamming(a, c.mass)), c.mass


@dataclass(frozen=True, eq=False)
class AnalysisReport:
    K: int
    d: int
    pure: bool
    mass: float
    primary_distribution: HammingDistribution
    dual_distribution: HammingDistribution
    path: str  # "exact" (stabilizer input) or "dense" (basis input)


def _distance_and_purity(a: Sequence, b: Sequence, k: int) -> tuple[int, bool]:
    """d and purity from the Hamming pair (A, A'): d is the first weight
    w >= 1 with B_w - A_w > COEFF_TOL (K > 1), or with A_w > COEFF_TOL
    (K = 1); pure means |A_w| <= COEFF_TOL for 1 <= w < d.  Because
    c <= c' entrywise, B_w > A_w holds exactly when a weight-w coefficient
    of C differs from C'.  Python ints are compared exactly."""
    for d in range(1, len(a)):
        if (b[d] - a[d] if k > 1 else a[d]).real > COEFF_TOL:
            return d, all(abs(x) <= COEFF_TOL for x in a[1:d])
    raise NoDistance("no coefficient distinguishes the element from its transform"
                     if k > 1 else "element has no support off the identity")


def analyze(sys: PhaseSystem | None, code: CodeSpec) -> AnalysisReport:
    """Extract K, d, and purity from the code's `hamming_pair` (under `sys`
    as there).  d and purity are decided on the pair's exact integers where
    it carries them (the exact route)."""
    a, b, mass = hamming_pair(sys, code)
    exact = a.exact is not None
    k = code.m ** code.n // mass if exact else code.body.vectors.shape[0]
    d, pure = _distance_and_purity(a.exact or a.a, b.exact or b.a, k)
    return AnalysisReport(K=k, d=d, pure=pure, mass=float(mass.real), primary_distribution=a,
                          dual_distribution=b, path="exact" if exact else "dense")


def check_cs_ordering(sys: PhaseSystem, code: CodeSpec) -> CheckReport:
    """Cauchy-Schwarz consequence: c_g <= c'_g (up to tolerance) everywhere;
    `failures` are the flat labels where the gap c_g - c'_g exceeds it, a
    NaN gap among them."""
    c = associated_element(sys, code)
    gap = c.coeffs.real - transform(sys, c).coeffs.real
    return CheckReport.from_residuals("cauchy-schwarz-ordering", gap, COEFF_TOL)


def random_code(m: int, n: int, k: int, seed: int) -> CodeSpec:
    """Seeded random K-dimensional code: orthonormalized complex Gaussians."""
    dim = array_length(m, n, "a code vector")
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= K <= {dim}, got {k}")
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        mat = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, r = np.linalg.qr(mat)
        if np.abs(np.diag(r)).min() > 1e-8:
            return CodeSpec.from_basis(m, n, q.T.conj())
    raise RuntimeError(f"rank-deficient draws for seeds {seed}..{seed + 15}")
