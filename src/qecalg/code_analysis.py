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
index subgroup S.  `analyze` takes one of two routes:

  exact (stabilizer input)  `qecalg.stabilizer` streams S from its Howell
      form over Z_m and counts the Hamming pair (A, A') in exact integers;
      no array of m^(2n) coefficients is built.
  dense (basis input)  C is built once, A is its Hamming distribution and
      A' comes from t9 in floating point; the transform C' is never built.

K comes from S or V, and d and purity from the Hamming pair (A, A'):

    K    = m^n / |S|  (exact route), the row count of V (dense route)
    d    = min weight where c_g != c'_g       (K > 1)
         = min{w >= 1 : B_w > A_w}            (c <= c' entrywise, so B_w > A_w
                                               iff some weight-w coefficient differs)
           min{w >= 1 : A_w > 0}              (K = 1; c >= 0)
    pure = A_w = 0 for every 0 < w < d.

Both routes end in `_pair_report`; on the exact route's integers every
comparison is exact, on the dense route's floats it uses COEFF_TOL.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import PhaseSystem
from .errors import NoDistance, NonCommutingGenerators, NonOrthonormalBasis, ShapeMismatch
from .enumerators import HammingDistribution, hamming_distribution, macwilliams_hamming
from .group_algebra import AlgebraElement, array_length, transform
from .reports import CheckReport
from .stabilizer import _exact_pair, _index_group

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
    exponent p per generator (the operator is exp(i*pi*p/m) E_g).
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
            phases = None if body.phases is None else tuple(body.phases)
            if phases is not None and len(phases) != len(body.rows):
                raise ValueError("one phase exponent per generator required")
            # operator.index refuses a float exponent, which % m would truncate
            v = np.array([[operator.index(x) for x in row] for row in body.rows],
                         dtype=np.int64).reshape(-1, 2 * n) % m
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


def associated_element(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """The algebra element encoding the code (c_0 is always 1).

    Stabilizer input: indicator of the generated index subgroup (with the
    phase check of `_index_group`), scattered block by block.  Basis input:
    |tr(E_g P)|^2 / K^2 for every label in one axis contraction, under any
    nice error basis.
    """
    m, n = code.m, code.n
    if isinstance(code.body, StabilizerGenerators):
        size = array_length(m, n, "an element", 2)  # before S is streamed
        low, high = _index_group(sys, code)
        q, plus = m * m, sys.ordering.add_table
        coeffs = np.zeros(size, dtype=np.complex128)
        for offset in high.T:
            idx = np.zeros(low.shape[1], dtype=np.int64)
            for i in range(n):
                idx *= q
                idx += plus[offset[i]][low[i]]
            coeffs[idx] = 1.0
        return AlgebraElement(m, n, coeffs)
    return _associated_basis(sys, code)


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


def _pair_report(k: int, mass: float, a: HammingDistribution, b: HammingDistribution,
                 path: str) -> AnalysisReport:
    """The report of the Hamming pair (A, A') = (a, b), with d and purity
    decided on their exact integers where they carry them (the exact route)."""
    d, pure = _distance_and_purity(a.exact or a.a, b.exact or b.a, k)
    return AnalysisReport(K=k, d=d, pure=pure, mass=mass,
                          primary_distribution=a, dual_distribution=b, path=path)


def analyze(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """Extract K, d, and purity: exactly from the stabilizer group for
    stabilizer input, from the associated element and t9 otherwise."""
    if isinstance(code.body, StabilizerGenerators):
        a, b, size = _exact_pair(sys, code)
        return _pair_report(code.m ** code.n // size, float(size), a, b, "exact")
    c = associated_element(sys, code)
    dist = hamming_distribution(c)
    dual = HammingDistribution(code.m, code.n, macwilliams_hamming(dist, c.mass))
    return _pair_report(code.body.vectors.shape[0], c.mass.real, dist, dual, "dense")


def check_cs_ordering(sys: PhaseSystem, code: CodeSpec) -> CheckReport:
    """Cauchy-Schwarz consequence: c_g <= c'_g (up to tolerance) everywhere."""
    c = associated_element(sys, code)
    gap = c.coeffs.real - transform(sys, c).coeffs.real
    bad = tuple(int(i) for i in np.nonzero(gap > COEFF_TOL)[0])
    return CheckReport(name="cauchy-schwarz-ordering", passed=not bad,
                       max_residual=max(float(gap.max()), 0.0), failures=bad)


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
