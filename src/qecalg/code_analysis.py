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

  exact (stabilizer input)  S is enumerated by coset doubling on small-
      integer arrays, A_w counts its elements of weight w, and A' = B comes
      from the Hamming identity (t9) in integer arithmetic,
          B(x, y) = (1/|S|) A(x + (m^2 - 1) y, x - y);
      no array of m^(2n) coefficients is built.  t9 holds for every nice
      error basis (the kernel rows sum to zero, lemma 1), so these numbers
      do not depend on the basis.
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

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import PHASE_TOL, GroupElement, PhaseSystem, canonical_ordering
from .errors import (
    InconsistentStabilizers,
    NoDistance,
    NonCommutingGenerators,
    NonIntegerDimension,
    NonOrthonormalBasis,
    ShapeMismatch,
)
from .enumerators import (
    HammingDistribution, hamming_distribution, macwilliams_hamming, macwilliams_terms)
from .group_algebra import AlgebraElement, transform
from .reports import CheckReport

COEFF_TOL = 1e-9

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
    """Generator labels, and optionally one phase exponent p per generator
    (the operator is exp(i*pi*p/m) E_g).  phases=None is phase-free: only
    the index group is analysed and no phase is checked."""

    labels: tuple[Label, ...]
    phases: tuple[int, ...] | None


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
        ph = None if phases is None else tuple(phases)
        if ph is not None and len(ph) != len(labels):
            raise ValueError("one phase exponent per generator required")
        return cls(m, n, StabilizerGenerators(labels, ph))

    @classmethod
    def from_basis(cls, m: int, n: int, vectors: np.ndarray) -> "CodeSpec":
        v = np.array(vectors, dtype=np.complex128, order="C")
        if v.ndim != 2 or v.shape[1] != m ** n:
            raise ValueError(f"expected vectors of shape (K, {m ** n})")
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
        if not resid <= COEFF_TOL:  # NaN fails too
            raise NonOrthonormalBasis(f"max |<v_i|v_j> - delta_ij| = {resid:.3e}")
    else:
        gens = code.body.labels
        for i in range(len(gens)):
            for j in range(i + 1, len(gens)):
                if symplectic_product(gens[i], gens[j], code.m) != 0:
                    raise NonCommutingGenerators(f"generators {i} and {j} do not commute")


def _locate(group: np.ndarray, target: np.ndarray) -> int | None:
    """Column of `group` equal to `target`, narrowing the candidates one
    coordinate at a time so that no temporary of the size of `group` is built."""
    hit = np.flatnonzero(group[0] == target[0])
    for j in range(1, group.shape[0]):
        hit = hit[group[j, hit] == target[j]]
    return int(hit[0]) if hit.size else None


def _ordering_positions(m: int) -> np.ndarray:
    """(m, m) table: the canonical ordering index of (a, b)."""
    index = canonical_ordering(m).index
    return np.array([[index[(a, b)] for b in range(m)] for a in range(m)], dtype=np.intp)


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
    validate_code(code)
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
    for k, label in enumerate(code.body.labels):
        g = np.array([x for pair in label for x in pair], dtype=dtype)
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


def _group_indices(group: np.ndarray, m: int, n: int) -> np.ndarray:
    """Flat coefficient indices of the columns of `stabilizer_group`."""
    pos = _ordering_positions(m)
    idx = np.zeros(group.shape[1], dtype=np.int64)
    for i in range(n):
        idx *= m * m
        idx += pos[group[2 * i], group[2 * i + 1]]
    return idx


def _associated_basis(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """c_g = |tr(E_g P)|^2 / K^2 for the projector P onto the rows of V.

    With Q = conj(V)^T V = P^T, tr(E_g P) = sum_{r,c} E_g[r, c] Q[r, c], and
    E_g = (x)_i E_{g_i} factorizes over the (r_i, c_i) index pairs: with Q's
    axes interleaved to (r_1, c_1, ..., r_n, c_n), all traces are one
    contraction of the (m^2, m^2) matrix E_g[r, c] along each pair axis.
    """
    m, n = code.m, code.n
    v = code.body.vectors
    k = v.shape[0]
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
    re /= k * k
    im[...] = 0.0
    return AlgebraElement(m, n, t)


def associated_element(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """The algebra element encoding the code (c_0 is always 1).

    Stabilizer input: indicator of the generated index subgroup (with the
    phase check of `stabilizer_group`).  Basis input: |tr(E_g P)|^2 / K^2
    for every label in one axis contraction, under any nice error basis.
    """
    m, n = code.m, code.n
    if isinstance(code.body, StabilizerGenerators):
        idx = _group_indices(stabilizer_group(sys, code), m, n)
        coeffs = np.zeros((m * m) ** n, dtype=np.complex128)
        coeffs[idx] = 1.0
        return AlgebraElement(m, n, coeffs)
    validate_code(code)
    return _associated_basis(sys, code)


def dual_element(sys: PhaseSystem, code: CodeSpec) -> AlgebraElement:
    """C', the transform of the associated element, for every input kind.

    For basis input it equals (1/K) sum_{i,j} |<v_i|E_h|v_j>|^2, which the
    dense-matrix oracle computes directly to certify this route.
    """
    return transform(sys, associated_element(sys, code))


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
    raise NoDistance(
        "no coefficient distinguishes the element from its transform"
        if k > 1 else "element has no support off the identity"
    )


def _pair_report(code: CodeSpec, k: int, mass: float, a: Sequence, b: Sequence,
                 path: str) -> AnalysisReport:
    """The report of the Hamming pair (A, A') = (a, b), with d and purity
    decided on `a` and `b` as given (Python ints on the exact route)."""
    d, pure = _distance_and_purity(a, b, k)
    return AnalysisReport(
        K=k, d=d, pure=pure, mass=mass,
        primary_distribution=HammingDistribution(code.m, code.n, np.array(a, dtype=np.complex128)),
        dual_distribution=HammingDistribution(code.m, code.n, np.array(b, dtype=np.complex128)),
        path=path,
    )


def _analyze_exact(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """K, d, purity, A and A' of a stabilizer code from the elements of S."""
    m, n = code.m, code.n
    group = stabilizer_group(sys, code)
    size = group.shape[1]
    if m ** n % size:
        raise NonIntegerDimension(f"m^n / M = {m ** n / size!r} is not an integer")
    # one coordinate at a time, so no (n, |S|) temporary joins S at the peak
    weights = np.zeros(size, dtype=np.min_scalar_type(n))
    for i in range(n):
        weights += (group[2 * i] | group[2 * i + 1]) != 0
    del group
    a = [int(x) for x in np.bincount(weights, minlength=n + 1)]
    b = macwilliams_terms(a, m * m, n)  # t9 times |S|; dividing by |S| is exact for a group
    if any(x % size for x in b):
        raise ArithmeticError(f"t9 image of a group of order {size} is not integral: {b}")
    return _pair_report(code, m ** n // size, float(size), a, [x // size for x in b], "exact")


def analyze(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """Extract K, d, and purity: exactly from the stabilizer group for
    stabilizer input, from the associated element and t9 otherwise."""
    if isinstance(code.body, StabilizerGenerators):
        return _analyze_exact(sys, code)
    c = associated_element(sys, code)
    dist = hamming_distribution(c)
    return _pair_report(code, code.body.vectors.shape[0], c.mass.real, dist.a,
                        macwilliams_hamming(dist, c.mass), "dense")


def check_cs_ordering(sys: PhaseSystem, code: CodeSpec) -> CheckReport:
    """Cauchy-Schwarz consequence: c_g <= c'_g (up to tolerance) everywhere."""
    c = associated_element(sys, code)
    c_dual = transform(sys, c)
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
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    dim = m ** n
    if not 1 <= k <= dim:
        raise ValueError(f"need 1 <= K <= {dim}, got {k}")
    for attempt in range(16):
        rng = np.random.default_rng(seed + attempt)
        mat = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        q, r = np.linalg.qr(mat)
        if np.abs(np.diag(r)).min() > 1e-8:
            return CodeSpec.from_basis(m, n, q.T.conj())
    raise RuntimeError(f"rank-deficient draws for seeds {seed}..{seed + 15}")
