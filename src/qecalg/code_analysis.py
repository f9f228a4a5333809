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

  exact (stabilizer input)  the generators are reduced to Howell form over
      Z_m (Howell 1986; Storjohann-Mulders 1998), rows h_k of orders t_k
      with every element of S equal to sum_k c_k h_k, 0 <= c_k < t_k, in
      exactly one way.  S is then streamed, never stored: a table of the
      combinations of the last rows (at most _BLOCK elements) plus one
      offset per combination of the others.  A_w counts the elements of
      weight w block by block, and A' = B comes from the Hamming identity
      (t9) in integer arithmetic,
          B(x, y) = (1/|S|) A(x + (m^2 - 1) y, x - y);
      no array of m^(2n) coefficients is built, and memory is O(n _BLOCK).
      t9 holds for every nice error basis (the kernel rows sum to zero,
      lemma 1), so these numbers do not depend on the basis.  Phased
      generators are checked on their powers and on the relation words
      that one Howell form of [G | I] yields (see `_index_group`).
  dense (basis input)  C is built once, A is its Hamming distribution and
      A' comes from t9 in floating point; the transform C' is never built.

K comes from S or V, and d and purity from the Hamming pair (A, A'):

    K    = m^n / |S|  (exact route), the row count of V (dense route)
    d    = min weight where c_g != c'_g       (K > 1)
         = min{w >= 1 : B_w > A_w}            (c <= c' entrywise, so B_w > A_w
                                               iff some weight-w coefficient differs)
           min{w >= 1 : A_w > 0}              (K = 1; c >= 0)
    pure = A_w = 0 for every 0 < w < d.

Generator rows and `pauli_label` spell Z_m x Z_m in (a, b) exponent pairs;
the exact route turns them into ordering indices (`position`) once.

Both routes end in `_pair_report`; on the exact route's integers every
comparison is exact, on the dense route's floats it uses COEFF_TOL.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import PHASE_TOL, PhaseSystem
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
from .group_algebra import AlgebraElement, array_length, transform
from .reports import CheckReport

COEFF_TOL = 1e-9

# S is streamed in blocks of at most this many elements (the stored combinations
# of the low Howell rows)
_BLOCK = 1 << 16

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
            v = np.array(body.vectors, dtype=np.complex128, order="C")
            if v.ndim != 2 or v.shape[1] != m ** n:
                raise ValueError(f"expected vectors of shape (K, {m ** n})")
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
        raise InconsistentStabilizers(
            f"{what} is exp(2*pi*i*{turn:.6g}) times the identity: "
            "the group holds a multiple of the identity")


def _howell_form(gens: np.ndarray, m: int):
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
    rows = mat[:k]
    return rows, m // rows[np.arange(k), cols]


def _word_phase(mats: np.ndarray, lam: np.ndarray, c: np.ndarray) -> complex:
    """The scalar s of prod_k (lam_k E_{g_k})^{c_k} = s I for a word c with
    sum_k c_k g_k = 0, where mats[k] holds the (n, m, m) qudit matrices of
    E_{g_k}: the product of the lam_k^{c_k} and, qudit by qudit, of the
    matrix powers, each product a multiple of I."""
    word = np.eye(mats.shape[-1])
    for k in np.flatnonzero(c):
        word = word @ np.linalg.matrix_power(mats[k], int(c[k]))
    return np.prod(lam ** c) * np.prod(word[..., 0, 0])


def _index_group(sys: PhaseSystem, code: CodeSpec) -> tuple[np.ndarray, np.ndarray]:
    """The index group S as two tables of per-qudit ordering indices:
    `low`, (n, L) with L <= _BLOCK, the combinations of the last Howell rows,
    and `high`, (n, |S| / L), those of the others.  Every element of S is
    low[:, j] + high[:, k] (added qudit by qudit in Z_m x Z_m) for exactly
    one (j, k), so S is streamed in |S| / L blocks and never stored.

    S's Howell rows are read off one Howell form of [G | I]: they are its
    rows [h | c] with a pivot in G's columns, and the others, [0 | c], are
    words that generate every relation sum_k c_k g_k = 0.  Phased codes are
    checked on them: each operator lam_k E_{g_k} must have order dividing m,
    and each relation word must give the identity itself."""
    gens = code.body.rows
    if sys.m != code.m:
        raise ShapeMismatch(f"system has m={sys.m}, code has m={code.m}")
    m, n = code.m, code.n
    rows, orders = _howell_form(np.hstack([gens, np.eye(len(gens), dtype=gens.dtype)]), m)
    span = np.count_nonzero(rows[:, :2 * n].any(axis=1))  # rows pivoting in G come first
    if code.body.phases is not None:
        lam = np.array([np.exp(1j * np.pi * p / m) for p in code.body.phases])
        mats = sys.matrices[sys.ordering.position[gens[:, 0::2], gens[:, 1::2]]]
        powers = lam ** m * np.linalg.matrix_power(mats, m)[..., 0, 0].prod(axis=1)
        for k, x in enumerate(powers):
            _require_identity(x, f"generator {k} to the power {m}")
        for c in rows[span:, 2 * n:]:
            _require_identity(_word_phase(mats, lam, c), "a product of the generators")
    rows, orders = rows[:span, :2 * n], orders[:span]
    plus = sys.ordering.add_table
    # the ordering indices of every multiple: codes[k, :, t] is t h_k, and each
    # index array below is C-ordered, so that every table comes out C-ordered
    t = np.arange(m)
    codes = sys.ordering.position[rows[:, 0::2, None] * t % m,
                                  rows[:, 1::2, None] * t % m].astype(plus.dtype)

    def combinations(ks) -> np.ndarray:
        out = np.zeros((n, 1), dtype=plus.dtype)
        for k in ks:
            out = plus[out[:, None, :], codes[k, :, :orders[k], None]].reshape(n, -1)
        return out

    split, size = len(orders), 1
    while split and size * orders[split - 1] <= _BLOCK:
        split -= 1
        size *= int(orders[split])
    return combinations(range(split, len(orders))), combinations(range(split))


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
    phase check of `_index_group`), scattered block by block.  Basis input:
    |tr(E_g P)|^2 / K^2 for every label in one axis contraction, under any
    nice error basis.
    """
    m, n = code.m, code.n
    if isinstance(code.body, StabilizerGenerators):
        low, high = _index_group(sys, code)
        q, plus = m * m, sys.ordering.add_table
        coeffs = np.zeros(q ** n, dtype=np.complex128)
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
    raise NoDistance(
        "no coefficient distinguishes the element from its transform"
        if k > 1 else "element has no support off the identity"
    )


def _pair_report(k: int, mass: float, a: HammingDistribution, b: HammingDistribution,
                 path: str) -> AnalysisReport:
    """The report of the Hamming pair (A, A') = (a, b), with d and purity
    decided on their exact integers where they carry them (the exact route)."""
    d, pure = _distance_and_purity(a.exact or a.a, b.exact or b.a, k)
    return AnalysisReport(K=k, d=d, pure=pure, mass=mass,
                          primary_distribution=a, dual_distribution=b, path=path)


def _analyze_exact(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """K, d, purity, A and A' of a stabilizer code, with S streamed in blocks."""
    m, n = code.m, code.n
    low, high = _index_group(sys, code)
    size = low.shape[1] * high.shape[1]
    if m ** n % size:
        raise NonIntegerDimension(f"m^n / M = {m ** n / size!r} is not an integer")
    # a qudit of low + offset is nonzero iff its low index differs from that of -offset
    neg = sys.ordering.neg_table
    counts = np.zeros(n + 1, dtype=np.int64)
    weight = np.min_scalar_type(n)
    for minus in neg[high].T:
        differs = (low != minus[:, None]).view(np.uint8)  # summing bytes skips a cast per entry
        counts += np.bincount(differs.sum(axis=0, dtype=weight), minlength=n + 1)
    a = [int(x) for x in counts]
    b = macwilliams_terms(a, m * m, n)  # t9 times |S|; dividing by |S| is exact for a group
    if any(x % size for x in b):
        raise ArithmeticError(f"t9 image of a group of order {size} is not integral: {b}")
    a, b = (HammingDistribution.of_ints(m, n, x) for x in (a, [x // size for x in b]))
    return _pair_report(m ** n // size, float(size), a, b, "exact")


def analyze(sys: PhaseSystem, code: CodeSpec) -> AnalysisReport:
    """Extract K, d, and purity: exactly from the stabilizer group for
    stabilizer input, from the associated element and t9 otherwise."""
    if isinstance(code.body, StabilizerGenerators):
        return _analyze_exact(sys, code)
    c = associated_element(sys, code)
    dist = hamming_distribution(c)
    dual = HammingDistribution(code.m, code.n, macwilliams_hamming(dist, c.mass))
    return _pair_report(code.body.vectors.shape[0], c.mass.real, dist, dual, "dense")


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
