"""Nice error bases with Abelian index group Z_m x Z_m.

The built-in family is the generalized Pauli basis E_(a,b) = X^a Z^b with
X|j> = |j+1 mod m> and Z|j> = w^j |j>, w = exp(2*pi*i/m).  Its phase table
obeys E_g E_h = w^(b*c) E_(g+h) for g = (a,b), h = (c,d), and the character
kernel entry is

    kernel[h, g] = w_{hg} * conj(w_{gh}) = exp(2*pi*i*(d*a - b*c)/m),

the per-coordinate factor of every character used downstream.  User-supplied
bases are accepted as explicit matrices: their phase table is extracted by
traces and checked, with the matrices, against the defining axioms.

The axioms have one checker, `verify_basis_axioms`: `validate_custom_basis`
runs it on every custom basis, and `qecalg verify --identity axioms` reports
it for the built-in or a file-given basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    ClosureViolation,
    IdentityViolation,
    RowSumViolation,
    NonUnitary,
    TraceViolation,
)
from .reports import CheckReport

# Absolute tolerance for unit-phase and identity checks on O(1) values.
PHASE_TOL = 1e-9


class GroupElement(NamedTuple):
    """Element (a, b) of Z_m x Z_m: X-exponent a, Z-exponent b."""

    a: int
    b: int


@dataclass(frozen=True, eq=False)
class GroupOrdering:
    """A fixed enumeration alpha_0, ..., alpha_{m^2-1} of Z_m x Z_m.

    alpha_0 is always the identity.  For odd m the tail is arranged so that
    alpha_{m^2-i} = -alpha_i for 1 <= i <= delta = (m^2-1)/2, which is what
    the Lee enumerator needs; `lee_delta` is None for even m.  `position`,
    an (m, m) array, is the ordering index of (a, b), and `add_table` and
    `neg_table` translate group arithmetic into ordering indices.
    """

    m: int
    order: tuple[GroupElement, ...]
    lee_delta: int | None
    index: dict
    position: np.ndarray
    add_table: np.ndarray
    neg_table: np.ndarray

    @property
    def size(self) -> int:
        return self.m * self.m

    def index_of(self, g: GroupElement) -> int:
        return self.index[GroupElement(g[0] % self.m, g[1] % self.m)]


@lru_cache(maxsize=None)
def canonical_ordering(m: int) -> GroupOrdering:
    """The package-wide ordering convention for Z_m x Z_m.

    Even m: plain row-major (a, b).  Odd m: identity first, then the
    lexicographically smaller member of each {g, -g} pair in lex order,
    then their negations in mirrored positions.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    q = m * m
    flat = np.arange(q)  # a * m + b, so flat order is lexicographic (a, b) order
    neg = (-(flat // m) % m) * m + (-flat % m)
    if m % 2 == 0:
        codes = flat
        delta = None
    else:
        reps = flat[flat < neg]  # the smaller of each {g, -g}; odd m has no g = -g != 0
        codes = np.concatenate([[0], reps, neg[reps[::-1]]])
        delta = (q - 1) // 2
    a, b = np.divmod(codes, m)
    order = tuple(map(GroupElement, a.tolist(), b.tolist()))
    index = {g: i for i, g in enumerate(order)}
    pos = np.empty(q, dtype=np.intp)  # flat code -> ordering index
    pos[codes] = np.arange(q)
    add_table = pos[(a[:, None] + a) % m * m + (b[:, None] + b) % m]
    neg_table = pos[neg[codes]]
    position = pos.reshape(m, m)
    for table in (position, add_table, neg_table):
        table.setflags(write=False)
    return GroupOrdering(
        m=m, order=order, lee_delta=delta, index=index, position=position,
        add_table=add_table, neg_table=neg_table,
    )


@dataclass(frozen=True, eq=False)
class PhaseSystem:
    """A nice error basis reduced to its numerical data.

    omega[i, j]  = w_{alpha_i alpha_j}  (phase in E_i E_j = w * E_{i+j})
    kernel[h, g] = w_{hg} * conj(w_{gh}), the per-coordinate character value
    matrices     = the m^2 single-system unitaries realizing the basis,
                   indexed in ordering order; code analysis contracts them
                   directly, so every nice error basis takes the same route.
    """

    m: int
    omega: np.ndarray
    kernel: np.ndarray
    ordering: GroupOrdering
    matrices: np.ndarray

    @property
    def q(self) -> int:
        return self.m * self.m


def _roots_of_unity(m: int) -> np.ndarray:
    """exp(2*pi*i*k/m) for k = 0..m-1, with components snapped to exact
    0 / +-1 when within 1e-12 so that binary systems stay integer-exact."""
    parts = np.exp(2j * np.pi * np.arange(m) / m).view(np.float64)  # (re, im) pairs
    for target in (0.0, 1.0, -1.0):
        parts[np.abs(parts - target) < 1e-12] = target
    return parts.view(np.complex128)


def build_pauli_system(m: int) -> PhaseSystem:
    """Construct the generalized Pauli nice error basis for m levels.

    Raises ValueError for m < 2.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    ordering = canonical_ordering(m)
    roots = _roots_of_unity(m)
    # the X and Z exponents by ordering index
    a, b = np.fromiter(chain.from_iterable(ordering.order), np.intp, 2 * m * m).reshape(-1, 2).T
    omega = roots[b[:, None] * a % m]  # omega[i, j] = w^(b_i * a_j)
    kernel = omega * np.conj(omega.T)
    # the matrices E_(a,b)|j> = w^(b*j) |j+a mod m>, one per ordering index
    j = np.arange(m)
    mats = np.zeros((m * m, m, m), dtype=np.complex128)
    mats[np.arange(m * m)[:, None], (j + a[:, None]) % m, j] = roots[b[:, None] * j % m]
    for arr in (omega, kernel, mats):
        arr.setflags(write=False)
    return PhaseSystem(m=m, omega=omega, kernel=kernel, ordering=ordering, matrices=mats)


def character(sys: PhaseSystem, h: GroupElement, g: GroupElement) -> complex:
    """The per-coordinate character value w_{hg} * conj(w_{gh})."""
    return complex(sys.kernel[sys.ordering.index_of(h), sys.ordering.index_of(g)])


def verify_kernel_row_sums(sys: PhaseSystem) -> CheckReport:
    """Check that sum_g w_{gh} * conj(w_{hg}) = 0 for every nonzero h."""
    q = sys.q
    sums = (sys.omega * np.conj(sys.omega.T)).sum(axis=1)  # entry h: sum over g
    resid = np.abs(sums[1:])
    bad = tuple(int(h) for h in range(1, q) if not abs(sums[h]) <= PHASE_TOL)
    return CheckReport(
        name="kernel-row-sums",
        passed=not bad,
        max_residual=float(resid.max()) if q > 1 else 0.0,
        failures=bad,
        detail="" if not bad else f"nonzero row sums at h indices {bad}",
    )


def verify_basis_axioms(sys: PhaseSystem, products: np.ndarray | None = None) -> CheckReport:
    """Check E_0 = I, tr E_g = m * delta(g,0) and E_g E_h = w_{gh} E_{g+h}
    with |w_{gh}| = 1 on the stored matrices and omega table.  Failures are
    ("identity", 0), ("trace", i), ("closure", i, j) in that order; a NaN fails.
    `products[i, j]` = E_i E_j may be passed in when the caller has formed them."""
    m, q = sys.m, sys.q
    mats, add = sys.matrices, sys.ordering.add_table
    if products is None:
        products = mats[:, None] @ mats[None, :]
    checks = [(("identity", 0), np.abs(mats[0] - np.eye(m)).max())]
    for i in range(q):
        checks.append((("trace", i), abs(np.trace(mats[i]) - (m if i == 0 else 0.0))))
    for i in range(q):
        for j in range(q):
            w = sys.omega[i, j]
            r = np.maximum(np.abs(products[i, j] - w * mats[int(add[i, j])]).max(),
                           abs(abs(w) - 1.0))
            checks.append((("closure", i, j), r))
    residuals = np.array([r for _, r in checks], dtype=float)
    bad = tuple(key for (key, _), r in zip(checks, residuals) if not r <= PHASE_TOL)
    return CheckReport(
        name="basis-axioms",
        passed=not bad,
        max_residual=float(residuals.max()),
        failures=bad,
    )


def validate_custom_basis(matrices: Sequence[np.ndarray]) -> PhaseSystem:
    """Accept a user-supplied nice error basis given as explicit matrices.

    `matrices` must contain exactly m^2 unitary m x m matrices, indexed by
    group elements in canonical ordering order.  Checks, in order: unitarity,
    then `verify_basis_axioms` on the phase table w_{gh} = tr(E_{g+h}^dag E_g E_h)/m
    (E_0 = I, traces, closure), then the vanishing row sums of the phase
    kernel.  The first failure raises the matching exception naming the
    offending indices; a NaN anywhere fails.
    """
    mats = np.asarray(matrices, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a sequence of square matrices")
    m = mats.shape[1]
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    q = m * m
    if mats.shape[0] != q:
        raise ValueError(f"expected m^2 = {q} matrices, got {mats.shape[0]}")
    ordering = canonical_ordering(m)
    eye = np.eye(m)

    for i in range(q):
        if not np.abs(mats[i] @ mats[i].conj().T - eye).max() <= PHASE_TOL:
            raise NonUnitary(f"matrix {i} (element {ordering.order[i]}) is not unitary")

    # every E_i E_j in one batched matmul, bit-identical to one matmul per pair;
    # the axiom check below reuses them
    products = mats[:, None] @ mats[None, :]
    omega = np.empty((q, q), dtype=np.complex128)
    for i in range(q):
        for j in range(q):
            k = int(ordering.add_table[i, j])
            omega[i, j] = np.trace(mats[k].conj().T @ products[i, j]) / m
    kernel = omega * np.conj(omega.T)
    omega.setflags(write=False)
    kernel.setflags(write=False)
    mats = mats.copy()
    mats.setflags(write=False)
    sys = PhaseSystem(m=m, omega=omega, kernel=kernel, ordering=ordering, matrices=mats)

    axioms = verify_basis_axioms(sys, products)
    if not axioms.passed:
        kind, i, *rest = axioms.failures[0]
        if kind == "identity":
            raise IdentityViolation("matrix 0 is not the identity")
        if kind == "trace":
            expected = m if i == 0 else 0.0
            raise TraceViolation(
                f"tr E_{i} = {np.trace(mats[i]):.6g}, expected {expected} "
                f"(element {ordering.order[i]})"
            )
        (j,) = rest
        raise ClosureViolation(
            f"E_{i} E_{j} is not a unit phase times E_{int(ordering.add_table[i, j])}"
        )
    report = verify_kernel_row_sums(sys)
    if not report.passed:
        raise RowSumViolation(report.detail)
    return sys
