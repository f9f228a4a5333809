"""Nice error bases with Abelian index group Z_m x Z_m.

The built-in family is the generalized Pauli basis E_(a,b) = X^a Z^b with
X|j> = |j+1 mod m> and Z|j> = w^j |j>, w = exp(2*pi*i/m).  Its phase table
obeys E_g E_h = w^(b*c) E_(g+h) for g = (a,b), h = (c,d), and the character
kernel entry is

    kernel[h, g] = w_{hg} * conj(w_{gh}) = exp(2*pi*i*(d*a - b*c)/m),

the per-coordinate factor of every character used downstream.  User-supplied
bases are accepted as explicit matrices: their phase table is extracted by
traces, a row g at a time from the batched products E_g E_h, and checked,
with the matrices, against the defining axioms.  No check loops over pairs.

Z_m x Z_m has one owner, `canonical_ordering`, and one representation, the
ordering index i of alpha_i; (a, b) exponent pairs appear only at the edges.

The axioms, unitarity among them, have one checker, `verify_basis_axioms`:
`validate_custom_basis` runs it once on every custom basis, raises from its
report and keeps that report on the system it returns, which `qecalg verify
--identity axioms` prints for a file-given basis; the built-in basis is
checked when asked.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class GroupOrdering:
    """A fixed enumeration alpha_0, ..., alpha_{m^2-1} of Z_m x Z_m.

    alpha_0 is always the identity.  For odd m the tail is arranged so that
    alpha_{m^2-i} = -alpha_i for 1 <= i <= (m^2-1)/2, which is what the Lee
    enumerator needs.  `order`, a read-only (m^2, 2) intp array, holds in row
    i the exponents (a, b) of alpha_i, and `position`, an (m, m) array, is its
    inverse, the ordering index of (a, b): the one numbering of Z_m x Z_m,
    from which every flat label index is built, by scalar arithmetic that
    would wrap in a small dtype, so it stays intp.  No table of pairs is
    kept: `add` forms alpha_i + alpha_j from the two O(m^2) arrays, and for
    odd m -alpha_i is alpha_{(m^2 - i) mod m^2}.
    """

    m: int
    order: np.ndarray
    position: np.ndarray

    @property
    def size(self) -> int:
        return self.m * self.m

    def add(self, i, j) -> np.ndarray:
        """The ordering index of alpha_i + alpha_j, broadcast over index arrays i and j."""
        total = (self.order[i] + self.order[j]) % self.m
        return self.position[total[..., 0], total[..., 1]]


@lru_cache(maxsize=None)
def canonical_ordering(m: int) -> GroupOrdering:
    """The package-wide ordering convention for Z_m x Z_m, in O(m^2) tables.

    Even m: plain row-major (a, b).  Odd m: identity first, then the
    lexicographically smaller member of each {g, -g} pair in lex order,
    then their negations in mirrored positions; the one check of m >= 2.
    """
    if m < 2:
        raise ValueError(f"m must be >= 2, got {m}")
    q = m * m
    flat = np.arange(q)  # a * m + b, so flat order is lexicographic (a, b) order
    if m % 2 == 0:
        codes = flat
    else:
        neg = (-(flat // m) % m) * m + (-flat % m)
        reps = flat[flat < neg]  # the smaller of each {g, -g}; odd m has no g = -g != 0
        codes = np.concatenate([[0], reps, neg[reps[::-1]]])
    order = np.stack(np.divmod(codes, m), axis=1)
    position = np.argsort(codes).reshape(m, m)  # the inverse permutation: (a, b) -> index
    for table in (order, position):
        table.setflags(write=False)
    return GroupOrdering(m=m, order=order, position=position)


@dataclass(frozen=True, eq=False)
class PhaseSystem:
    """A nice error basis reduced to its numerical data; m is its ordering's.

    omega[i, j]  = w_{alpha_i alpha_j}  (phase in E_i E_j = w * E_{i+j})
    kernel[h, g] = w_{hg} * conj(w_{gh}), the per-coordinate character value,
                   computed from omega when the system is made (no argument,
                   so a dataclasses.replace copy with a new omega has its own)
    matrices     = the m^2 single-system unitaries realizing the basis,
                   indexed in ordering order; code analysis contracts them
                   directly, so every nice error basis takes the same route.
    axioms       = the axiom report `validate_custom_basis` formed, else None;
                   the arrays are read-only, so it holds for the system's
                   life, and a dataclasses.replace copy starts without it.
    The constructor, the only one, makes the three arrays read-only in place.
    """

    omega: np.ndarray
    kernel: np.ndarray = field(init=False)
    ordering: GroupOrdering
    matrices: np.ndarray
    axioms: CheckReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        kernel = self.omega * np.conj(self.omega.T)
        for arr in (self.omega, kernel, self.matrices):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)  # frozen: set once, while being made

    @property
    def m(self) -> int:
        return self.ordering.m

    @property
    def q(self) -> int:
        return self.ordering.size


def _roots_of_unity(m: int) -> np.ndarray:
    """exp(2*pi*i*k/m) for k = 0..m-1, with components snapped to exact
    0 / +-1 when within 1e-12 so that binary systems stay integer-exact."""
    parts = np.exp(2j * np.pi * np.arange(m) / m).view(np.float64)  # (re, im) pairs
    for target in (0.0, 1.0, -1.0):
        parts[np.abs(parts - target) < 1e-12] = target
    return parts.view(np.complex128)


def pauli_phase(ordering: GroupOrdering, i, j) -> np.ndarray:
    """omega[i, j] = w^(b_i * a_j) of the generalized Pauli basis, over index arrays i and j."""
    return _roots_of_unity(ordering.m)[ordering.order[i, 1] * ordering.order[j, 0] % ordering.m]


@lru_cache(maxsize=None)
def build_pauli_system(m: int) -> PhaseSystem:
    """Construct the generalized Pauli nice error basis for m levels, once
    per m (its arrays are read-only).

    Raises ValueError for m < 2.
    """
    ordering = canonical_ordering(m)
    roots = _roots_of_unity(m)
    a, b = ordering.order.T  # the X and Z exponents by ordering index
    omega = pauli_phase(ordering, np.arange(m * m)[:, None], np.arange(m * m))
    # the matrices E_(a,b)|j> = w^(b*j) |j+a mod m>, one per ordering index
    j = np.arange(m)
    mats = np.zeros((m * m, m, m), dtype=np.complex128)
    mats[np.arange(m * m)[:, None], (j + a[:, None]) % m, j] = roots[b[:, None] * j % m]
    return PhaseSystem(omega=omega, ordering=ordering, matrices=mats)


def verify_kernel_row_sums(sys: PhaseSystem) -> CheckReport:
    """Check that sum_g w_{gh} * conj(w_{hg}) = 0 for every nonzero h; a NaN
    fails, and `failures` are the h indices whose sums do not vanish."""
    sums = sys.kernel.sum(axis=1)  # entry h: sum over g
    report = CheckReport.from_residuals("kernel-row-sums", np.abs(sums[1:]), PHASE_TOL,
                                        label=lambda h: h + 1)
    return report if report.passed else replace(
        report, detail=f"nonzero row sums at h indices {report.failures}")


def verify_basis_axioms(sys: PhaseSystem, products: np.ndarray | None = None) -> CheckReport:
    """Check E_g E_g^dag = I, E_0 = I, tr E_g = m * delta(g,0) and
    E_g E_h = w_{gh} E_{g+h} with |w_{gh}| = 1 on the stored matrices and
    omega table.  Failures are ("unitary", i), ("identity", 0), ("trace", i),
    ("closure", i, j) in that order; a NaN fails.  `products[i, j]` = E_i E_j
    may be passed in when the caller has formed them; without them a system
    from `validate_custom_basis` gets the report that validation formed.  The
    residuals are one array in that order, the closure ones formed a row i at
    a time from products[i]; np.hypot takes the moduli of single values."""
    m, q = sys.m, sys.q
    mats, omega, every = sys.matrices, sys.omega, np.arange(q)
    if products is None:
        if sys.axioms is not None:
            return sys.axioms
        products = mats[:, None] @ mats[None, :]
    unitary = np.abs(mats @ mats.conj().transpose(0, 2, 1) - np.eye(m)).max(axis=(1, 2))
    traces = np.trace(mats, axis1=1, axis2=2)
    traces[0] -= m
    closure = np.empty((q, q))
    for i in range(q):
        closure[i] = np.abs(products[i] - omega[i, :, None, None]
                            * mats[sys.ordering.add(i, every)]).max(axis=(1, 2))
    np.maximum(closure, np.abs(np.hypot(omega.real, omega.imag) - 1.0), out=closure)
    residuals = np.concatenate([unitary, [np.abs(mats[0] - np.eye(m)).max()],
                                np.hypot(traces.real, traces.imag), closure.ravel()])
    return CheckReport.from_residuals(
        "basis-axioms", residuals, PHASE_TOL,
        label=lambda k: (("unitary", k) if k < q else ("identity", 0) if k == q
                         else ("trace", k - q - 1) if k <= 2 * q
                         else ("closure", *divmod(k - 2 * q - 1, q))))


def validate_custom_basis(matrices: Sequence[np.ndarray]) -> PhaseSystem:
    """Accept a user-supplied nice error basis given as explicit matrices.

    `matrices` must contain exactly m^2 unitary m x m matrices, indexed by
    group elements in canonical ordering order.  Checks, in order:
    `verify_basis_axioms` on the phase table w_{gh} = tr(E_{g+h}^dag E_g E_h)/m
    (unitarity, E_0 = I, traces, closure), then the vanishing row sums of the
    phase kernel.  The first failure raises the matching exception naming the
    offending indices; a NaN anywhere fails.  All E_g E_h are formed in one
    batched matmul, which the axiom check reuses, and omega row by row; the
    returned system keeps the axiom report.
    """
    mats = np.array(matrices, dtype=np.complex128)  # a copy: the system owns it
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError("expected a sequence of square matrices")
    m = mats.shape[1]
    ordering = canonical_ordering(m)
    q = m * m
    if mats.shape[0] != q:
        raise ValueError(f"expected m^2 = {q} matrices, got {mats.shape[0]}")
    add, every = ordering.add, np.arange(q)
    adjoints = mats.conj().transpose(0, 2, 1)

    omega = np.empty((q, q), dtype=np.complex128)
    with np.errstate(invalid="ignore", over="ignore"):  # the checker fails a non-finite value
        products = mats[:, None] @ mats[None, :]
        for g in range(q):
            omega[g] = np.trace(adjoints[add(g, every)] @ products[g], axis1=1, axis2=2) / m
        sys = PhaseSystem(omega=omega, ordering=ordering, matrices=mats)
        axioms = verify_basis_axioms(sys, products)
    if not axioms.passed:
        kind, i, *rest = axioms.failures[0]
        element = f"(element {tuple(ordering.order[i].tolist())})"
        if kind == "unitary":
            raise NonUnitary(f"matrix {i} {element} is not unitary")
        if kind == "identity":
            raise IdentityViolation("matrix 0 is not the identity")
        if kind == "trace":
            expected = m if i == 0 else 0.0
            raise TraceViolation(
                f"tr E_{i} = {np.trace(mats[i]):.6g}, expected {expected} {element}")
        (j,) = rest
        raise ClosureViolation(f"E_{i} E_{j} is not a unit phase times E_{int(add(i, j))}")
    report = verify_kernel_row_sums(sys)
    if not report.passed:
        raise RowSumViolation(report.detail)
    object.__setattr__(sys, "axioms", axioms)  # frozen: set once, before anyone sees sys
    return sys
