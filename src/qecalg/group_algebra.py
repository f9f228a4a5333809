"""The group algebra over (Z_m x Z_m)^n: elements, ring operations, transform.

An element C = sum_g c_g z^g is stored as a dense complex array of length
m^(2n).  The flat index encodes the label g = (g_1, ..., g_n) coordinate-
major (first coordinate most significant), each digit being the position of
g_i in the canonical GroupOrdering.  The transform

    c'_h = (1/M) * sum_g c_g * prod_i kernel[h_i, g_i],    M = sum_g c_g

is the kernel matrix applied along each of the n axes, cost
O(n * m^2 * m^(2n)); the direct double summation that certifies it lives in
`oracle.transform_naive`.

Sums over labels (by Hamming weight, by composition, or weighted by a
product of per-coordinate values) are reduced one axis at a time on the
coefficients viewed as an (m^2,) * n tensor; no per-label table is built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from . import kernel as _kernel
from .error_basis import GroupElement, PhaseSystem, build_pauli_system, canonical_ordering
from .errors import QecalgError, ShapeMismatch, ZeroMass
from .reports import CheckReport

# |M| below this is treated as "mass is zero" (double-precision noise floor
# for O(1) coefficients).
MASS_TOL = 1e-12

# coefficients per slice when a residual is formed piecewise
_RESIDUAL_SLICE = 1 << 16


def weight_reduce(values: np.ndarray, q: int, n: int) -> np.ndarray:
    """(n + 1,) array: the sum of `values` over the labels of each Hamming weight.

    `values` is a flat array of length q^n in label order.  One axis at a
    time, the slice at digit 0 keeps its weight and the sum over the nonzero
    digits moves up one weight, so no per-label table is built.
    """
    acc = values.reshape(1, -1)
    with np.errstate(over="ignore", invalid="ignore"):  # the callers judge a non-finite sum
        for _ in range(n):
            acc = acc.reshape(acc.shape[0], q, -1)
            out = np.zeros((acc.shape[0] + 1, acc.shape[2]), dtype=acc.dtype)
            out[:-1] = acc[:, 0]
            out[1:] += acc[:, 1:].sum(axis=1)
            acc = out
    return acc.reshape(n + 1)


def label_sums(table: np.ndarray, n: int) -> np.ndarray:
    """Flat array over all labels g of sum_i table[g_i], one axis at a time."""
    out = table
    for _ in range(n - 1):
        out = np.add.outer(out, table).reshape(-1)
    return out


def contract_axes(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(T,) array: sum_g values[g] * prod_i vectors[t, i, g_i] for each t.

    `vectors` is a stacked (T, n, s) array; axis i of `values` is contracted
    with vectors[:, i] (first coordinate first).  Up to s trials go at a time:
    one GEMM over the first axis, whose (trials, s^(n-1)) output is never
    larger than `values`, then one batched matmul per remaining axis.
    """
    count, n, s = vectors.shape
    out = np.empty(count, dtype=np.result_type(values, vectors))
    for start in range(0, count, s):
        v = vectors[start:start + s]
        t = v[:, 0] @ values.reshape(s, -1)
        for i in range(1, n):
            t = np.matmul(v[:, i, None], t.reshape(len(v), s, -1))
        out[start:start + s] = t.reshape(-1)
    return out


def encode_label(m: int, label: Sequence[GroupElement]) -> int:
    """Flat coefficient index of a label (g_1, ..., g_n)."""
    ordering = canonical_ordering(m)
    idx = 0
    for g in label:
        idx = idx * ordering.size + ordering.index_of(g)
    return idx


def decode_index(m: int, n: int, idx: int) -> tuple[GroupElement, ...]:
    """Inverse of encode_label."""
    ordering = canonical_ordering(m)
    out = []
    for _ in range(n):
        out.append(ordering.order[idx % ordering.size])
        idx //= ordering.size
    return tuple(reversed(out))


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """Dense element of the group algebra.

    The element owns the coefficient array it is given: a contiguous complex128
    array is kept as is, not copied, and marked read-only, so the caller's
    array becomes read-only too.  Any other input is converted once.
    """

    m: int
    n: int
    coeffs: np.ndarray
    mass: complex = field(init=False)

    def __post_init__(self):
        if self.m < 2 or self.n < 1:
            raise ValueError(f"need m >= 2 and n >= 1, got m={self.m}, n={self.n}")
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        size = (self.m * self.m) ** self.n
        if c.shape != (size,):
            raise ValueError(f"expected {size} coefficients, got shape {c.shape}")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        with np.errstate(over="ignore", invalid="ignore"):  # the callers judge a non-finite sum
            object.__setattr__(self, "mass", complex(c.sum()))

    @property
    def size(self) -> int:
        return self.coeffs.shape[0]

    @classmethod
    def zero(cls, m: int, n: int) -> "AlgebraElement":
        return cls(m, n, np.zeros((m * m) ** n, dtype=np.complex128))

    @classmethod
    def indicator(cls, m: int, n: int, labels: Iterable) -> "AlgebraElement":
        """Element with coefficient 1 at each given label (or flat index)."""
        c = np.zeros((m * m) ** n, dtype=np.complex128)
        for lab in labels:
            idx = lab if isinstance(lab, (int, np.integer)) else encode_label(m, lab)
            c[idx] = 1.0
        return cls(m, n, c)

    @classmethod
    def unit(cls, m: int, n: int) -> "AlgebraElement":
        """z^0, the multiplicative identity."""
        return cls.indicator(m, n, [0])


def _check_shapes(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.m != b.m or a.n != b.n:
        raise ShapeMismatch(
            f"(m={a.m}, n={a.n}) vs (m={b.m}, n={b.n})"
        )


def add(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    _check_shapes(a, b)
    return AlgebraElement(a.m, a.n, a.coeffs + b.coeffs)


def scale(r: complex, a: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(a.m, a.n, r * a.coeffs)


@lru_cache(maxsize=None)
def _character_table(m: int) -> np.ndarray:
    """A nondegenerate character table of Z_m x Z_m in ordering order (the
    generalized Pauli kernel); transforming twice with it multiplies by m^2."""
    return build_pauli_system(m).kernel


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Group convolution: out[k] = sum over g+h = k of a_g * b_h.

    Characters are homomorphisms, chi_h(A B) = chi_h(A) chi_h(B), so the
    product is the pointwise product of the unnormalised transforms, taken
    back by one more kernel pass and scaled by 1/m^(2n) (the double-transform
    identity).  When one operand has at most m^2 terms it is cheaper to shift
    the other term by term, and exact: z^g z^h = z^(g+h) holds bit for bit.
    """
    _check_shapes(a, b)
    if np.count_nonzero(b.coeffs) < np.count_nonzero(a.coeffs):
        a, b = b, a
    if np.count_nonzero(a.coeffs) <= a.m * a.m:
        return AlgebraElement(a.m, a.n, _shifted_sum(a, b))
    kernel = _character_table(a.m)
    product = _kernel.apply_axiswise(kernel, a.coeffs, a.n)
    product *= _kernel.apply_axiswise(kernel, b.coeffs, b.n)
    out = _kernel.apply_axiswise(kernel, product, a.n)
    out /= a.size
    return AlgebraElement(a.m, a.n, out)


def _shifted_sum(a: AlgebraElement, b: AlgebraElement) -> np.ndarray:
    """sum over the support of a of a_g * (b shifted by g), where the shift
    permutes each axis by k -> index of (alpha_k - alpha_{g_i})."""
    ordering = canonical_ordering(a.m)
    shape = (ordering.size,) * a.n
    minus = ordering.add_table[:, ordering.neg_table].T  # minus[d, k]: alpha_k - alpha_d
    tensor = b.coeffs.reshape(shape)
    out = np.zeros(a.size, dtype=np.complex128)
    for idx in np.nonzero(a.coeffs)[0]:
        shifted = tensor
        for axis, d in enumerate(np.unravel_index(idx, shape)):
            if d:
                shifted = np.take(shifted, minus[d], axis=axis)
        out += a.coeffs[idx] * shifted.reshape(-1)
    return out


def checked_mass(mass: complex, values: np.ndarray) -> complex:
    """`mass`, the sum of `values`, once it is fit to divide by.  A
    (numerically) zero mass raises ZeroMass.  An inf or nan mass, which
    would make every quotient nan, raises QecalgError unless a value is nan
    already: that nan runs through, so a check on it fails, not raises."""
    if not cmath.isfinite(mass) and not np.isnan(values).any():
        raise QecalgError(f"mass {mass} is not finite: the coefficient sum overflows")
    if abs(mass) <= MASS_TOL:
        raise ZeroMass(f"|mass| = {abs(mass):.3e} <= {MASS_TOL}")
    return mass


def transform(sys: PhaseSystem, a: AlgebraElement) -> AlgebraElement:
    """C' = (1/M) sum_h chi_h(C) z^h, the MacWilliams-type transform of C."""
    if sys.m != a.m:
        raise ShapeMismatch(f"system has m={sys.m}, element has m={a.m}")
    mass = checked_mass(a.mass, a.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _kernel.apply_axiswise(sys.kernel, a.coeffs, a.n)
        out /= mass
    dual = AlgebraElement(a.m, a.n, out)
    if cmath.isfinite(mass) and not cmath.isfinite(dual.mass):  # an inf or nan in C'
        raise QecalgError(f"the transform overflows: the mass of C' is {dual.mass}")
    return dual


def double_transform_scaling_check(sys: PhaseSystem, a: AlgebraElement) -> CheckReport:
    """Verify transform(transform(A)) = (m^(2n) / (M * M')) * A elementwise.

    Only M' of the first transform outlives the second, and the residual is
    formed a slice at a time, so no full-size temporary is built for it.
    """
    first = transform(sys, a)
    scale_factor = a.size / (a.mass * first.mass)
    second = transform(sys, first).coeffs
    del first
    step = _RESIDUAL_SLICE
    parts = [np.abs(second[s:s + step] - scale_factor * a.coeffs[s:s + step]).max()
             for s in range(0, a.size, step)]
    resid = float(np.max(parts))
    return CheckReport(
        name="double-transform",
        passed=resid <= 1e-9,
        max_residual=resid,
    )


def random_element(
    m: int, n: int, seed: int, nonneg: bool = False
) -> AlgebraElement:
    """Seeded random element with mass bounded away from zero.

    nonneg=True draws uniform [0, 1) reals (code-like coefficients); the
    default draws complex Gaussians, redrawing until |mass| > 0.5.
    """
    rng = np.random.default_rng(seed)
    size = (m * m) ** n
    if nonneg:
        return AlgebraElement(m, n, rng.random(size).astype(np.complex128))
    for _ in range(64):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if abs(c.sum()) > 0.5:
            return AlgebraElement(m, n, c)
    raise RuntimeError("could not draw an element with nonzero mass")
