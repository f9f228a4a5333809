"""The group algebra over (Z_m x Z_m)^n: elements, ring operations, transform.

An element C = sum_g c_g z^g is stored as a dense complex array of length
m^(2n).  The library names a label g = (g_1, ..., g_n) only by its flat
index: the ordering indices `GroupOrdering.position[a_i, b_i]` of its
coordinates as base-m^2 digits, first coordinate most significant.
np.ravel_multi_index and np.unravel_index over shape (m^2,) * n are the one
spelling of that numbering, from digits to flat index and back.  The transform

    c'_h = (1/M) * sum_g c_g * prod_i kernel[h_i, g_i],    M = sum_g c_g

is the kernel matrix applied along each of the n axes, cost
O(n * m^2 * m^(2n)); the direct double summation that certifies it lives in
`oracle.transform_naive`.

Sums over labels by Hamming weight, or weighted by a product of
per-coordinate values, are reduced one axis at a time on the coefficients
viewed as an (m^2,) * n tensor, with no per-label table.
"""

from __future__ import annotations

import cmath
import operator
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from . import kernel as _kernel
from .error_basis import PhaseSystem, build_pauli_system
from .errors import QecalgError, ShapeMismatch, ZeroMass
from .reports import CheckReport

# |M| below this is treated as "mass is zero" (double-precision noise floor
# for O(1) coefficients).
MASS_TOL = 1e-12

# The largest residual at which an identity check passes.
IDENTITY_TOL = 1e-9

_INTP_MAX = int(np.iinfo(np.intp).max)  # the largest array length


def array_length(m: int, n: int, what: str, power: int = 1) -> int:
    """m^(power * n): the length of the array of `what` of an input with n
    coordinates, refused with a ValueError naming m and n when m < 2 or
    n < 1, or, before the power is formed, when np.intp cannot index it."""
    if m < 2 or n < 1:
        raise ValueError(f"need m >= 2 and n >= 1, got m={m}, n={n}")
    exponent = power * n
    if exponent >= _INTP_MAX.bit_length() or m ** exponent > _INTP_MAX:
        raise ValueError(f"m={m}, n={n} is too large: {what} would need "
                         f"m^{'(2n)' if power == 2 else 'n'} entries, more than an array can index")
    return m ** exponent


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


def contract_axes(values: np.ndarray, vectors: np.ndarray) -> np.ndarray:
    """(T,) array: sum_g values[g] * prod_i vectors[t, i, g_i] for each t.

    `vectors` is a stacked (T, n, s) array; axis i of `values` is contracted
    with vectors[:, i] (first coordinate first).  For n >= 2, up to s^2
    trials go at a time: one GEMM of each trial's outer product
    vectors[t, 0] x vectors[t, 1] against the first two axes, whose
    (trials, s^(n-2)) output is never larger than `values`, then one batched
    matmul per remaining axis.  For n = 1 it is one GEMM of up to s trials.
    """
    count, n, s = vectors.shape
    lead = min(n, 2)
    step = s ** lead
    out = np.empty(count, dtype=np.result_type(values, vectors))
    for start in range(0, count, step):
        v = vectors[start:start + step]
        first = v[:, 0]
        if lead == 2:
            first = (first[:, :, None] * v[:, 1, None, :]).reshape(len(v), step)
        t = first @ values.reshape(step, -1)
        for i in range(lead, n):
            t = np.matmul(v[:, i, None], t.reshape(len(v), s, -1))
        out[start:start + step] = t.reshape(-1)
    return out


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
        size = array_length(self.m, self.n, "an element", 2)
        c = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
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
        return cls(m, n, np.zeros(array_length(m, n, "an element", 2), dtype=np.complex128))

    @classmethod
    def indicator(cls, m: int, n: int, indices: Iterable[int]) -> "AlgebraElement":
        """Element with coefficient 1 at each given flat index; an index
        outside [0, m^(2n)) is a ValueError, anything but an integer a TypeError."""
        size = array_length(m, n, "an element", 2)
        idx = [operator.index(i) for i in indices]
        bad = [i for i in idx if not 0 <= i < size]
        if bad:
            raise ValueError(f"flat index {bad[0]} outside [0, {size})")
        c = np.zeros(size, dtype=np.complex128)
        c[idx] = 1.0
        return cls(m, n, c)

    @classmethod
    def unit(cls, m: int, n: int) -> "AlgebraElement":
        """z^0, the multiplicative identity."""
        return cls.indicator(m, n, [0])


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Group convolution: out[k] = sum over g+h = k of a_g * b_h.

    Characters are homomorphisms, chi_h(A B) = chi_h(A) chi_h(B), so the
    product is the pointwise product of the unnormalised transforms under the
    generalized Pauli kernel (a nondegenerate character table), taken back
    by one more kernel pass and scaled by 1/m^(2n) (the double-transform
    identity).  This is the one route, for sparse and dense operands alike.
    """
    if a.m != b.m or a.n != b.n:
        raise ShapeMismatch(f"(m={a.m}, n={a.n}) vs (m={b.m}, n={b.n})")
    kernel = build_pauli_system(a.m).kernel
    product = _kernel.apply_axiswise(kernel, a.coeffs, a.n)
    product *= _kernel.apply_axiswise(kernel, b.coeffs, b.n)
    out = _kernel.apply_axiswise(kernel, product, a.n)
    out *= 1 / a.size
    return AlgebraElement(a.m, a.n, out)


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
    """C' = (1/M) sum_h chi_h(C) z^h, the MacWilliams-type transform of C.

    The scaling is one multiply by 1/M.  numpy divides by a real divisor by
    multiplying by its reciprocal, so for real M (the element of every code)
    this equals division as floats; only the sign of an exact zero may
    differ.  For complex M the two differ by rounding alone.
    """
    if sys.m != a.m:
        raise ShapeMismatch(f"system has m={sys.m}, element has m={a.m}")
    mass = checked_mass(a.mass, a.coeffs)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _kernel.apply_axiswise(sys.kernel, a.coeffs, a.n)
        out *= 1 / mass
    dual = AlgebraElement(a.m, a.n, out)
    if cmath.isfinite(mass) and not cmath.isfinite(dual.mass):  # an inf or nan in C'
        raise QecalgError(f"the transform overflows: the mass of C' is {dual.mass}")
    return dual


def double_transform_scaling_check(sys: PhaseSystem, a: AlgebraElement) -> CheckReport:
    """Verify transform(transform(A)) = (m^(2n) / (M * M')) * A elementwise;
    `failures` are the flat labels at which the two differ.

    Only M' of the first transform outlives the second, and the difference
    is formed in the one array that holds the scaled A.
    """
    first = transform(sys, a)
    scale_factor = a.size / (a.mass * first.mass)
    second = transform(sys, first).coeffs
    del first
    diff = scale_factor * a.coeffs
    np.subtract(second, diff, out=diff)
    del second
    return CheckReport.from_residuals("double-transform", np.abs(diff), IDENTITY_TOL)


def random_element(
    m: int, n: int, seed: int, nonneg: bool = False
) -> AlgebraElement:
    """Seeded random element with mass bounded away from zero.

    nonneg=True draws uniform [0, 1) reals (code-like coefficients); the
    default draws complex Gaussians, redrawing until |mass| > 0.5.
    """
    size = array_length(m, n, "an element", 2)
    rng = np.random.default_rng(seed)
    if nonneg:
        return AlgebraElement(m, n, rng.random(size).astype(np.complex128))
    for _ in range(64):
        c = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        if abs(c.sum()) > 0.5:
            return AlgebraElement(m, n, c)
    raise RuntimeError("could not draw an element with nonzero mass")
