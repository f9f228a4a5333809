"""Weight enumerators of algebra elements and their transform identities.

Four enumerators, coarsest last:

  exact     — one variable z_{i,s} per coordinate i and group element s;
              its expanded form IS the element, so it is only ever evaluated.
  complete  — counts occurrences of each group element across coordinates.
  Lee       — complete with each element merged with its negation (odd m).
  Hamming   — counts nonzero coordinates.

The complete and Lee distributions are one `CompositionDistribution`: the
sorted composition rows and their sums as two arrays, from one bincount
over composition numbers, one intp per label, built one axis at a time
(`_composition_terms`); its `terms` dict is derived from the arrays on
demand.  The Hamming distribution is A_0..A_n.

Each has a MacWilliams-type identity linking the enumerator of C to that of
its transform C'.  The exact/complete/Lee identities are verified by random
evaluation at points on the complex unit disk; the Hamming identity

    W_C'(x, y) = (1/M) * W_C(x + (m^2 - 1) y, x - y)

is bivariate; `macwilliams_hamming` sums A_j times the Krawtchouk columns K_j,
the one route to A' from A, and `verify_hamming_identity` builds C' to certify it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf
from typing import Sequence

import numpy as np

from .error_basis import PhaseSystem
from .errors import EvenM, QecalgError
from .group_algebra import (
    IDENTITY_TOL, AlgebraElement, checked_mass, contract_axes, transform,
    weight_reduce)
from .reports import CheckReport

# Largest distance from an integer at which a Hamming coefficient is rounded.
ROUNDING_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CompositionDistribution:
    """Coefficients summed by composition, as two read-only arrays.

    Row t of the uint8 (T, width) array `counts` is a composition: how many
    coordinates carry each of the `width` symbols, the m^2 group elements
    (complete) or the delta+1 Lee classes (Lee); a count is at most n <= 31,
    so widen before arithmetic that may leave [0, 255].  Rows are in
    strictly increasing lexicographic order.  values[t] (complex128) is the
    sum of the coefficients of the labels of that composition; no value is
    exactly zero.
    """

    m: int
    n: int
    counts: np.ndarray
    values: np.ndarray

    @property
    def terms(self) -> dict:
        """{composition tuple: summed coefficient}, in the order of the rows."""
        return dict(zip(map(tuple, self.counts.tolist()), self.values.tolist()))


@dataclass(frozen=True, eq=False)
class HammingDistribution:
    """Coefficients A_0..A_n, A_i = sum of c_g over labels of weight i, and,
    where they are known, the same as exact Python ints.  complex128 `a` is
    then their float mirror: exact only below 2^53, and +-inf beyond the
    float range, where the ints alone hold the values."""

    m: int
    n: int
    a: np.ndarray
    exact: tuple[int, ...] | None = None

    @classmethod
    def of_ints(cls, m: int, n: int, counts: Sequence[int]) -> "HammingDistribution":
        return cls(m, n, np.array([_saturated(x) for x in counts], np.complex128), tuple(counts))

    def residual(self) -> float:
        """max |a_w - round(Re a_w)|, which `rounded` allows up to ROUNDING_TOL."""
        return float(np.abs(self.a - np.round(self.a.real)).max())

    def rounded(self):
        """The exact ints, else the integer-rounded vector, or None if some
        entry is not near-integer."""
        if self.exact is not None:
            return self.exact
        if self.residual() <= ROUNDING_TOL:
            return tuple(int(v) for v in np.round(self.a.real))
        return None


def _saturated(x: int) -> float:
    """float(x), or +-inf for an int beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return inf if x > 0 else -inf


def _composition_terms(a: AlgebraElement, symbol: np.ndarray,
                       count: int) -> CompositionDistribution:
    """Sum coefficients by composition: how many coordinates carry each of
    `count` symbols, symbol[v] being the symbol of ordering index v.

    Compositions are numbered one axis at a time.  The compositions of the
    first i coordinates are a lexicographically sorted uint8 table (a count
    is at most n <= 31, so a row's bytes sort as the row does); each row is
    extended by one coordinate of every symbol and the results renumbered by
    one np.unique over the rows viewed as bytes, and each label takes the
    number of its prefix's composition extended by its last coordinate.  The
    table after n axes is `counts`, in lexicographic order with no re-sort.
    Sums that are exactly zero (unoccupied compositions of indicator
    elements) are dropped.
    """
    unit = np.eye(count, dtype=np.uint8)
    comps = np.zeros((1, count), dtype=np.uint8)
    number = np.zeros(1, dtype=np.intp)
    for _ in range(a.n):
        rows = (comps[:, None] + unit).reshape(-1, count)
        distinct, renumber = np.unique(rows.view(f"V{count}").reshape(-1), return_inverse=True)
        comps = distinct.view(np.uint8).reshape(-1, count)
        number = renumber.reshape(-1, count)[:, symbol][number].reshape(-1)
    re = np.bincount(number, weights=a.coeffs.real, minlength=len(comps))
    im = np.bincount(number, weights=a.coeffs.imag, minlength=len(comps))
    keep = (re != 0) | (im != 0)
    counts = comps[keep]
    # written pairwise: re + 1j*im would turn an infinite im into a NaN real part
    values = np.stack([re[keep], im[keep]], axis=1).view(np.complex128).reshape(-1)
    for arr in (counts, values):
        arr.setflags(write=False)
    return CompositionDistribution(a.m, a.n, counts, values)


def _lee_class(m: int) -> np.ndarray:
    """Ordering index j -> Lee class min(j, (m^2 - j) mod m^2), the smaller
    index of g and -g by the odd-m mirror alpha_{m^2-j} = -alpha_j, as
    int64; odd m only (EvenM otherwise)."""
    if m % 2 == 0:
        raise EvenM(f"Lee machinery needs odd m, got m={m}")
    j = np.arange(m * m)
    return np.minimum(j, -j % (m * m))


def complete_distribution(a: AlgebraElement) -> CompositionDistribution:
    """Counts (s_0..s_{m^2-1}) of each group element -> summed coefficient."""
    q = a.m * a.m
    return _composition_terms(a, np.arange(q), q)


def lee_distribution(a: AlgebraElement) -> CompositionDistribution:
    """Lee counts (l_0..l_delta), l_0 = s_0 and l_i = s_i + s_{m^2-i}, ->
    summed coefficient; odd m only (EvenM otherwise)."""
    return _composition_terms(a, _lee_class(a.m), (a.m * a.m + 1) // 2)


def hamming_distribution(a: AlgebraElement) -> HammingDistribution:
    return HammingDistribution(a.m, a.n, weight_reduce(a.coeffs, a.m * a.m, a.n))


# ---------------------------------------------------------------------------
# identity verification
# ---------------------------------------------------------------------------

def _unit_disk_points(rng: np.random.Generator, trials: int, shape: tuple) -> np.ndarray:
    """(trials, *shape) points on the unit disk.  One draw of all radii and
    angles, in the order of a radius draw and an angle draw per trial."""
    u = rng.random((trials, 2) + shape)
    return np.sqrt(u[:, 0]) * np.exp(1j * (u[:, 1] * 2 * np.pi))


def _evaluation_check(name: str, sys: PhaseSystem, a: AlgebraElement, trials: int,
                      seed: int, draw) -> CheckReport:
    """The trial evaluations shared by the evaluation identities.

    draw(rng, trials) gives stacked (trials, n, m^2) points at which to
    evaluate the enumerator of C', and the substituted points at which to
    evaluate that of C; per trial the two values must agree up to the factor
    1/M, and `failures` are the trials at which they do not.  A check of no
    trials would pass vacuously, so trials < 1 is a ValueError.
    """
    if trials < 1:
        raise ValueError(f"{name} needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    dual = transform(sys, a)
    z, w = draw(rng, trials)
    lhs = contract_axes(dual.coeffs, z)
    rhs = contract_axes(a.coeffs, w) / a.mass
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return CheckReport.from_residuals(name, np.abs(lhs - rhs) / denom, IDENTITY_TOL,
                                      detail=f"{trials} evaluation points")


def verify_exact_identity(
    sys: PhaseSystem, a: AlgebraElement, trials: int, seed: int = 0
) -> CheckReport:
    """Exact-enumerator identity, tested by evaluation at random points.

    Per trial: draw z[i, s] on the unit disk for each coordinate i and symbol
    s; the enumerator of C' at z must equal (1/M) times the enumerator of C
    with z[i, r] replaced by sum_s kernel[s, r] * z[i, s].
    """
    def draw(rng, trials):
        z = _unit_disk_points(rng, trials, (a.n, sys.q))
        return z, z @ sys.kernel

    return _evaluation_check("exact-identity", sys, a, trials, seed, draw)


def verify_complete_identity(
    sys: PhaseSystem, a: AlgebraElement, trials: int, seed: int = 0
) -> CheckReport:
    """Complete-enumerator identity in m^2 shared variables, by evaluation."""
    def draw(rng, trials):
        z = _unit_disk_points(rng, trials, (sys.q,))
        return _shared(z, a.n), _shared(z @ sys.kernel, a.n)

    return _evaluation_check("complete-identity", sys, a, trials, seed, draw)


def verify_lee_identity(
    sys: PhaseSystem, a: AlgebraElement, trials: int, seed: int = 0
) -> CheckReport:
    """Lee-enumerator identity (odd m only), by evaluation.

    The substituted variable for Lee class i is
        z_0 + sum_{s=1..delta} 2*Re(kernel[s, i]) * z_s,
    well defined on classes because kernel[s, -g] = conj(kernel[s, g]).
    """
    cls = _lee_class(sys.m)
    delta = (sys.q - 1) // 2
    # subst[i, s]: coefficient of z_s in the replacement for Lee variable i
    subst = np.zeros((delta + 1, delta + 1))
    subst[:, 0] = 1.0
    subst[:, 1:] = 2.0 * sys.kernel[1:delta + 1, :delta + 1].real.T

    def draw(rng, trials):
        z = _unit_disk_points(rng, trials, (delta + 1,))
        return _shared(z[:, cls], a.n), _shared((z @ subst.T)[:, cls], a.n)

    return _evaluation_check("lee-identity", sys, a, trials, seed, draw)


def _shared(points: np.ndarray, n: int) -> np.ndarray:
    """(trials, n, s) view giving every coordinate the same (trials, s) points."""
    return np.broadcast_to(points[:, None], (points.shape[0], n, points.shape[1]))


def macwilliams_terms(a, q: int, n: int) -> list:
    """Coefficients of W(x + (q-1)y, x - y) for W = sum_j a_j x^(n-j) y^j: sum_j a_j K_j,
    K_j the Krawtchouk column of (x + (q-1)y)^(n-j) (x - y)^j, built in O(n) from K_(j-1)
    times (x - y) divided exactly by (x + (q-1)y); exact when the a_j are Python ints."""
    col = [comb(n, k) * (q - 1) ** k for k in range(n + 1)]
    out = [0] * (n + 1)
    for aj in a:
        if aj:
            out = [o + aj * c for o, c in zip(out, col)]
        last = quot = 0  # entry k-1 of this column and of the next
        for k, c in enumerate(col):
            col[k] = quot = c - last - (q - 1) * quot
            last = c
    return out


def macwilliams_hamming(dist: HammingDistribution, mass: complex) -> np.ndarray:
    """Coefficients of (1/M) * W(x + (m^2-1)y, x - y), by `macwilliams_terms`;
    a mass unfit to divide by raises, as in `transform`, and so does an
    overflowing A' of a finite mass."""
    mass = checked_mass(mass, dist.a)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(macwilliams_terms(dist.a.tolist(), dist.m ** 2, dist.n), complex) / mass
    if np.isfinite(mass) and not np.isfinite(out).all():
        raise QecalgError("the t9 image of A overflows: a coefficient of A' is not finite")
    return out


def verify_hamming_identity(sys: PhaseSystem, a: AlgebraElement) -> CheckReport:
    """Hamming-enumerator identity, A' of C' against `macwilliams_hamming`;
    `failures` are the weights w at which A'_w differs."""
    lhs = hamming_distribution(transform(sys, a)).a
    rhs = macwilliams_hamming(hamming_distribution(a), a.mass)
    return CheckReport.from_residuals("hamming-identity", np.abs(lhs - rhs), IDENTITY_TOL)
