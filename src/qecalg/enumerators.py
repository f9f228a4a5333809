"""Weight enumerators of algebra elements and their transform identities.

Four enumerators, coarsest last:

  exact     — one variable z_{i,s} per coordinate i and group element s;
              its expanded form IS the element, so it is only ever evaluated.
  complete  — counts occurrences of each group element across coordinates.
  Lee       — complete with each element merged with its negation (odd m).
  Hamming   — counts nonzero coordinates.

Each has a MacWilliams-type identity linking the enumerator of C to that of
its transform C'.  The exact/complete/Lee identities are verified by random
evaluation at points on the complex unit disk; the Hamming identity

    W_C'(x, y) = (1/M) * W_C(x + (m^2 - 1) y, x - y)

is bivariate; `macwilliams_hamming` expands it binomially, the one route to
A' from A, and `verify_hamming_identity` builds C' to certify that route.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb
from typing import Sequence

import numpy as np

from .error_basis import GroupElement, GroupOrdering, PhaseSystem
from .errors import EvenM, QecalgError
from .group_algebra import (
    AlgebraElement, checked_mass, contract_axes, label_sums, transform, weight_reduce)
from .reports import CheckReport

IDENTITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CompleteDistribution:
    """Map composition tuple (s_0..s_{m^2-1}) -> summed coefficient."""

    m: int
    n: int
    terms: dict


@dataclass(frozen=True, eq=False)
class LeeDistribution:
    """Map Lee composition tuple (l_0..l_delta) -> summed coefficient."""

    m: int
    n: int
    delta: int
    terms: dict


@dataclass(frozen=True, eq=False)
class HammingDistribution:
    """Coefficients A_0..A_n, A_i = sum of c_g over labels of weight i, and,
    where they are known, the same as exact Python ints (complex128 `a` holds
    integers exactly only below 2^53)."""

    m: int
    n: int
    a: np.ndarray
    exact: tuple[int, ...] | None = None

    @classmethod
    def of_ints(cls, m: int, n: int, counts: Sequence[int]) -> "HammingDistribution":
        return cls(m, n, np.array(counts, dtype=np.complex128), tuple(counts))

    def rounded(self, tol: float = 1e-6):
        """The exact ints, else the integer-rounded vector, or None if some
        entry is not near-integer."""
        if self.exact is not None:
            return self.exact
        r = np.round(self.a.real)
        if np.abs(self.a - r).max() <= tol:
            return tuple(int(v) for v in r)
        return None


def _composition_terms(a: AlgebraElement, symbol: np.ndarray, count: int) -> dict:
    """Sum coefficients by composition: how many coordinates carry each of
    `count` symbols, symbol[v] being the symbol of ordering index v.

    A composition is keyed by its counts as mixed-radix digits in base n+1,
    built one axis at a time by broadcasting; symbols are split into as many
    int64 key columns as needed.  Symbol 0 takes the most significant digit,
    within a column and across columns, so the keys np.unique returns are
    already in lexicographic order of the counts.  Sums that are exactly zero
    (unoccupied keys of indicator elements) are dropped.
    """
    base = a.n + 1
    per_column = 1
    while base ** (per_column + 1) <= np.iinfo(np.int64).max:
        per_column += 1
    widths = [min(per_column, count - start) for start in range(0, count, per_column)]
    columns = []
    for j, width in enumerate(widths):
        places = np.zeros(count, dtype=np.int64)
        places[j * per_column:j * per_column + width] = _powers(base, width)
        columns.append(label_sums(places[symbol], a.n))
    if len(columns) == 1:  # the common case; 1-D unique is ~20x faster
        keys, inverse = np.unique(columns[0], return_inverse=True)
        keys = keys[:, None]
    else:
        keys, inverse = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    re = np.bincount(inverse, weights=a.coeffs.real, minlength=len(keys))
    im = np.bincount(inverse, weights=a.coeffs.imag, minlength=len(keys))
    keep = (re != 0) | (im != 0)
    counts = np.concatenate(
        [keys[keep, j, None] // _powers(base, width) % base for j, width in enumerate(widths)],
        axis=1)
    return {tuple(row): complex(r, i) for row, r, i in zip(counts.tolist(), re[keep], im[keep])}


def _powers(base: int, width: int) -> np.ndarray:
    """base^(width-1), ..., base^0: the places of `width` digits, first most significant."""
    return base ** np.arange(width - 1, -1, -1, dtype=np.int64)


def composition(label: Sequence[GroupElement], ordering: GroupOrdering) -> tuple[int, ...]:
    """Counts of each ordering element among the coordinates of the label."""
    counts = [0] * ordering.size
    for g in label:
        counts[ordering.index_of(g)] += 1
    return tuple(counts)


def _require_odd(m: int) -> None:
    if m % 2 == 0:
        raise EvenM(f"Lee machinery needs odd m, got m={m}")


@lru_cache(maxsize=None)
def _lee_class(m: int) -> np.ndarray:
    """Ordering index -> Lee class: 0 -> 0, j -> j for j <= delta, else m^2-j."""
    _require_odd(m)
    q = m * m
    delta = (q - 1) // 2
    cls = np.arange(q)
    cls[delta + 1:] = q - cls[delta + 1:]
    cls.setflags(write=False)
    return cls


def lee_composition(label: Sequence[GroupElement], ordering: GroupOrdering) -> tuple[int, ...]:
    """(l_0..l_delta) with l_0 = s_0 and l_i = s_i + s_{m^2-i}."""
    _require_odd(ordering.m)
    cls = _lee_class(ordering.m)
    counts = [0] * (ordering.lee_delta + 1)
    for g in label:
        counts[cls[ordering.index_of(g)]] += 1
    return tuple(counts)


def complete_distribution(a: AlgebraElement) -> CompleteDistribution:
    q = a.m * a.m
    return CompleteDistribution(a.m, a.n, _composition_terms(a, np.arange(q), q))


def lee_distribution(a: AlgebraElement) -> LeeDistribution:
    _require_odd(a.m)
    delta = (a.m * a.m - 1) // 2
    return LeeDistribution(a.m, a.n, delta, _composition_terms(a, _lee_class(a.m), delta + 1))


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


def exact_enumerator_value(a: AlgebraElement, points: np.ndarray) -> complex:
    """Evaluate the exact enumerator of `a` at `points[i, s]`.

    The exact enumerator uses one variable per (coordinate, group element)
    pair; its expanded form is the element itself, so it is only ever
    evaluated, never expanded.
    """
    points = np.asarray(points, dtype=np.complex128)
    q = a.m * a.m
    if points.shape != (a.n, q):
        raise ValueError(f"expected points of shape ({a.n}, {q}), got {points.shape}")
    return complex(contract_axes(a.coeffs, points[None])[0])


def _evaluation_check(name: str, sys: PhaseSystem, a: AlgebraElement, trials: int,
                      seed: int, draw) -> CheckReport:
    """The trial evaluations shared by the evaluation identities.

    draw(rng, trials) gives stacked (trials, n, m^2) points at which to
    evaluate the enumerator of C', and the substituted points at which to
    evaluate that of C; per trial the two values must agree up to the factor
    1/M.  A check of no trials would pass vacuously, so trials < 1 is a
    ValueError.
    """
    if trials < 1:
        raise ValueError(f"{name} needs trials >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    dual = transform(sys, a)
    z, w = draw(rng, trials)
    lhs = contract_axes(dual.coeffs, z)
    rhs = contract_axes(a.coeffs, w) / a.mass
    denom = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    residuals = np.abs(lhs - rhs) / denom
    bad = tuple(int(t) for t in np.flatnonzero(~(residuals <= IDENTITY_TOL)))  # NaN fails
    return CheckReport(
        name=name,
        passed=not bad,
        max_residual=float(np.max(residuals, initial=0.0)),
        failures=bad,
        detail=f"{trials} evaluation points",
    )


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
    _require_odd(sys.m)
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
    """Coefficients of W(x + (q-1)y, x - y) for W = sum_j a_j x^(n-j) y^j, by
    binomial expansion; exact integers when the a_j are Python ints."""
    out = [0] * (n + 1)
    for j, aj in enumerate(a):
        if aj == 0:
            continue
        # (x + (q-1)y)^(n-j) * (x - y)^j, coefficient of x^(n-k) y^k
        for p in range(n - j + 1):
            base = aj * comb(n - j, p) * (q - 1) ** p
            for s in range(j + 1):
                out[p + s] += base * comb(j, s) * (-1) ** s
    return out


def macwilliams_hamming(dist: HammingDistribution, mass: complex) -> np.ndarray:
    """Coefficients of (1/M) * W(x + (m^2-1)y, x - y), by binomial expansion;
    a mass unfit to divide by raises, as in `transform`, and so does an
    overflowing A' of a finite mass."""
    mass = checked_mass(mass, dist.a)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.array(macwilliams_terms(dist.a, dist.m * dist.m, dist.n), np.complex128) / mass
    if np.isfinite(mass) and not np.isfinite(out).all():
        raise QecalgError("the t9 image of A overflows: a coefficient of A' is not finite")
    return out


def verify_hamming_identity(sys: PhaseSystem, a: AlgebraElement) -> CheckReport:
    """Hamming-enumerator identity, closed form via binomial expansion."""
    dual = transform(sys, a)
    lhs = hamming_distribution(dual).a
    rhs = macwilliams_hamming(hamming_distribution(a), a.mass)
    resid = float(np.abs(lhs - rhs).max())
    return CheckReport(name="hamming-identity", passed=resid <= IDENTITY_TOL, max_residual=resid)
