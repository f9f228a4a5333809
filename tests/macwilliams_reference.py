"""The binomial expansion of the Hamming identity that
`qecalg.enumerators.macwilliams_terms` replaced.

Kept only as the reference the Krawtchouk-column recurrence is tested
against: every (x + (q-1)y)^(n-j) (x - y)^j is expanded term by term with
two binomial coefficients per term, O(n^3) in all.
"""

from __future__ import annotations

from math import comb


def binomial_terms(a, q: int, n: int) -> list:
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
