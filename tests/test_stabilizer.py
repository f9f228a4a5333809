"""The exact route's module on its own: the stream of any row span, the two
forms in which it hands out S, and its imports."""

import ast
import itertools
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qecalg import CodeSpec, canonical_ordering, stabilizer
from stabilizer_reference import howell_form


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("m", [2, 3, 4, 6, 12])
def test_stream_yields_any_row_span_once(monkeypatch, m, block):
    # random integer rows, which need not commute (the normalizer N(S) is no
    # code's S): the streamed multiset, each low column added to each offset
    # in Python ints, is the brute-force row span, each element once; block 1
    # and 7 put every or nearly every row on the offset side
    if block is not None:
        monkeypatch.setattr(stabilizer, "_BLOCK", block)
    ordering = canonical_ordering(m)
    order = [tuple(g) for g in ordering.order.tolist()]
    index = {g: i for i, g in enumerate(order)}

    def plus(i, j):
        return index[(order[i][0] + order[j][0]) % m, (order[i][1] + order[j][1]) % m]
    rng = np.random.default_rng(300 + m)
    for trial in range(24):
        n, r = int(rng.integers(1, 4)), int(rng.integers(0, 5))
        gens = rng.integers(-2 * m, 2 * m, size=(r, 2 * n))
        if trial == 0:
            gens[:] = 0
        rows, orders = stabilizer._howell_form(gens, m)
        low, high = stabilizer._stream(rows, orders, ordering)
        assert low.shape[0] == high.shape[0] == n and low.shape[1] <= stabilizer._BLOCK
        assert low.dtype == high.dtype == np.min_scalar_type(m * m - 1)
        streamed = [tuple(map(plus, lo, hi)) for hi in high.T.tolist() for lo in low.T.tolist()]
        words = np.array(list(itertools.product(range(m), repeat=r)), dtype=np.int64)
        span = words.reshape(m ** r, r) @ gens % m
        brute = ordering.position[span[:, 0::2], span[:, 1::2]]
        expected = Counter(set(map(tuple, brute.tolist())))
        assert Counter(streamed) == expected, (m, gens.tolist())
        assert np.prod([int(t) for t in orders]) == len(expected)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_howell_form_equals_the_numpy_reference(m):
    # the Python-int form takes the numpy reference's steps in its order, so
    # it returns the same int64 arrays: seeded rows with entries in [-2m, 2m),
    # among them all-zero and repeated rows, each matrix alone and as [G | I]
    rng = np.random.default_rng(400 + m)
    for trial in range(60):
        r = int(rng.integers(0, 7))
        gens = rng.integers(-2 * m, 2 * m, size=(r, int(rng.integers(1, 15 - r))))
        if r and trial % 3 == 1:
            gens[rng.integers(r)] = 0
        if r > 1 and trial % 3 == 2:
            gens[1:] = gens[rng.integers(r, size=r - 1)]
        if trial == 0:
            gens[:] = 0
        for mat in (gens, np.hstack([gens, np.eye(r, dtype=np.int64)])):
            rows, orders = stabilizer._howell_form(mat, m)
            ref_rows, ref_orders = howell_form(mat, m)
            assert rows.dtype == orders.dtype == ref_rows.dtype == ref_orders.dtype == np.int64
            assert np.array_equal(rows, ref_rows), (m, mat.tolist())
            assert np.array_equal(orders, ref_orders), (m, mat.tolist())


def _seeded_code(m, n, rng):
    """Commuting generators: Z^e seeds on the first r qudits, e drawn from
    1..m-1, then 3n random symplectic transvections x -> x + <x, v> v,
    which keep every symplectic product; so |S| = prod_i m / gcd(e_i, m)."""
    r = int(rng.integers(1, n + 1))
    exponents = rng.integers(1, m, size=r)
    gens = np.zeros((r, 2 * n), dtype=np.int64)
    gens[np.arange(r), 2 * np.arange(r) + 1] = exponents
    for _ in range(3 * n):
        v = rng.integers(0, m, size=2 * n)
        product = gens[:, 0::2] @ v[1::2] - gens[:, 1::2] @ v[0::2]
        gens = (gens + np.outer(product, v)) % m
    code = CodeSpec.from_stabilizers(m, n, [list(zip(g[0::2], g[1::2])) for g in gens.tolist()])
    return code, int(np.prod([m // np.gcd(int(e), m) for e in exponents]))


@pytest.mark.parametrize("block", [7, None])
@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_group_labels_are_s_and_weigh_as_the_counts(monkeypatch, m, block):
    # the two forms of S agree: |S| distinct labels whose weights (nonzero
    # ordering digits) have the histogram _weight_counts streams, block 7
    # putting nearly every row on the offset side
    if block is not None:
        monkeypatch.setattr(stabilizer, "_BLOCK", block)
    ordering = canonical_ordering(m)
    rng = np.random.default_rng(500 + m)
    for _ in range(6):
        n = int(rng.integers(1, 6))
        code, order = _seeded_code(m, n, rng)
        rows, orders = stabilizer._subgroup(code, None)
        labels = stabilizer._group_labels(ordering, rows, orders)
        counts, size = stabilizer._weight_counts(ordering, rows, orders)
        assert size == order == len(labels) == len(np.unique(labels))
        digits = np.stack(np.unravel_index(labels, (m * m,) * n))
        weights = np.count_nonzero(digits, axis=0)
        assert np.bincount(weights, minlength=n + 1).tolist() == counts
        assert all(type(x) is int for x in counts)


def test_stabilizer_imports_nothing_from_the_layers_above_it():
    # read from the source: a sys.modules probe cannot tell, because importing
    # qecalg.stabilizer runs qecalg/__init__, which imports code_analysis
    above = {"code_analysis", "enumerators", "group_algebra", "cli", "fileio", "catalog", "oracle"}
    tree = ast.parse(Path(stabilizer.__file__).read_text(encoding="utf-8"))
    named = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            named |= {part for alias in node.names for part in alias.name.split(".")}
        elif isinstance(node, ast.ImportFrom) and (node.level or node.module == "qecalg"
                                                   or node.module.startswith("qecalg.")):
            named |= set((node.module or "").split("."))
            named |= {alias.name for alias in node.names}
    assert {"error_basis", "errors"} <= named
    assert not named & above, sorted(named & above)
