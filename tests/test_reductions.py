"""Axis-wise reductions against the per-label table references in oracle.py."""

import importlib
import json
import inspect
import pkgutil
import tracemalloc

import numpy as np
import pytest

import qecalg
from qecalg import (
    AlgebraElement,
    CodeSpec,
    analyze,
    associated_element,
    catalog,
    complete_distribution,
    hamming_distribution,
    lee_distribution,
    multiply,
    random_code,
    random_element,
    transform,
)
from qecalg import group_algebra
from qecalg.cli import _dist_records, _fmt_complex
from qecalg.enumerators import _lee_class
from qecalg.oracle import (
    codewords_from_stabilizers,
    oracle_composition_terms,
    oracle_enumerator_value,
    oracle_hamming_distribution,
    oracle_minimum_distance,
    oracle_multiply,
)

SIZES = [(2, 1), (2, 3), (2, 5), (3, 1), (3, 3), (4, 2), (4, 3)]
LEE_SIZES = [(3, 1), (3, 3), (5, 1), (5, 2)]


def _close(got, want, rel=1e-12):
    got, want = np.asarray(got), np.asarray(want)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return float(np.abs(got - want).max(initial=0.0)) <= rel * scale


def _elements(m, n, seed):
    """A dense complex element, and an indicator element whose signed
    coefficients cancel inside some composition keys."""
    q = m * m
    dense = random_element(m, n, seed=seed)
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(q ** n, dtype=np.complex128)
    picks = rng.choice(q ** n, size=min(q ** n, 3 * n + 2), replace=False)
    coeffs[picks] = 1.0
    if n >= 2:
        # (1, 2, 0, ...) and (2, 1, 0, ...) share a composition: +1 and -1 cancel
        coeffs[1 * q ** (n - 1) + 2 * q ** (n - 2)] = 1.0
        coeffs[2 * q ** (n - 1) + 1 * q ** (n - 2)] = -1.0
    return dense, AlgebraElement(m, n, coeffs)


def _assert_same_terms(got: dict, want: dict):
    assert list(got) == sorted(want)
    assert _close([got[k] for k in sorted(want)], [want[k] for k in sorted(want)])


@pytest.mark.parametrize("m,n", SIZES)
def test_hamming_distribution_matches_table(m, n):
    for element in _elements(m, n, seed=10 * m + n):
        got = hamming_distribution(element).a
        assert _close(got, oracle_hamming_distribution(element))


def test_hamming_distribution_integer_exact(sys2, shor_code):
    element = associated_element(sys2, shor_code)
    dual = transform(sys2, element)
    for e in (element, dual):
        assert np.array_equal(hamming_distribution(e).a, oracle_hamming_distribution(e))


def _imaginary_term(m, n):
    """c_0 = 1 and 1j on the label whose every coordinate is ordering index 1
    (c_5 = 1j at (m, n) = (2, 2)): its composition (0, n, 0, ...) sums to 1j,
    whose real part is zero."""
    coeffs = np.zeros((m * m) ** n, dtype=np.complex128)
    coeffs[0] = 1.0
    coeffs[sum((m * m) ** i for i in range(n))] = 1j
    return AlgebraElement(m, n, coeffs)


@pytest.mark.parametrize("m,n", SIZES + [(2, 2)])
def test_complete_distribution_matches_table(m, n):
    for element in (*_elements(m, n, seed=20 * m + n), _imaginary_term(m, n)):
        _assert_same_terms(complete_distribution(element).terms, oracle_composition_terms(element))


# wide compositions: (6, 3) has 36 symbols and (13, 1) has 169, so neither
# fits one int64 as a base-(n+1) number ((n+1)^(m^2) = 4^36 and 2^169)
@pytest.mark.parametrize("m,n,lee", [(4, 3, False), (3, 4, False), (3, 4, True), (2, 7, False),
                                     (5, 3, False), (5, 3, True), (6, 3, False),
                                     (13, 1, False)])
def test_composition_keys_come_out_sorted(m, n, lee):
    # the table reference sums in flat label order, as the library's bincount
    # does, and sorts its keys with np.unique; so the values are bit-identical
    for element in _elements(m, n, seed=60 * m + n):
        got = (lee_distribution if lee else complete_distribution)(element).terms
        want = oracle_composition_terms(element, lee=lee)
        assert list(got) == sorted(got) == list(want)
        got_bits = np.array(list(got.values())).view(np.uint64).tolist()
        assert got_bits == np.array(list(want.values())).view(np.uint64).tolist()


# (9, 2) Lee compositions are wide too: 41 classes, and 3^41 overflows int64
DIST_CASES = [(4, 3, False), (3, 4, False), (3, 4, True), (5, 3, True), (6, 3, False),
              (9, 2, True)]


@pytest.mark.parametrize("m,n,lee", DIST_CASES)
def test_distribution_arrays(m, n, lee):
    width = (m * m + 1) // 2 if lee else m * m
    for element in _elements(m, n, seed=70 * m + n):
        dist = (lee_distribution if lee else complete_distribution)(element)
        counts, values = dist.counts, dist.values
        assert counts.dtype == np.uint8 and counts.shape == (len(values), width)
        assert (counts.sum(axis=1) == n).all()
        step = np.diff(counts.astype(np.int64), axis=0)  # a uint8 diff would wrap
        first = step[np.arange(len(step)), (step != 0).argmax(axis=1)]
        assert (first > 0).all()  # strictly increasing, lexicographically
        assert values.dtype == np.complex128 and values.shape == (len(counts),)
        assert (values != 0).all()
        for arr in (counts, values):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


@pytest.mark.parametrize("m,n,lee", DIST_CASES)
def test_dist_records_match_the_sorted_dict(m, n, lee):
    kind = "lee" if lee else "complete"
    for element in _elements(m, n, seed=80 * m + n):
        # the records as they were built from the sorted terms dict
        terms = (complete_distribution if kind == "complete" else lee_distribution)(element).terms
        records = [[list(key), _fmt_complex(val)] for key, val in sorted(terms.items())]
        got, text = _dist_records(kind, element)
        assert json.dumps(got) == json.dumps(records)  # -0.0 and NaN spelled out
        assert len(text) == len(records)


def test_complete_distribution_drops_cancelled_keys():
    m, n = 3, 2
    _, element = _elements(m, n, seed=5)
    key = [0] * (m * m)
    key[1] = key[2] = 1
    terms = complete_distribution(element).terms
    assert tuple(key) not in terms
    assert tuple(key) not in oracle_composition_terms(element)


def test_complete_distribution_several_key_columns():
    # 36 symbols: a composition read as a base-(n+1) number, 4^36, overflows int64
    element = random_element(6, 3, seed=3)
    _assert_same_terms(complete_distribution(element).terms, oracle_composition_terms(element))


@pytest.mark.parametrize("m,n,lee", [(2, 8, False), (3, 5, True)])
def test_composition_sums_peak_below_one_and_a_half_elements(m, n, lee):
    # the one per-label array is the intp composition number, half an element
    element = random_element(m, n, seed=9)
    tracemalloc.start()
    try:
        (lee_distribution if lee else complete_distribution)(element)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * element.coeffs.nbytes


def test_wide_composition_sum_peak_within_eight_tables():
    # (13,2) complete: 14,365 compositions of 169 symbols, a 2.3 MiB uint8
    # table against a 0.44 MiB element.  The peak measured 16.9 MiB, the
    # element plus 7.1 tables; with int64 counts it was 28.5 MiB, 12.1 tables.
    element = random_element(13, 2, seed=9)
    tracemalloc.start()
    try:
        counts = complete_distribution(element).counts
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= element.coeffs.nbytes + 8 * counts.size


@pytest.mark.parametrize("m,n", LEE_SIZES)
def test_lee_distribution_matches_table(m, n):
    for element in _elements(m, n, seed=30 * m + n):
        _assert_same_terms(lee_distribution(element).terms,
                           oracle_composition_terms(element, lee=True))


@pytest.mark.parametrize("m,n", SIZES)
def test_exact_and_complete_evaluations_match_table(m, n):
    rng = np.random.default_rng(40 * m + n)
    q = m * m
    for element in _elements(m, n, seed=40 * m + n):
        points = rng.standard_normal((n, q)) + 1j * rng.standard_normal((n, q))
        got = group_algebra.contract_axes(element.coeffs, points[None])[0]
        assert _close(got, oracle_enumerator_value(element, points))
        shared = points[0]
        got = group_algebra.contract_axes(element.coeffs, np.array([[shared] * n]))[0]
        assert _close(got, oracle_enumerator_value(element, shared))


@pytest.mark.parametrize("m,n", LEE_SIZES)
def test_lee_evaluation_matches_table(m, n):
    rng = np.random.default_rng(50 * m + n)
    cls = _lee_class(m)
    for element in _elements(m, n, seed=50 * m + n):
        z = rng.standard_normal(cls.max() + 1) + 1j * rng.standard_normal(cls.max() + 1)
        got = group_algebra.contract_axes(element.coeffs, np.array([[z[cls]] * n]))[0]
        assert _close(got, oracle_enumerator_value(element, z[cls]))


def test_minimum_distance_matches_table(sys2, sys3):
    cases = [(sys2, catalog.load(name)) for name in ("513", "422", "913shor")]
    cases.append((sys3, catalog.load("311qutrit")))
    # the catalog codes in basis form take the dense route (Shor has m^n = 512)
    cases += [(sys_, CodeSpec.from_basis(code.m, code.n,
                                         codewords_from_stabilizers(sys_, code, cap=512)))
              for sys_, code in cases]
    cases += [(sys2, random_code(2, 3, k, seed=70 + k)) for k in (1, 2, 4)]
    cases += [(sys3, random_code(3, 2, k, seed=80 + k)) for k in (1, 3)]
    for sys_, code in cases:
        c = associated_element(sys_, code)
        dual = transform(sys_, c)
        report = analyze(sys_, code)
        assert report.path == ("exact" if code.kind == "stabilizer" else "dense")
        assert report.d == oracle_minimum_distance(c, dual, report.K)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 2), (5, 2)])
def test_multiply_matches_convolution_loop(m, n):
    q = m * m
    a = random_element(m, n, seed=60 + m + n)
    b = random_element(m, n, seed=90 + m + n)
    assert _close(multiply(a, b).coeffs, oracle_multiply(a, b).coeffs)
    # an operand with m^2 terms takes the same kernel route, which rounds at odd m
    rng = np.random.default_rng(m + n)
    sparse = np.zeros(q ** n, dtype=np.complex128)
    sparse[rng.choice(q ** n, size=q, replace=False)] = rng.standard_normal(q)
    s = AlgebraElement(m, n, sparse)
    assert _close(multiply(s, b).coeffs, oracle_multiply(s, b).coeffs)
    assert _close(multiply(b, s).coeffs, oracle_multiply(s, b).coeffs)


def test_no_label_tables_in_group_algebra():
    for name in ("label_digits", "label_weights", "_places"):
        assert not hasattr(group_algebra, name)


def test_public_names_resolve_and_labels_have_one_numbering():
    missing = [name for name in qecalg.__all__ if not hasattr(qecalg, name)]
    assert not missing, missing
    for name in ("encode_label", "decode_index", "add", "scale",
                 "exact_enumerator_value", "symplectic_product", "GroupElement", "character"):
        assert not hasattr(qecalg, name), name
    ordering = qecalg.canonical_ordering(3)
    for name in ("index", "lee_delta", "index_of"):
        assert not hasattr(ordering, name), name


def test_every_cache_is_keyed_by_m_alone():
    cached = []
    for info in pkgutil.iter_modules(qecalg.__path__):
        module = importlib.import_module(f"qecalg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                cached.append(f"{info.name}.{name}")
                assert list(inspect.signature(obj).parameters) == ["m"], cached[-1]
    assert cached

