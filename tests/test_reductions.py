"""Axis-wise reductions against the per-label table references in oracle.py."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import qecalg
from qecalg import (
    AlgebraElement,
    analyze,
    associated_element,
    catalog,
    complete_distribution,
    exact_enumerator_value,
    hamming_distribution,
    lee_distribution,
    multiply,
    random_code,
    random_element,
    transform,
)
from qecalg import group_algebra
from qecalg.code_analysis import _minimum_distance
from qecalg.enumerators import _lee_class
from qecalg.oracle import (
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
    dual = transform(sys2, element).element
    for e in (element, dual):
        assert np.array_equal(hamming_distribution(e).a, oracle_hamming_distribution(e))


@pytest.mark.parametrize("m,n", SIZES)
def test_complete_distribution_matches_table(m, n):
    for element in _elements(m, n, seed=20 * m + n):
        _assert_same_terms(complete_distribution(element).terms, oracle_composition_terms(element))


def test_complete_distribution_drops_cancelled_keys():
    m, n = 3, 2
    _, element = _elements(m, n, seed=5)
    key = [0] * (m * m)
    key[1] = key[2] = 1
    terms = complete_distribution(element).terms
    assert tuple(key) not in terms
    assert tuple(key) not in oracle_composition_terms(element)


def test_complete_distribution_several_key_columns():
    # (n+1)^(m^2) = 4^36 overflows int64, so the keys take two columns
    element = random_element(6, 3, seed=3)
    _assert_same_terms(complete_distribution(element).terms, oracle_composition_terms(element))


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
        got = exact_enumerator_value(element, points)
        assert _close(got, oracle_enumerator_value(element, points))
        shared = points[0]
        got = group_algebra.contract_axes(element.coeffs, [shared] * n)
        assert _close(got, oracle_enumerator_value(element, shared))


@pytest.mark.parametrize("m,n", LEE_SIZES)
def test_lee_evaluation_matches_table(m, n):
    rng = np.random.default_rng(50 * m + n)
    cls = _lee_class(m)
    for element in _elements(m, n, seed=50 * m + n):
        z = rng.standard_normal(cls.max() + 1) + 1j * rng.standard_normal(cls.max() + 1)
        got = group_algebra.contract_axes(element.coeffs, [z[cls]] * n)
        assert _close(got, oracle_enumerator_value(element, z[cls]))


def test_minimum_distance_matches_table(sys2, sys3):
    cases = [(sys2, catalog.load(name)) for name in ("513", "422", "913shor")]
    cases.append((sys3, catalog.load("311qutrit")))
    cases += [(sys2, random_code(2, 3, k, seed=70 + k)) for k in (1, 2, 4)]
    cases += [(sys3, random_code(3, 2, k, seed=80 + k)) for k in (1, 3)]
    for sys_, code in cases:
        c = associated_element(sys_, code)
        dual = transform(sys_, c).element
        k = analyze(sys_, code).K
        want = oracle_minimum_distance(c, dual, k)
        assert _minimum_distance(code.m, code.n, c.coeffs, dual.coeffs, k) == want


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
def test_multiply_matches_convolution_loop(m, n):
    q = m * m
    a = random_element(m, n, seed=60 + m + n)
    b = random_element(m, n, seed=90 + m + n)
    # dense operands take the transform route
    assert _close(multiply(a, b).coeffs, oracle_multiply(a, b).coeffs)
    # an operand with at most m^2 terms is shifted term by term, exactly
    rng = np.random.default_rng(m + n)
    sparse = np.zeros(q ** n, dtype=np.complex128)
    sparse[rng.choice(q ** n, size=q, replace=False)] = rng.standard_normal(q)
    s = AlgebraElement(m, n, sparse)
    assert np.array_equal(multiply(s, b).coeffs, oracle_multiply(s, b).coeffs)
    assert _close(multiply(b, s).coeffs, oracle_multiply(s, b).coeffs)


def test_no_label_tables_in_group_algebra():
    for name in ("label_digits", "label_weights", "_places"):
        assert not hasattr(group_algebra, name)


def test_every_cache_is_keyed_by_m_alone():
    cached = []
    for info in pkgutil.iter_modules(qecalg.__path__):
        module = importlib.import_module(f"qecalg.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                cached.append(f"{info.name}.{name}")
                assert list(inspect.signature(obj).parameters) == ["m"], cached[-1]
    assert cached

