"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they go.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from qecalg import (
    AlgebraElement,
    CodeSpec,
    analyze,
    associated_element,
    build_pauli_system,
    catalog,
    character,
    check_cs_ordering,
    double_transform_scaling_check,
    dual_element,
    random_code,
    random_element,
    transform,
    transform_naive,
    verify_kernel_row_sums,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
)
from qecalg.oracle import codewords_from_stabilizers, label_digits, oracle_character, verify_basis_axioms


@contextmanager
def criterion(label):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL")
        raise
    print(f"ACCEPTANCE {label}: PASS ({time.perf_counter() - started:.2f}s)")


# seeded random-element corpus shared by criteria 3 and 6
CORPUS_SIZES = [(2, 1, 20), (2, 2, 20), (2, 3, 20), (2, 4, 20), (3, 1, 10), (3, 2, 10)]


def _corpus():
    out = []
    for m, n, count in CORPUS_SIZES:
        for seed in range(count):
            out.append((m, n, random_element(m, n, seed=1000 * m + 10 * n + seed)))
    assert len(out) == 100
    return out


def test_criterion_1_axioms_and_lemma1():
    with criterion("1 (axioms and kernel row sums, m=2..5)"):
        start = time.perf_counter()
        for m in (2, 3, 4, 5):
            sys_ = build_pauli_system(m)
            axioms = verify_basis_axioms(sys_)
            assert axioms.passed and axioms.max_residual < 1e-9
            rows = verify_kernel_row_sums(sys_)
            assert rows.passed and rows.max_residual < 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_2_character_agreement():
    with criterion("2 (trace-formula vs product-formula characters)"):
        for m, n in ((2, 1), (2, 2), (3, 1), (3, 2)):
            sys_ = build_pauli_system(m)
            order = sys_.ordering.order
            digits = label_digits(m, n)
            worst = 0.0
            for hi in range(digits.shape[0]):
                h = tuple(order[d] for d in digits[hi])
                for gi in range(digits.shape[0]):
                    g = tuple(order[d] for d in digits[gi])
                    product = 1.0 + 0.0j
                    for hc, gc in zip(h, g):
                        product *= character(sys_, hc, gc)
                    worst = max(worst, abs(oracle_character(sys_, h, g) - product))
            assert worst < 1e-12, f"(m={m}, n={n}) residual {worst}"


def test_criterion_3_transform_correctness():
    with criterion("3 (fast vs naive transform + double-transform, 100 elements)"):
        systems = {2: build_pauli_system(2), 3: build_pauli_system(3)}
        for m, n, element in _corpus():
            sys_ = systems[m]
            fast = transform(sys_, element).element.coeffs
            naive = transform_naive(sys_, element).element.coeffs
            assert np.abs(fast - naive).max() < 1e-9
            report = double_transform_scaling_check(sys_, element)
            assert report.passed, report.summary()


def test_criterion_4_five_qubit_code():
    with criterion("4 ([[5,1,3]] analysis, both paths)"):
        start = time.perf_counter()
        sys2 = build_pauli_system(2)
        code = catalog.load("513")
        report = analyze(sys2, code)
        assert (report.K, report.d, report.pure) == (2, 3, True)
        a = report.primary_distribution.a
        a_dual = report.dual_distribution.a
        assert np.abs(a - np.array([1, 0, 0, 0, 15, 0])).max() < 1e-9
        assert np.abs(a_dual - np.array([1, 0, 0, 30, 15, 18])).max() < 1e-9
        assert report.primary_distribution.rounded() == (1, 0, 0, 0, 15, 0)
        assert report.dual_distribution.rounded() == (1, 0, 0, 30, 15, 18)

        vectors = codewords_from_stabilizers(sys2, code)
        basis = CodeSpec.from_basis(2, 5, vectors)
        assert np.abs(
            associated_element(sys2, code).coeffs - associated_element(sys2, basis).coeffs
        ).max() < 1e-9
        assert np.abs(
            dual_element(sys2, code).coeffs - dual_element(sys2, basis).coeffs
        ).max() < 1e-9
        assert time.perf_counter() - start < 5.0


def test_criterion_5_422_and_shor():
    with criterion("5 ([[4,2,2]] and [[9,1,3]] Shor)"):
        start = time.perf_counter()
        sys2 = build_pauli_system(2)
        report = analyze(sys2, catalog.load("422"))
        assert (report.K, report.d, report.pure) == (4, 2, True)
        assert report.dual_distribution.rounded() == (1, 0, 18, 24, 21)

        shor = analyze(sys2, catalog.load("913shor"))
        assert (shor.K, shor.d, shor.pure) == (2, 3, False)
        assert time.perf_counter() - start < 30.0


def test_criterion_6_macwilliams_identities():
    with criterion("6 (enumerator identities on catalog + 100 random elements)"):
        systems = {2: build_pauli_system(2), 3: build_pauli_system(3)}

        catalog_elements = []
        for name in catalog.names():
            code = catalog.load(name)
            sys_ = systems[code.m]
            catalog_elements.append((code.m, code.n, associated_element(sys_, code)))

        for m, n, element in catalog_elements + _corpus():
            sys_ = systems[m]
            t9 = verify_hamming_identity(sys_, element)
            assert t9.passed, f"t9 failed at (m={m}, n={n}): {t9.summary()}"
            t4 = verify_exact_identity(sys_, element, trials=20, seed=7)
            assert t4.passed, f"t4 failed at (m={m}, n={n}): {t4.summary()}"
            t6 = verify_complete_identity(sys_, element, trials=20, seed=8)
            assert t6.passed, f"t6 failed at (m={m}, n={n}): {t6.summary()}"
            if m == 3 and n <= 2:
                t8 = verify_lee_identity(sys_, element, trials=20, seed=9)
                assert t8.passed, f"t8 failed at (m={m}, n={n}): {t8.summary()}"


def test_criterion_7_framework_laws():
    with criterion("7 (framework laws on 100 random codes)"):
        sys2 = build_pauli_system(2)
        cases = [(1, 34), (2, 33), (4, 33)]
        for k, count in cases:
            for seed in range(count):
                code = random_code(2, 3, k, seed=500 * k + seed)
                c = associated_element(sys2, code)
                c_dual = dual_element(sys2, code)
                assert round(2 ** 3 / c.mass.real) == k
                assert abs(2 ** 3 / c.mass.real - k) < 1e-6
                assert abs(c.coeffs[0] - 1.0) < 1e-9
                assert abs(c_dual.coeffs[0] - 1.0) < 1e-9
                assert (c.coeffs.real <= c_dual.coeffs.real + 1e-9).all()
                via_transform = transform(sys2, c).element.coeffs
                assert np.abs(c_dual.coeffs - via_transform).max() < 1e-9
                assert check_cs_ordering(sys2, code).passed


def test_criterion_8_performance_floor():
    with criterion("8 (fast transform m=2, n=8 under 1 s single-threaded)"):
        sys2 = build_pauli_system(2)
        element = random_element(2, 8, seed=99)
        transform(sys2, random_element(2, 2, seed=1), threads=1)  # warm caches
        start = time.perf_counter()
        result = transform(sys2, element, threads=1)
        elapsed = time.perf_counter() - start
        assert result.element.size == 65536
        assert elapsed < 1.0, f"transform took {elapsed:.3f}s"
