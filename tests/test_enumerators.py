import itertools
from math import comb

import numpy as np
import pytest

from qecalg import (
    AlgebraElement,
    GroupElement,
    associated_element,
    canonical_ordering,
    complete_distribution,
    composition,
    hamming_distribution,
    lee_composition,
    lee_distribution,
    macwilliams_hamming,
    random_element,
    transform,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
)
from qecalg.enumerators import _lee_class
from qecalg.errors import EvenM


# --- independent oracles ---

def five_qubit_group_by_subsets():
    """All 16 stabilizer elements as exponent vectors, from scratch."""
    gens = [
        [(1, 0), (0, 1), (0, 1), (1, 0), (0, 0)],
        [(0, 0), (1, 0), (0, 1), (0, 1), (1, 0)],
        [(1, 0), (0, 0), (1, 0), (0, 1), (0, 1)],
        [(0, 1), (1, 0), (0, 0), (1, 0), (0, 1)],
    ]
    elements = set()
    for picks in itertools.product([0, 1], repeat=4):
        acc = [(0, 0)] * 5
        for take, gen in zip(picks, gens):
            if take:
                acc = [((a + c) % 2, (b + d) % 2) for (a, b), (c, d) in zip(acc, gen)]
        elements.add(tuple(acc))
    return elements


def poly_substitution_coeffs(a_coeffs, q):
    """Coefficients of (1/M) W(x+(q-1)y, x-y) by plain convolution in t=y/x."""
    n = len(a_coeffs) - 1
    mass = sum(a_coeffs)
    out = np.zeros(n + 1)
    for j, aj in enumerate(a_coeffs):
        if aj == 0:
            continue
        term = np.array([1.0])
        for _ in range(n - j):
            term = np.convolve(term, [1.0, q - 1.0])
        for _ in range(j):
            term = np.convolve(term, [1.0, -1.0])
        out[: len(term)] += aj * term
    return out / mass


# --- compositions ---

def test_composition_examples():
    ord2 = canonical_ordering(2)
    z = GroupElement(0, 0)
    assert composition((z, z), ord2) == (2, 0, 0, 0)
    label = (GroupElement(0, 1), GroupElement(0, 1), GroupElement(1, 0))
    assert composition(label, ord2) == (0, 2, 1, 0)
    rng = np.random.default_rng(0)
    for _ in range(20):
        lab = tuple(ord2.order[i] for i in rng.integers(0, 4, size=6))
        assert sum(composition(lab, ord2)) == 6


def test_lee_composition_examples():
    ord3 = canonical_ordering(3)
    z = GroupElement(0, 0)
    assert lee_composition((z, z, z), ord3) == (3, 0, 0, 0, 0)
    # alpha_{9-2} = -alpha_2 belongs to Lee class 2
    lab = (ord3.order[9 - 2],)
    assert lee_composition(lab, ord3) == (0, 0, 1, 0, 0)
    with pytest.raises(EvenM):
        lee_composition((z,), canonical_ordering(2))


def test_lee_class_pairing():
    ord3 = canonical_ordering(3)
    cls = _lee_class(3)
    for i in range(1, 5):
        assert cls[i] == i
        assert cls[9 - i] == i
    assert cls[0] == 0


# --- distributions ---

def test_complete_distribution_unit():
    for m, n in ((2, 2), (3, 1), (2, 4)):
        dist = complete_distribution(AlgebraElement.unit(m, n))
        key = (n,) + (0,) * (m * m - 1)
        assert dist.terms == {key: 1.0}


def test_complete_distribution_full_sum_m2_n1():
    dist = complete_distribution(AlgebraElement(2, 1, np.ones(4)))
    assert len(dist.terms) == 4
    for key, val in dist.terms.items():
        assert sum(key) == 1 and val == 1.0


def test_complete_distribution_five_qubit(sys2, five_qubit_code):
    element = associated_element(sys2, five_qubit_code)
    dist = complete_distribution(element)
    assert sum(abs(v) for v in dist.terms.values()) == pytest.approx(16.0)
    assert sum(v.real for v in dist.terms.values()) == pytest.approx(element.mass.real)


def test_lee_distribution_m3():
    unit = AlgebraElement.unit(3, 1)
    assert lee_distribution(unit).terms == {(1, 0, 0, 0, 0): 1.0}
    full = AlgebraElement(3, 1, np.ones(9))
    terms = lee_distribution(full).terms
    assert terms[(1, 0, 0, 0, 0)] == 1.0
    for s in range(1, 5):
        key = tuple(1 if i == s else 0 for i in range(5))
        assert terms[key] == 2.0  # +- pairs merged
    with pytest.raises(EvenM):
        lee_distribution(AlgebraElement.unit(2, 1))


def test_lee_from_complete_merging(sys3):
    # setting paired variables equal in the complete distribution reproduces Lee
    q, delta = 9, 4
    for seed in range(5):
        e = random_element(3, 2, seed=seed)
        complete = complete_distribution(e).terms
        merged = {}
        for key, val in complete.items():
            lee_key = (key[0],) + tuple(key[i] + key[q - i] for i in range(1, delta + 1))
            merged[lee_key] = merged.get(lee_key, 0.0) + val
        lee = lee_distribution(e).terms
        assert set(merged) == set(lee)
        for key in merged:
            assert merged[key] == pytest.approx(lee[key], abs=1e-12)


def test_hamming_distribution_unit():
    dist = hamming_distribution(AlgebraElement.unit(2, 3))
    assert np.array_equal(dist.a.real, [1, 0, 0, 0])
    assert dist.rounded() == (1, 0, 0, 0)


def test_hamming_five_qubit_against_subset_closure(sys2, five_qubit_code):
    group = five_qubit_group_by_subsets()
    weights = [sum(1 for pair in lab if pair != (0, 0)) for lab in group]
    expected = [weights.count(i) for i in range(6)]
    assert expected == [1, 0, 0, 0, 15, 0]

    element = associated_element(sys2, five_qubit_code)
    assert hamming_distribution(element).rounded() == tuple(expected)
    dual = transform(sys2, element).element
    assert hamming_distribution(dual).rounded() == (1, 0, 0, 30, 15, 18)


def test_four_two_two_distributions(sys2, four_two_two_code):
    element = associated_element(sys2, four_two_two_code)
    assert hamming_distribution(element).rounded() == (1, 0, 0, 0, 3)
    dual = transform(sys2, element).element
    assert hamming_distribution(dual).rounded() == (1, 0, 18, 24, 21)


def test_distribution_sums_equal_mass(sys2, sys3):
    for m, n in ((2, 2), (2, 3), (3, 2)):
        e = random_element(m, n, seed=m * 10 + n)
        total_complete = sum(complete_distribution(e).terms.values())
        total_hamming = hamming_distribution(e).a.sum()
        assert total_complete == pytest.approx(e.mass, abs=1e-9)
        assert total_hamming == pytest.approx(e.mass, abs=1e-9)


def test_specialization_chain_complete_to_hamming():
    for m, n in ((2, 3), (3, 2)):
        e = random_element(m, n, seed=5 * m + n)
        complete = complete_distribution(e).terms
        a = np.zeros(n + 1, dtype=complex)
        for key, val in complete.items():
            a[n - key[0]] += val
        assert np.abs(a - hamming_distribution(e).a).max() < 1e-12


# --- MacWilliams identities ---

def test_exact_and_complete_identity_unit_element(sys2):
    z0 = AlgebraElement.unit(2, 2)
    assert verify_exact_identity(sys2, z0, trials=10).passed
    assert verify_complete_identity(sys2, z0, trials=10).passed


def test_exact_identity_code_and_random(sys2, five_qubit_code):
    element = associated_element(sys2, five_qubit_code)
    report = verify_exact_identity(sys2, element, trials=20, seed=3)
    assert report.passed, report.summary()
    for seed in range(5):
        assert verify_exact_identity(sys2, random_element(2, 2, seed), trials=20).passed


def test_complete_identity_code_and_random(sys2, sys3, four_two_two_code):
    element = associated_element(sys2, four_two_two_code)
    assert verify_complete_identity(sys2, element, trials=20, seed=1).passed
    for seed in range(5):
        assert verify_complete_identity(sys3, random_element(3, 2, seed), trials=20).passed


def test_lee_identity_trivial_and_derived(sys3):
    assert verify_lee_identity(sys3, AlgebraElement.unit(3, 1), trials=10).passed
    # indicator of the identity plus one +- pair in coordinate 1
    ord3 = canonical_ordering(3)
    zero = GroupElement(0, 0)
    labels = [
        (zero, zero),
        (ord3.order[1], zero),
        (ord3.order[8], zero),  # the negation of order[1]
    ]
    e = AlgebraElement.indicator(3, 2, labels)
    assert verify_lee_identity(sys3, e, trials=20, seed=2).passed
    for seed in range(5):
        assert verify_lee_identity(sys3, random_element(3, 2, seed), trials=20).passed


def test_lee_identity_rejects_even_m(sys2):
    with pytest.raises(EvenM):
        verify_lee_identity(sys2, AlgebraElement.unit(2, 1), trials=5)


def test_hamming_identity_literal_expansions(sys2, five_qubit_code, four_two_two_code):
    # [[5,1,3]]: (1/16)[(x+3y)^5 + 15(x+3y)(x-y)^4]
    rhs = poly_substitution_coeffs([1, 0, 0, 0, 15, 0], q=4)
    assert np.array_equal(rhs, [1, 0, 0, 30, 15, 18])
    element = associated_element(sys2, five_qubit_code)
    assert np.abs(macwilliams_hamming(hamming_distribution(element), element.mass) - rhs).max() < 1e-12
    assert verify_hamming_identity(sys2, element).passed

    # [[4,2,2]]: (1/4)[(x+3y)^4 + 3(x-y)^4]
    rhs = poly_substitution_coeffs([1, 0, 0, 0, 3], q=4)
    assert np.array_equal(rhs, [1, 0, 18, 24, 21])
    element = associated_element(sys2, four_two_two_code)
    assert verify_hamming_identity(sys2, element).passed


def test_hamming_identity_unit_element(sys2, sys3):
    # W_C = x^n maps to (x + (m^2-1)y)^n, the enumerator of the full sum
    for sys_, m, n in ((sys2, 2, 3), (sys3, 3, 2)):
        z0 = AlgebraElement.unit(m, n)
        assert verify_hamming_identity(sys_, z0).passed
        full = transform(sys_, z0).element
        got = hamming_distribution(full).a.real
        q = m * m
        expected = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
        assert np.abs(got - expected).max() < 1e-9


def test_hamming_identity_random(sys2, sys3):
    for sys_, m, n in ((sys2, 2, 2), (sys2, 2, 4), (sys3, 3, 2)):
        for seed in range(8):
            report = verify_hamming_identity(sys_, random_element(m, n, seed))
            assert report.passed, report.summary()


def test_evaluation_and_closed_form_agree(sys2):
    # evaluating the complete-enumerator substitution at z_0=x, z_!=0=y must
    # reproduce the Hamming closed form
    e = random_element(2, 3, seed=9)
    dual = transform(sys2, e).element
    rng = np.random.default_rng(12)
    x, y = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    q, n = 4, 3
    z = np.full(q, y, dtype=complex)
    z[0] = x
    w = z @ sys2.kernel
    digits_val_lhs = hamming_distribution(dual).a @ np.array(
        [x ** (n - i) * y ** i for i in range(n + 1)]
    )
    rhs_coeffs = macwilliams_hamming(hamming_distribution(e), e.mass)
    rhs_closed = rhs_coeffs @ np.array([x ** (n - i) * y ** i for i in range(n + 1)])
    # substitution route: w[r] = x + stuff; evaluate W_C at the substituted values
    from qecalg.oracle import label_digits
    digs = label_digits(2, 3)
    prods = np.ones(len(digs), dtype=complex)
    for i in range(n):
        prods *= w[digs[:, i]]
    rhs_subst = (e.coeffs @ prods) / e.mass
    assert abs(digits_val_lhs - rhs_closed) < 1e-9 * max(1.0, abs(rhs_closed))
    assert abs(rhs_subst - rhs_closed) < 1e-9 * max(1.0, abs(rhs_closed))
