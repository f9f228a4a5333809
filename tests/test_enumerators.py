import dataclasses
import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from qecalg import (
    AlgebraElement,
    PhaseSystem,
    associated_element,
    canonical_ordering,
    check_cs_ordering,
    complete_distribution,
    double_transform_scaling_check,
    hamming_distribution,
    lee_distribution,
    macwilliams_hamming,
    random_code,
    random_element,
    transform,
    verify_basis_axioms,
    verify_exact_identity,
    verify_complete_identity,
    verify_lee_identity,
    verify_hamming_identity,
    verify_kernel_row_sums,
)
from qecalg import build_pauli_system, code_analysis, enumerators
from qecalg.enumerators import _lee_class, macwilliams_terms
from qecalg.errors import EvenM
from macwilliams_reference import binomial_terms


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

def test_lee_class_pairing():
    ord3 = canonical_ordering(3)
    cls = _lee_class(3)
    for i in range(1, 5):
        assert cls[i] == i
        assert cls[9 - i] == i
    assert cls[0] == 0


@pytest.mark.parametrize("m", [3, 5, 7, 9, 15])
def test_lee_class_is_the_smaller_index_of_g_and_minus_g(m):
    # -g formed coordinate by coordinate, its index looked up in the ordering
    order = canonical_ordering(m).order.tolist()
    index = {tuple(g): i for i, g in enumerate(order)}
    want = [min(i, index[(-a % m, -b % m)]) for i, (a, b) in enumerate(order)]
    cls = _lee_class(m)
    assert cls.dtype == np.int64 and cls.tolist() == want


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


def test_infinite_imaginary_part_keeps_real_parts():
    # re + 1j*im would give the inf entry a NaN real part (0 * inf)
    coeffs = np.array([1, complex(2, np.inf), 3, 0, 5, 6, 7, 8, 0j, 1, 2, 3, 4, 5, 6, 7])
    for dist in (complete_distribution(AlgebraElement(2, 2, coeffs)),
                 lee_distribution(AlgebraElement(3, 1, coeffs[:9]))):
        assert np.isfinite(dist.values.real).all()
        assert np.isinf(dist.values.imag).sum() == 1


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
    dual = transform(sys2, element)
    assert hamming_distribution(dual).rounded() == (1, 0, 0, 30, 15, 18)


def test_four_two_two_distributions(sys2, four_two_two_code):
    element = associated_element(sys2, four_two_two_code)
    assert hamming_distribution(element).rounded() == (1, 0, 0, 0, 3)
    dual = transform(sys2, element)
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
    # indicator of the identity plus one +- pair in coordinate 1: ordering
    # indices 1 and 8 (its negation), with coordinate 2 at the identity
    e = AlgebraElement.indicator(3, 2, np.ravel_multi_index(([0, 1, 8], [0, 0, 0]), (9, 9)))
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
        full = transform(sys_, z0)
        got = hamming_distribution(full).a.real
        q = m * m
        expected = [comb(n, i) * (q - 1) ** i for i in range(n + 1)]
        assert np.abs(got - expected).max() < 1e-9


def test_hamming_identity_random(sys2, sys3):
    for sys_, m, n in ((sys2, 2, 2), (sys2, 2, 4), (sys3, 3, 2)):
        for seed in range(8):
            report = verify_hamming_identity(sys_, random_element(m, n, seed))
            assert report.passed, report.summary()


@pytest.mark.parametrize("q", [4, 9, 16, 25, 36, 144])
def test_krawtchouk_columns_match_the_binomial_expansion_exactly(q):
    # signed A, about 30 % of it zero, with values beyond int64 in A'
    rng = np.random.default_rng(q)
    for n in range(1, 45):
        a = (rng.integers(-2 ** 40, 2 ** 40, n + 1) * (rng.random(n + 1) < 0.7)).tolist()
        assert macwilliams_terms(a, q, n) == binomial_terms(a, q, n)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 5), (2, 8), (3, 4), (4, 3), (6, 2)])
def test_dense_t9_matches_the_binomial_expansion(m, n):
    for seed in range(5):
        e = random_element(m, n, seed)
        dist = hamming_distribution(e)
        want = np.array(binomial_terms(dist.a, m * m, n), complex) / e.mass
        got = macwilliams_hamming(dist, e.mass)
        assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()


def test_evaluation_and_closed_form_agree(sys2):
    # evaluating the complete-enumerator substitution at z_0=x, z_!=0=y must
    # reproduce the Hamming closed form
    e = random_element(2, 3, seed=9)
    dual = transform(sys2, e)
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


def _with_nan(coeffs):
    """A copy of `coeffs` with a NaN at flat label 5, of weight 1 when (m, n) = (3, 2)."""
    out = coeffs.copy()
    out[5] = np.nan
    return out


@pytest.mark.parametrize("check", [verify_exact_identity, verify_complete_identity,
                                   verify_lee_identity, verify_hamming_identity,
                                   double_transform_scaling_check, check_cs_ordering,
                                   verify_kernel_row_sums, verify_basis_axioms])
def test_evaluation_identities_fail_on_nan(sys3, monkeypatch, check):
    # every check fails on one NaN, with a NaN max_residual and failures naming
    # the NaN's entry: every trial, every weight and every label once the NaN
    # has spread through the mass M, else its own label, h indices or axiom tag
    if check in (verify_kernel_row_sums, verify_basis_axioms):
        omega = sys3.omega.copy()
        omega[1, 2] = np.nan
        broken = PhaseSystem(omega=omega, ordering=sys3.ordering, matrices=sys3.matrices)
        report = check(broken)
        expected = (1, 2) if check is verify_kernel_row_sums else (("closure", 1, 2),)
    elif check is check_cs_ordering:
        # a code's C has no NaN, so the NaN comes in through C'
        monkeypatch.setattr(code_analysis, "transform", lambda sys_, c: AlgebraElement(
            c.m, c.n, _with_nan(transform(sys_, c).coeffs)))
        report, expected = check(sys3, random_code(3, 2, 2, seed=1)), (5,)
    else:
        element = AlgebraElement(3, 2, _with_nan(random_element(3, 2, 4).coeffs))
        with np.errstate(invalid="ignore"):
            if check in (verify_hamming_identity, double_transform_scaling_check):
                report = check(sys3, element)
            else:
                report = check(sys3, element, 3, seed=1)
        expected = tuple(range(81 if check is double_transform_scaling_check else 3))
    assert not report.passed
    assert report.failures == expected
    assert np.isnan(report.max_residual)


@pytest.mark.parametrize("trials", [0, -3])
@pytest.mark.parametrize("check", [verify_exact_identity, verify_complete_identity,
                                   verify_lee_identity])
def test_evaluation_identities_reject_no_trials(sys3, check, trials):
    # a check that evaluates nothing must not report a pass
    with pytest.raises(ValueError, match=f"needs trials >= 1, got {trials}"):
        check(sys3, random_element(3, 2, 4), trials)


# --- the batched trials against a loop over trials ---

def _contract_one(values, vectors):
    """sum_g values[g] prod_i vectors[i][g_i], one trial, one axis at a time."""
    t = values
    for v in vectors:
        t = v @ t.reshape(len(v), -1)
    return complex(t[0])


def _per_trial_reference(check, sys, a, trials, seed):
    """(points for C', values at C' and at C, residuals) of an evaluation
    check, drawn and evaluated one trial at a time: a radius draw and an
    angle draw per trial."""
    rng = np.random.default_rng(seed)
    dual = transform(sys, a)
    q, n = sys.q, a.n
    delta = (q - 1) // 2
    shape = {verify_exact_identity: (n, q), verify_complete_identity: q,
             verify_lee_identity: delta + 1}[check]
    points, values, residuals = [], [], []
    for _ in range(trials):
        r = np.sqrt(rng.random(shape))
        theta = rng.random(shape) * 2 * np.pi
        z = r * np.exp(1j * theta)
        if check is verify_exact_identity:
            zc, w = z, z @ sys.kernel
        elif check is verify_complete_identity:
            zc, w = [z] * n, [z @ sys.kernel] * n
        else:
            cls = _lee_class(sys.m)
            subst = np.zeros((delta + 1, delta + 1))
            subst[:, 0] = 1.0
            subst[:, 1:] = 2.0 * sys.kernel[1:delta + 1, :delta + 1].real.T
            zc, w = [z[cls]] * n, [(subst @ z)[cls]] * n
        lhs = _contract_one(dual.coeffs, zc)
        rhs = _contract_one(a.coeffs, w) / a.mass
        points.append(np.array(zc))
        values.append((lhs, rhs))
        residuals.append(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return np.array(points), np.array(values).T, np.array(residuals)


def _check_against_reference(monkeypatch, check, sys, a, trials, seed):
    """Run `check`, recording the points it draws for C' and its per-trial
    residuals (from its two evaluations, C' then C), and compare them with
    the per-trial reference; returns the report."""
    seen = {"values": []}
    real_check, real_contract = enumerators._evaluation_check, enumerators.contract_axes

    def spy_check(name, sys_, a_, trials_, seed_, draw):
        def recording_draw(rng, count):
            z, w = draw(rng, count)
            seen["points"] = np.ascontiguousarray(z)
            return z, w
        return real_check(name, sys_, a_, trials_, seed_, recording_draw)

    def spy_contract(values, vectors):
        out = real_contract(values, vectors)
        seen["values"].append(out)
        return out

    monkeypatch.setattr(enumerators, "_evaluation_check", spy_check)
    monkeypatch.setattr(enumerators, "contract_axes", spy_contract)
    report = check(sys, a, trials, seed=seed)
    lhs, rhs = seen["values"][0], seen["values"][1] / a.mass
    residuals = np.abs(lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)

    want_points, (want_lhs, want_rhs), want_residuals = _per_trial_reference(
        check, sys, a, trials, seed)
    assert seen["points"].shape == want_points.shape == (trials, a.n, sys.q)
    assert seen["points"].view(np.uint64).tolist() == want_points.view(np.uint64).tolist()
    assert np.abs(residuals - want_residuals).max() <= 1e-13
    for got, want in ((lhs, want_lhs), (rhs, want_rhs)):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    assert abs(report.max_residual - want_residuals.max()) <= 1e-13
    want_bad = tuple(int(t) for t in np.flatnonzero(~(want_residuals <= 1e-9)))
    assert report.failures == want_bad and report.passed == (not want_bad)
    return report


_DIFFERENTIAL_CASES = [
    (check, m, n)
    for m, n in ((2, 1), (2, 3), (3, 3), (4, 2), (5, 2))
    for check in (verify_exact_identity, verify_complete_identity, verify_lee_identity)
    if check is not verify_lee_identity or m % 2
]


# 17 and 82 trials cross a chunk of m^4 trials at m = 2 and m = 3; n = 1
# contracts a single axis
@pytest.mark.parametrize("trials", [1, 7, 17, 20, 82])
@pytest.mark.parametrize("check,m,n", _DIFFERENTIAL_CASES)
def test_batched_trials_match_per_trial_loop(monkeypatch, check, m, n, trials):
    a = random_element(m, n, seed=10 * m + n)
    report = _check_against_reference(monkeypatch, check, build_pauli_system(m), a, trials,
                                       seed=3 * m + trials)
    assert report.passed


def test_batched_trials_match_per_trial_loop_failing_lee(monkeypatch, sys3):
    # a phase off by 1e-8, and so the two kernel entries made from it, breaks
    # the Lee identity in most, not all, trials
    omega = sys3.omega.copy()
    omega[1, 2] *= 1 + 1e-8
    sys_ = dataclasses.replace(sys3, omega=omega)
    report = _check_against_reference(monkeypatch, verify_lee_identity, sys_,
                                      random_element(3, 3, 1), 20, seed=4)
    assert 0 < len(report.failures) < 20


@pytest.mark.parametrize("check", [verify_exact_identity, verify_complete_identity])
def test_evaluation_check_memory(sys2, check):
    # C' and the first contraction's (16 trials, 4^7) output, each the size of C
    a = random_element(2, 9, seed=5, nonneg=True)
    tracemalloc.start()
    try:
        report = check(sys2, a, 16, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 2.3 * a.coeffs.nbytes, f"traced peak {peak / a.coeffs.nbytes:.2f} x the element"
