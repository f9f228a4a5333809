import numpy as np
import pytest

from qecalg import (
    AlgebraElement,
    CodeSpec,
    GroupElement,
    analyze,
    associated_element,
    check_cs_ordering,
    dual_element,
    encode_label,
    pauli_label,
    random_code,
    symplectic_product,
    transform,
)
from qecalg.code_analysis import BasisVectors, _minimum_distance, stabilizer_group_indices
from qecalg.errors import (
    NoDistance,
    NonCommutingGenerators,
    NonIntegerDimension,
    NonOrthonormalBasis,
)
from qecalg.oracle import codewords_from_stabilizers, label_digits, oracle_dual_element


def full_space_code(m, n):
    return CodeSpec.from_basis(m, n, np.eye(m ** n, dtype=complex))


def test_pauli_label_helper():
    assert pauli_label("XZZXI") == (
        GroupElement(1, 0), GroupElement(0, 1), GroupElement(0, 1),
        GroupElement(1, 0), GroupElement(0, 0),
    )
    with pytest.raises(ValueError):
        pauli_label("XQ")


def test_associated_full_space(sys2):
    element = associated_element(sys2, full_space_code(2, 1))
    expected = np.zeros(4)
    expected[0] = 1.0
    assert np.abs(element.coeffs - expected).max() < 1e-12


def test_associated_ket_zero_code(sys2):
    # |0> on one qubit: overlaps <0|X^a Z^b|0> are 1, 1, 0, 0
    code = CodeSpec.from_basis(2, 1, np.array([[1.0, 0.0]], dtype=complex))
    element = associated_element(sys2, code)
    got = {
        (0, 0): element.coeffs[encode_label(2, (GroupElement(0, 0),))],
        (0, 1): element.coeffs[encode_label(2, (GroupElement(0, 1),))],
        (1, 0): element.coeffs[encode_label(2, (GroupElement(1, 0),))],
        (1, 1): element.coeffs[encode_label(2, (GroupElement(1, 1),))],
    }
    assert got[(0, 0)] == pytest.approx(1.0)
    assert got[(0, 1)] == pytest.approx(1.0)
    assert abs(got[(1, 0)]) < 1e-12
    assert abs(got[(1, 1)]) < 1e-12


def test_associated_five_qubit_both_paths(sys2, five_qubit_code):
    stab = associated_element(sys2, five_qubit_code)
    assert stab.mass == pytest.approx(16.0)
    assert set(np.unique(stab.coeffs.real)) == {0.0, 1.0}

    vectors = codewords_from_stabilizers(sys2, five_qubit_code)
    basis = CodeSpec.from_basis(2, 5, vectors)
    from_basis = associated_element(sys2, basis)
    assert np.abs(stab.coeffs - from_basis.coeffs).max() < 1e-9


def test_dual_full_space(sys2, sys3):
    for sys_, m, n in ((sys2, 2, 2), (sys3, 3, 1)):
        dual = dual_element(sys_, full_space_code(m, n))
        assert np.abs(dual.coeffs - 1.0).max() < 1e-9


def test_dual_equals_primary_for_k1(sys2):
    code = random_code(2, 3, 1, seed=17)
    c = associated_element(sys2, code)
    cd = dual_element(sys2, code)
    assert np.abs(c.coeffs - cd.coeffs).max() < 1e-9


def test_dual_five_qubit_normalizer(sys2, five_qubit_code):
    dual = dual_element(sys2, five_qubit_code)
    assert dual.mass == pytest.approx(64.0)
    members = np.nonzero(dual.coeffs.real > 0.5)[0]
    assert len(members) == 64
    from qecalg import decode_index
    for idx in members:
        label = decode_index(2, 5, int(idx))
        assert all(
            symplectic_product(label, gen, 2) == 0 for gen in five_qubit_code.body.labels
        )


def test_dual_routes_agree(sys2):
    # the closed form c'_h = (1/K) sum_ij |<v_i|E_h|v_j>|^2, computed by the
    # dense-matrix oracle, against the library's single route
    for k, seed in ((1, 3), (2, 4), (4, 5)):
        code = random_code(2, 3, k, seed=seed)
        direct = oracle_dual_element(sys2, code)
        via_transform = transform(sys2, associated_element(sys2, code)).element
        assert np.abs(direct.coeffs - via_transform.coeffs).max() < 1e-9


def test_analyze_five_qubit(sys2, five_qubit_code):
    report = analyze(sys2, five_qubit_code)
    assert (report.K, report.d, report.pure) == (2, 3, True)
    assert report.mass == pytest.approx(16.0)
    assert report.primary_distribution.rounded() == (1, 0, 0, 0, 15, 0)
    assert report.dual_distribution.rounded() == (1, 0, 0, 30, 15, 18)


def test_analyze_four_two_two(sys2, four_two_two_code):
    report = analyze(sys2, four_two_two_code)
    assert (report.K, report.d, report.pure) == (4, 2, True)
    assert report.primary_distribution.rounded() == (1, 0, 0, 0, 3)
    assert report.dual_distribution.rounded() == (1, 0, 18, 24, 21)


def test_analyze_shor_impure(sys2, shor_code):
    report = analyze(sys2, shor_code)
    assert (report.K, report.d, report.pure) == (2, 3, False)
    # the stabilizer contains weight-2 elements (Z1 Z2), below d
    assert report.primary_distribution.a[2].real > 0


def test_analyze_full_space(sys2):
    report = analyze(sys2, full_space_code(2, 2))
    assert (report.K, report.d) == (4, 1)


def test_shor_basis_path_agrees(sys2, shor_code):
    vectors = codewords_from_stabilizers(sys2, shor_code, cap=512)
    basis = CodeSpec.from_basis(2, 9, vectors)
    c_stab = associated_element(sys2, shor_code)
    c_basis = associated_element(sys2, basis)
    assert np.abs(c_stab.coeffs - c_basis.coeffs).max() < 1e-9
    d_stab = dual_element(sys2, shor_code)
    d_basis = dual_element(sys2, basis)
    assert np.abs(d_stab.coeffs - d_basis.coeffs).max() < 1e-9


def test_qutrit_repetition(sys3, qutrit_rep_code):
    report = analyze(sys3, qutrit_rep_code)
    assert report.K == 3
    assert report.d == 1
    element = associated_element(sys3, qutrit_rep_code)
    assert element.mass == pytest.approx(9.0)


def test_composite_m_closure():
    # m = 4 is not a prime power of the index-group exponent structure the
    # binary case enjoys; the closure must still be a plain subgroup
    gens = [((0, 1), (0, 3))]
    code = CodeSpec.from_stabilizers(4, 2, gens)
    idx = stabilizer_group_indices(code)
    assert len(idx) == 4
    sys4 = __import__("qecalg").build_pauli_system(4)
    report = analyze(sys4, code)
    assert report.K == 4 ** 2 / 4


def test_check_cs_ordering(sys2, five_qubit_code):
    report = check_cs_ordering(sys2, five_qubit_code)
    assert report.passed
    # strict inequality exactly on normalizer minus stabilizer
    c = associated_element(sys2, five_qubit_code).coeffs.real
    cd = dual_element(sys2, five_qubit_code).coeffs.real
    strict = np.nonzero(cd - c > 0.5)[0]
    assert len(strict) == 64 - 16
    k1 = random_code(2, 3, 1, seed=8)
    rep = check_cs_ordering(sys2, k1)
    assert rep.passed and rep.max_residual < 1e-9


def test_random_code_properties(sys2):
    code_a = random_code(2, 3, 2, seed=123)
    code_b = random_code(2, 3, 2, seed=123)
    assert np.array_equal(code_a.body.vectors, code_b.body.vectors)
    full = random_code(2, 2, 4, seed=9)
    report = analyze(sys2, full)
    assert (report.K, report.d) == (4, 1)
    with pytest.raises(ValueError):
        random_code(2, 2, 5, seed=0)


def test_unitary_invariance(sys2):
    code = random_code(2, 3, 4, seed=31)
    v = code.body.vectors
    rng = np.random.default_rng(77)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    recombined = CodeSpec.from_basis(2, 3, u @ v)
    for op in (associated_element, dual_element):
        assert np.abs(op(sys2, code).coeffs - op(sys2, recombined).coeffs).max() < 1e-9


def test_mass_law_and_unit_coefficients(sys2):
    for k in (1, 2, 4):
        code = random_code(2, 3, k, seed=40 + k)
        c = associated_element(sys2, code)
        cd = dual_element(sys2, code)
        assert 2 ** 3 / c.mass.real == pytest.approx(k, abs=1e-6)
        assert c.coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert cd.coeffs[0] == pytest.approx(1.0, abs=1e-9)


def test_validation_errors(sys2):
    bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NonOrthonormalBasis):
        associated_element(sys2, CodeSpec.from_basis(2, 1, bad))
    with pytest.raises(NonCommutingGenerators):
        associated_element(
            sys2,
            CodeSpec.from_stabilizers(2, 1, [((1, 0),), ((0, 1),)]),
        )


def test_non_integer_dimension(sys2):
    # bypass validation with slightly mis-scaled "orthonormal" vectors
    v = np.eye(2, dtype=complex)[:1] * 1.01
    code = CodeSpec(2, 1, BasisVectors(v))
    with pytest.raises((NonIntegerDimension, NonOrthonormalBasis)):
        analyze(sys2, code)
    # direct guard: doctored coefficients whose mass is irrational
    c = np.array([1.0, 0.3, 0.0, 0.0])
    k_exact = 2 / c.sum()
    assert abs(k_exact - round(k_exact)) > 1e-6


def test_minimum_distance_helper():
    # m=2, n=2: flat index 5 is (X, X), weight 2; index 1 is (I, X), weight 1
    c = np.zeros(16)
    c[[0, 5]] = 1.0
    cd = c.copy()
    cd[1] = 1.0
    assert _minimum_distance(2, 2, c, cd, k=2) == 1
    assert _minimum_distance(2, 2, c, cd, k=1) == 2
    with pytest.raises(NoDistance):
        _minimum_distance(2, 2, c, c, k=2)
    with pytest.raises(NoDistance):
        _minimum_distance(2, 2, np.eye(1, 16)[0], None, k=1)


def test_generic_basis_route_matches_pauli_fast_path(sys2):
    # a system built from explicit Pauli matrices is not flagged as the
    # built-in family, so it exercises the factor-by-factor route; the
    # coefficients must match the shift+phase fast path exactly
    from qecalg import validate_custom_basis
    custom = validate_custom_basis(np.asarray(sys2.matrices))
    assert not custom.pauli and sys2.pauli
    for k, seed in ((1, 51), (3, 52)):
        code = random_code(2, 3, k, seed=seed)
        assert np.abs(
            associated_element(custom, code).coeffs - associated_element(sys2, code).coeffs
        ).max() < 1e-9
        assert np.abs(
            dual_element(custom, code).coeffs - dual_element(sys2, code).coeffs
        ).max() < 1e-9


def test_swapped_convention_basis_same_invariants(sys2, five_qubit_code):
    # E_(a,b) = Z^a X^b is a different nice error basis (different omega);
    # K, d, purity of a code must not depend on the convention
    from qecalg import validate_custom_basis
    from qecalg.oracle import codewords_from_stabilizers, oracle_associated_element

    z = np.diag([1.0, -1.0]).astype(complex)
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    mats = [np.eye(2, dtype=complex), x, z, z @ x]  # ordering (0,0),(0,1),(1,0),(1,1)
    swapped = validate_custom_basis(mats)
    # the operators genuinely differ from the X^a Z^b family (Z@X = -X@Z)
    assert np.abs(np.asarray(swapped.matrices) - np.asarray(sys2.matrices)).max() > 0.5

    vectors = codewords_from_stabilizers(sys2, five_qubit_code)
    code = CodeSpec.from_basis(2, 5, vectors)
    report_pauli = analyze(sys2, code)
    report_swapped = analyze(swapped, code)
    assert (report_pauli.K, report_pauli.d, report_pauli.pure) == (2, 3, True)
    assert (report_swapped.K, report_swapped.d, report_swapped.pure) == (2, 3, True)

    # dense oracle agrees with the generic route under the custom system
    small = random_code(2, 2, 2, seed=61)
    assert np.abs(
        associated_element(swapped, small).coeffs
        - oracle_associated_element(swapped, small).coeffs
    ).max() < 1e-9


def test_regauged_basis_same_analysis(sys2, five_qubit_code):
    # unit-phase regauging changes omega but not the kernel, so the whole
    # analysis is untouched even for basis-vector input
    from qecalg import validate_custom_basis
    from qecalg.oracle import codewords_from_stabilizers

    rng = np.random.default_rng(5)
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[0] = 1.0
    regauged = validate_custom_basis(
        [p * mat for p, mat in zip(phases, np.asarray(sys2.matrices))]
    )
    assert np.abs(regauged.omega - sys2.omega).max() > 1e-6

    vectors = codewords_from_stabilizers(sys2, five_qubit_code)
    code = CodeSpec.from_basis(2, 5, vectors)
    report = analyze(regauged, code)
    assert (report.K, report.d, report.pure) == (2, 3, True)


def test_purity_definition_matches_support(sys2, shor_code, five_qubit_code):
    for code in (shor_code, five_qubit_code):
        report = analyze(sys2, code)
        c = associated_element(sys2, code)
        weights = (label_digits(code.m, code.n) != 0).sum(axis=1)
        support_below_d = np.any(
            (np.abs(c.coeffs) > 1e-9) & (weights > 0) & (weights < report.d)
        )
        assert report.pure == (not support_below_d)
