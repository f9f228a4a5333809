import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qecalg import (
    AlgebraElement,
    CodeSpec,
    analyze,
    catalog,
    associated_element,
    build_pauli_system,
    check_cs_ordering,
    hamming_distribution,
    pauli_label,
    random_code,
    transform,
    validate_custom_basis,
)
from qecalg import code_analysis, stabilizer
from qecalg.code_analysis import BasisVectors, StabilizerGenerators, _distance_and_purity
from qecalg.errors import (
    InconsistentStabilizers,
    NoDistance,
    NonCommutingGenerators,
    NonIntegerDimension,
    NonOrthonormalBasis,
    ShapeMismatch,
)
from qecalg.oracle import (
    codewords_from_stabilizers,
    label_digits,
    oracle_associated_element,
    oracle_dual_element,
    oracle_hamming_distribution,
    oracle_minimum_distance,
    projector,
)
from codeword_reference import apply_local, consistent_phases, random_unitary, stabilizer_codewords
from stabilizer_reference import group_indices, hamming_counts, stabilizer_group, symplectic_product


def full_space_code(m, n):
    return CodeSpec.from_basis(m, n, np.eye(m ** n, dtype=complex))


def test_pauli_label_helper():
    assert pauli_label("XZZXI") == ((1, 0), (0, 1), (0, 1), (1, 0), (0, 0))
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
    pos = sys2.ordering.position  # at n = 1 the flat index of (a, b) is its ordering index
    got = {(a, b): element.coeffs[pos[a, b]] for a in (0, 1) for b in (0, 1)}
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
        dual = transform(sys_, associated_element(sys_, full_space_code(m, n)))
        assert np.abs(dual.coeffs - 1.0).max() < 1e-9


def test_dual_equals_primary_for_k1(sys2):
    code = random_code(2, 3, 1, seed=17)
    c = associated_element(sys2, code)
    cd = transform(sys2, associated_element(sys2, code))
    assert np.abs(c.coeffs - cd.coeffs).max() < 1e-9


def test_dual_five_qubit_normalizer(sys2, five_qubit_code):
    dual = transform(sys2, associated_element(sys2, five_qubit_code))
    assert dual.mass == pytest.approx(64.0)
    members = np.nonzero(dual.coeffs.real > 0.5)[0]
    assert len(members) == 64
    labels = sys2.ordering.order[label_digits(2, 5)]  # (4^5, 5, 2)
    for idx in members:
        label = labels[idx].tolist()
        assert all(
            symplectic_product(label, gen, 2) == 0
            for gen in five_qubit_code.body.rows.reshape(-1, 5, 2)
        )


def test_dual_routes_agree(sys2):
    # the closed form c'_h = (1/K) sum_ij |<v_i|E_h|v_j>|^2, computed by the
    # dense-matrix oracle, against the library's single route
    for k, seed in ((1, 3), (2, 4), (4, 5)):
        code = random_code(2, 3, k, seed=seed)
        direct = oracle_dual_element(sys2, code)
        via_transform = transform(sys2, associated_element(sys2, code))
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
    d_stab = transform(sys2, associated_element(sys2, shor_code))
    d_basis = transform(sys2, associated_element(sys2, basis))
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
    sys4 = __import__("qecalg").build_pauli_system(4)
    report = analyze(sys4, code)
    assert report.mass == 4
    assert report.K == 4 ** 2 / 4


def test_check_cs_ordering(sys2, five_qubit_code):
    report = check_cs_ordering(sys2, five_qubit_code)
    assert report.passed
    # strict inequality exactly on normalizer minus stabilizer
    c = associated_element(sys2, five_qubit_code).coeffs.real
    cd = transform(sys2, associated_element(sys2, five_qubit_code)).coeffs.real
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
    for op in (associated_element, lambda s, c: transform(s, associated_element(s, c))):
        assert np.abs(op(sys2, code).coeffs - op(sys2, recombined).coeffs).max() < 1e-9


def test_mass_law_and_unit_coefficients(sys2):
    for k in (1, 2, 4):
        code = random_code(2, 3, k, seed=40 + k)
        c = associated_element(sys2, code)
        cd = transform(sys2, associated_element(sys2, code))
        assert 2 ** 3 / c.mass.real == pytest.approx(k, abs=1e-6)
        assert c.coeffs[0] == pytest.approx(1.0, abs=1e-9)
        assert cd.coeffs[0] == pytest.approx(1.0, abs=1e-9)


def test_validation_errors():
    # a code is checked when it is built, so no invalid CodeSpec exists
    bad = np.array([[1.0, 0.0], [1.0, 0.0]], dtype=complex)
    with pytest.raises(NonOrthonormalBasis):
        CodeSpec.from_basis(2, 1, bad)
    # a NaN residual must fail the check, not slip past a `>` comparison
    with pytest.raises(NonOrthonormalBasis):
        CodeSpec.from_basis(2, 1, np.array([[np.nan, 0.0]]))
    with pytest.raises(NonCommutingGenerators):
        CodeSpec.from_stabilizers(2, 1, [((1, 0),), ((0, 1),)])
    # a direct construction runs the same checks
    with pytest.raises(NonOrthonormalBasis, match="delta_ij"):
        CodeSpec(2, 1, BasisVectors(bad))
    with pytest.raises(NonCommutingGenerators, match="^generators 0 and 1 do not commute$"):
        CodeSpec(2, 1, StabilizerGenerators(np.array([[1, 0], [0, 1]]), None))
    with pytest.raises(ValueError, match="generator has 1.5 coordinates, expected 1"):
        CodeSpec(2, 1, StabilizerGenerators([[1, 0, 1]], None))
    with pytest.raises(ValueError, match="one phase exponent per generator"):
        CodeSpec.from_stabilizers(2, 1, [((0, 1),)], phases=[0, 1])
    with pytest.raises(ValueError, match="generator has 2 coordinates, expected 1"):
        CodeSpec.from_stabilizers(2, 1, [((0, 1), (1, 0))])
    for m, n in ((0, 1), (1, 1), (2, 0)):
        with pytest.raises(ValueError, match=f"need m >= 2 and n >= 1, got m={m}, n={n}"):
            CodeSpec.from_stabilizers(m, n, [[(1, 0)] * n])


def test_non_integer_exponent_is_refused():
    # 1.5 used to be truncated to 1 by the cast to int64, and the code then
    # analysed as <XX, ZZ>
    with pytest.raises(TypeError):
        CodeSpec.from_stabilizers(2, 2, [[(1.5, 0), (1, 0)], [(0, 1), (0, 1)]])
    with pytest.raises(TypeError):
        CodeSpec(2, 2, StabilizerGenerators(np.array([[1.0, 0, 1, 0], [0, 1, 0, 1]]), None))


def test_stabilizer_rows_are_reduced_and_frozen():
    gens = [[(3, -1), (1, 0)], [(0, 1), (0, 5)]]
    code = CodeSpec.from_stabilizers(2, 2, gens)
    rows = code.body.rows
    assert rows.dtype == np.int64 and not rows.flags.writeable
    assert rows.tolist() == [[1, 1, 1, 0], [0, 1, 0, 1]]
    # the caller's basis array is copied, not frozen
    v = np.eye(2, dtype=complex)[:1]
    basis = CodeSpec.from_basis(2, 1, v)
    assert v.flags.writeable and not basis.body.vectors.flags.writeable


def test_from_basis_refuses_empty_and_misshapen_vectors(sys2):
    with pytest.raises(ValueError, match="at least one vector"):
        analyze(sys2, CodeSpec.from_basis(2, 1, np.zeros((0, 2))))
    for vectors in (np.zeros((1, 2)), np.zeros(4), np.zeros((1, 1, 4))):
        with pytest.raises(ValueError, match=r"expected vectors of shape \(K, 4\)"):
            CodeSpec.from_basis(2, 2, vectors)


def test_commutation_check_names_the_first_pair():
    # the one integer product reports the pair the pairwise loop finds first
    rng = np.random.default_rng(11)
    for m in (2, 3, 4, 6):
        for _ in range(50):
            n, r = int(rng.integers(1, 4)), int(rng.integers(2, 6))
            gens = [tuple(map(tuple, rng.integers(0, m, size=(n, 2)))) for _ in range(r)]
            first = next(((i, j) for i in range(r) for j in range(i + 1, r)
                          if symplectic_product(gens[i], gens[j], m)), None)
            if first is None:
                CodeSpec.from_stabilizers(m, n, gens)
                continue
            with pytest.raises(NonCommutingGenerators,
                               match=f"^generators {first[0]} and {first[1]} do not commute$"):
                CodeSpec.from_stabilizers(m, n, gens)


@pytest.mark.parametrize("route", ["stabilizer", "basis"])
@pytest.mark.parametrize("call", [analyze, associated_element, check_cs_ordering],
                         ids=lambda call: call.__name__)
@pytest.mark.parametrize("system_m, code_m", [(3, 2), (2, 3)])
def test_a_system_of_another_m_is_refused_on_both_routes(route, call, system_m, code_m):
    code = (CodeSpec.from_stabilizers(code_m, 2, [((1, 0), (1, 0))]) if route == "stabilizer"
            else random_code(code_m, 2, 1, 0))
    with pytest.raises(ShapeMismatch, match=f"^system has m={system_m}, code has m={code_m}$"):
        call(build_pauli_system(system_m), code)


def test_non_integer_dimension():
    # slightly mis-scaled "orthonormal" vectors cannot bypass the check
    v = np.eye(2, dtype=complex)[:1] * 1.01
    with pytest.raises((NonIntegerDimension, NonOrthonormalBasis)):
        CodeSpec(2, 1, BasisVectors(v))
    # direct guard: doctored coefficients whose mass is irrational
    c = np.array([1.0, 0.3, 0.0, 0.0])
    k_exact = 2 / c.sum()
    assert abs(k_exact - round(k_exact)) > 1e-6


def test_minimum_distance_helper():
    # m=2, n=2 with c at (I, I) and (X, X) (weight 2), and c' also at (I, X)
    # (weight 1): A = (1, 0, 1), A' = (1, 1, 1)
    a, b = [1, 0, 1], [1, 1, 1]
    assert _distance_and_purity(a, b, k=2) == (1, True)
    assert _distance_and_purity(a, b, k=1) == (2, True)
    # floats: a gap of 1e-10 is no difference, and support below d is impure
    assert _distance_and_purity([1.0, 0.5, 0.5], [1.0, 0.5 + 1e-10, 2.5], k=2) == (2, False)
    with pytest.raises(NoDistance, match="distinguishes"):
        _distance_and_purity(a, a, k=2)
    with pytest.raises(NoDistance, match="no support"):
        _distance_and_purity(np.eye(1, 3)[0], None, k=1)


def _regauged_system(m, seed):
    # each operator times a unit phase (identity untouched): a different
    # nice error basis with different omega, handled like any custom basis
    rng = np.random.default_rng(seed)
    phases = np.exp(2j * np.pi * rng.random(m * m))
    phases[0] = 1.0
    return validate_custom_basis(np.asarray(build_pauli_system(m).matrices) * phases[:, None, None])


@pytest.mark.parametrize("basis", ["pauli", "regauged"])
@pytest.mark.parametrize("m,n", [(2, 4), (3, 2), (4, 2)])
@pytest.mark.parametrize("k", [1, 2, "full"])
def test_basis_route_matches_oracle(basis, m, n, k):
    sys_ = build_pauli_system(m) if basis == "pauli" else _regauged_system(m, seed=m)
    k = m ** n if k == "full" else k
    code = random_code(m, n, k, seed=60 + k)
    got = associated_element(sys_, code).coeffs
    assert np.all(got.imag == 0.0)
    assert np.abs(got - oracle_associated_element(sys_, code).coeffs).max() <= 1e-12


def test_swapped_convention_basis_same_invariants(sys2, five_qubit_code):
    # E_(a,b) = Z^a X^b is a different nice error basis (different omega);
    # K, d, purity of a code must not depend on the convention
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

    # dense oracle agrees with the basis route under the custom system
    small = random_code(2, 2, 2, seed=61)
    assert np.abs(
        associated_element(swapped, small).coeffs
        - oracle_associated_element(swapped, small).coeffs
    ).max() < 1e-9


def test_regauged_basis_same_analysis(sys2, five_qubit_code):
    # unit-phase regauging changes omega but not the kernel, so the whole
    # analysis is untouched even for basis-vector input
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


def _margin_corpus(case):
    """(system, code) pairs: a catalog code in basis form under the Pauli
    basis, a regauged basis and a random rotation of its codewords; or every
    K of a seeded random code at (m, n) under the Pauli and a regauged basis."""
    if isinstance(case, str):
        code = catalog.load(case)
        m, n = code.m, code.n
        vectors = codewords_from_stabilizers(build_pauli_system(m), code, cap=512)
        k = vectors.shape[0]
        rng = np.random.default_rng(k)
        u, _ = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
        basis = CodeSpec.from_basis(m, n, vectors)
        return [(build_pauli_system(m), basis), (_regauged_system(m, seed=m), basis),
                (build_pauli_system(m), CodeSpec.from_basis(m, n, u @ vectors))]
    m, n = case
    return [(sys_, random_code(m, n, k, seed=10 * m + k))
            for sys_ in (build_pauli_system(m), _regauged_system(m, seed=m))
            for k in range(1, m ** n + 1)]


@pytest.mark.parametrize("case", ["513", "422", "913shor", "311qutrit", "steane713",
                                  (2, 3), (2, 4), (3, 2), (4, 2), (5, 2), (6, 2)], ids=str)
def test_distance_rules_agree_with_wide_margins(case):
    # d read off (A, A') equals the coefficient rule, and no Hamming gap
    # B_w - A_w (A_w for K = 1) comes near COEFF_TOL
    for sys_, code in _margin_corpus(case):
        report = analyze(sys_, code)
        assert report.path == "dense"
        # K is the row count of V; the mass agrees with it far inside any tolerance
        assert report.K == code.body.vectors.shape[0]
        assert abs(code.m ** code.n / report.mass - report.K) <= 1e-12 * report.K
        c = associated_element(sys_, code)
        assert report.d == oracle_minimum_distance(c, transform(sys_, c), report.K)
        a, b = report.primary_distribution.a.real, report.dual_distribution.a.real
        gap = np.abs(b[1:] - a[1:] if report.K > 1 else a[1:])
        assert np.all((gap <= 1e-12) | (gap >= 1e-2)), (report.K, gap)



@pytest.mark.parametrize("m,n", [(2, 10), (4, 5), (3, 6)])
def test_basis_element_peaks_at_twice_its_size(m, n):
    # the interleaved Q and one kernel scratch array alternate; the caller's
    # input (V) is tiny, so the traced peak stays near two elements
    code = random_code(m, n, 2, seed=5)
    sys_ = build_pauli_system(m)
    tracemalloc.start()
    try:
        c = associated_element(sys_, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * c.coeffs.nbytes, f"traced peak {peak / c.coeffs.nbytes:.2f} x the element"


# --- the exact stabilizer route ---

def _scrambled_generators(m, n, exponents, seed, gates=400):
    """Commuting generators: Z^e on qudit i for the i-th exponent e, then a
    seeded random circuit of Fourier, phase and SUM gates acting on the
    labels (each gate preserves the symplectic form over Z_m)."""
    rng = np.random.default_rng(seed)
    gens = np.zeros((len(exponents), n, 2), dtype=np.int64)
    for i, e in enumerate(exponents):
        gens[i, i, 1] = e
    for _ in range(gates):
        kind = rng.integers(3)
        c, t = rng.choice(n, 2, replace=False)
        if kind == 0:  # Fourier on c: (a, b) -> (-b, a)
            gens[:, c] = np.stack([-gens[:, c, 1], gens[:, c, 0]], axis=1)
        elif kind == 1:  # phase on c: b += a
            gens[:, c, 1] += gens[:, c, 0]
        else:  # SUM c -> t: a_t += a_c, b_c -= b_t
            gens[:, t, 0] += gens[:, c, 0]
            gens[:, c, 1] -= gens[:, t, 1]
        gens %= m
    return [[tuple(int(x) for x in pair) for pair in g] for g in gens]


# seeded codes as (m, n, exponents of the Z-type seeds), and catalog codes
# (Shor is impure); all have m^(2n) <= 4^9, and the dense-matrix oracle runs
# on every case with m^n <= 256
EXACT_CASES = [(2, 5, [1, 1, 1, 1]), (2, 9, [1] * 8),
               (3, 3, [1, 1]), (3, 4, [1, 1, 1]),
               (4, 2, [2]), (4, 3, [1, 1, 2]),
               (6, 2, [1, 3]), (6, 2, [2, 3]),
               "513", "422", "913shor", "311qutrit"]


@pytest.mark.parametrize("case", EXACT_CASES, ids=str)
def test_exact_route_matches_dense(case):
    if isinstance(case, str):
        code = catalog.load(case)
        m, n = code.m, code.n
        gens = code.body.rows.reshape(-1, n, 2).tolist()
    else:
        m, n, exponents = case
        gens = _scrambled_generators(m, n, exponents, seed=100 * m + n)
        code = CodeSpec.from_stabilizers(m, n, gens)
    sys_ = build_pauli_system(m)
    exact = analyze(sys_, code)
    assert exact.path == "exact"

    c = associated_element(sys_, code)
    c_dual = transform(sys_, c)
    a_dense = hamming_distribution(c).a
    b_dense = hamming_distribution(c_dual).a
    k = round(m ** n / c.mass.real)
    d = oracle_minimum_distance(c, c_dual, k)
    assert (exact.K, exact.d, exact.mass) == (k, d, c.mass.real)
    assert exact.pure == bool(np.all(np.abs(a_dense[1:d]) <= 1e-9))
    assert np.array_equal(exact.primary_distribution.a, a_dense)
    b = exact.dual_distribution.a
    assert np.array_equal(b, np.round(b.real))
    assert np.abs(b - b_dense).max() <= 1e-9

    # the numbers do not depend on the error basis
    regauged = analyze(_regauged_system(m, seed=m), code)
    assert (regauged.K, regauged.d, regauged.pure) == (exact.K, exact.d, exact.pure)
    assert np.array_equal(regauged.dual_distribution.a, b)

    if m ** n > 256:
        return
    phased = CodeSpec.from_stabilizers(m, n, gens, consistent_phases(sys_, m, n, gens))
    assert np.array_equal(analyze(sys_, phased).dual_distribution.a, b)
    c_o = oracle_associated_element(sys_, phased)
    c_dual_o = oracle_dual_element(sys_, phased)
    # the scattered indicator sits on the right flat indices
    assert np.abs(c.coeffs - c_o.coeffs).max() <= 1e-9
    assert np.abs(c_dual.coeffs - c_dual_o.coeffs).max() <= 1e-9
    assert round(float(np.trace(projector(sys_, phased)).real)) == exact.K
    assert oracle_minimum_distance(c_o, c_dual_o, exact.K) == exact.d
    assert np.abs(oracle_hamming_distribution(c_o) - exact.primary_distribution.a).max() <= 1e-9
    assert np.abs(oracle_hamming_distribution(c_dual_o) - b).max() <= 1e-9


# scrambled codes as (m, n, exponents of the Z-type seeds, seed), m^(2n) <= 2^18,
# with d from 1 to 3 and one impure code; the seeds were picked for that spread
BASIS_FORM_CASES = [(2, 9, [1] * 7, 80), (2, 8, [1] * 6, 90), (2, 6, [1] * 5, 101),
                    (3, 5, [1] * 4, 111), (3, 5, [1] * 4, 115), (3, 4, [1] * 3, 120),
                    (4, 4, [1, 1, 2], 130), (4, 3, [1, 2], 140), (5, 3, [1, 1], 151),
                    (6, 3, [1, 3], 160), (6, 2, [1], 180)]


@pytest.mark.parametrize("case", BASIS_FORM_CASES, ids=str)
def test_stabilizer_codes_in_basis_form_match_the_exact_route(case):
    # the codewords of a stabilizer code, built with no m^n x m^n matrix, as
    # they are, rotated by a K x K unitary and under local unitaries: the
    # dense basis route must give the exact route's K, d and purity, and A and
    # A' within COEFF_TOL / 100, so that no decision of the dense route turns
    # on round-off; under the Pauli basis and a regauged one, E_k times
    # exp(2 pi i k / 7) (E_0 = I kept), 7th roots of unity and not m-th ones here
    m, n, exponents, seed = case
    sys_ = build_pauli_system(m)
    phases = np.exp(2j * np.pi * np.arange(m * m) / 7)
    regauged = validate_custom_basis(np.asarray(sys_.matrices) * phases[:, None, None])
    code = CodeSpec.from_stabilizers(m, n, _scrambled_generators(m, n, exponents, seed=seed))
    exact = analyze(sys_, code)
    vectors = stabilizer_codewords(sys_, code, seed=seed)
    k = vectors.shape[0]
    assert k == exact.K
    rng = np.random.default_rng(seed)
    local = apply_local([random_unitary(rng, m) for _ in range(n)],
                        vectors.reshape((k,) + (m,) * n)).reshape(k, -1)
    bound = code_analysis.COEFF_TOL / 100
    for basis in (vectors, random_unitary(rng, k) @ vectors, local):
        for system in (sys_, regauged):
            dense = analyze(system, CodeSpec.from_basis(m, n, basis))
            assert dense.path == "dense"
            assert (dense.K, dense.d, dense.pure) == (exact.K, exact.d, exact.pure)
            for dist in ("primary_distribution", "dual_distribution"):
                gap = getattr(dense, dist).a - getattr(exact, dist).a
                assert np.abs(gap).max() <= bound, (dist, np.abs(gap).max())


def test_exact_route_twenty_qubits_stays_small(sys2):
    # [[20,1]]: |S| = 2^19 elements of 40 bytes; the dense route would need 4^20 coefficients
    code = CodeSpec.from_stabilizers(2, 20, _scrambled_generators(2, 20, [1] * 19, seed=20))
    tracemalloc.start()
    try:
        report = analyze(sys2, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # S is streamed in blocks of at most _BLOCK elements (the peak is near a
    # fifth of the bytes of S, at 40 bytes an element), so the bound holds the
    # route well below what storing S whole would take
    group_bytes = 40 * 2 ** 19
    assert peak < 1.8 * group_bytes, f"traced peak {peak / group_bytes:.2f} x the bytes of S"
    assert (report.K, report.mass) == (2, 2.0 ** 19)
    a, b = report.primary_distribution.a.real, report.dual_distribution.a.real
    assert a.sum() == 2 ** 19 and b.sum() == 4 ** 20 / 2 ** 19
    assert np.all(b[1:report.d] == a[1:report.d]) and b[report.d] > a[report.d]


def test_exact_route_twenty_four_qubits_streams(sys2):
    # [[24,1]]: |S| = 2^23 elements, streamed in blocks; storing S would take 384 MiB
    code = CodeSpec.from_stabilizers(2, 24, _scrambled_generators(2, 24, [1] * 23, seed=24))
    tracemalloc.start()
    try:
        report = analyze(sys2, code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20, f"traced peak {peak / 2 ** 20:.1f} MiB"
    assert report.primary_distribution.a.real.sum() == 2 ** 23
    assert (report.K, report.mass) == (2, 2.0 ** 23)


def _random_generator_sets(rng, m, n, count):
    """Commuting generator lists, shuffled: Z-type seeds of random exponents
    put through a random circuit (a zero exponent gives the identity; at
    n = 1, multiples of one random label), then redundant generators, which
    are random combinations of the others and generators times a proper
    divisor of m (times m - 1 for prime m)."""
    divisors = [d for d in range(2, m) if m % d == 0] or [m - 1]
    for _ in range(count):
        exponents = rng.integers(0, m, size=rng.integers(1, n + 1))
        if n == 1:  # multiples of one random label
            gens = exponents[:, None, None] * rng.integers(0, m, size=2) % m
        else:
            gens = np.array(_scrambled_generators(m, n, exponents.tolist(),
                                                  seed=int(rng.integers(1 << 30)), gates=40))
        extra = [rng.integers(0, m, size=len(gens)) @ gens.reshape(len(gens), -1) % m
                 for _ in range(rng.integers(0, 3))]
        extra += [rng.choice(divisors) * gens[rng.integers(len(gens))].reshape(-1) % m
                  for _ in range(rng.integers(0, 3))]
        rows = [g.reshape(-1) for g in gens] + extra
        order = rng.permutation(len(rows))
        yield [[tuple(int(x) for x in rows[i][2 * j:2 * j + 2]) for j in range(n)] for i in order]


@pytest.mark.parametrize("block", [1, 7, None])
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_stream_matches_coset_doubling(monkeypatch, m, block):
    # the Howell-form stream against the stored coset-doubling group: order,
    # Hamming counts and (where m^(2n) is small) the scattered indicator;
    # block 1 and 7 put every or nearly every Howell row on the offset side
    if block is not None:
        monkeypatch.setattr(stabilizer, "_BLOCK", block)
    sys_ = build_pauli_system(m)
    rng = np.random.default_rng(m)
    for n in range(1, 6):
        if m ** n > 6000:
            break
        for gens in _random_generator_sets(rng, m, n, 4):
            code = CodeSpec.from_stabilizers(m, n, gens)
            group = stabilizer_group(sys_, code)
            report = analyze(sys_, code)
            assert report.mass == group.shape[1]
            assert report.primary_distribution.rounded() == tuple(hamming_counts(group, n))
            if m ** (2 * n) <= 1 << 16:
                c = associated_element(sys_, code).coeffs
                expected = np.zeros_like(c)
                expected[group_indices(group, m, n)] = 1.0
                assert np.array_equal(c, expected)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 8, 9, 12])
def test_howell_form_of_g_and_identity_reads_the_relations(m):
    # the phase check's reading of the Howell form of [G | I]: the rows with a
    # pivot in G's columns are G's own Howell rows, and the rest [0 | c] are
    # relations c G = 0 that, with them, account for all m^r words c
    rng = np.random.default_rng(100 + m)
    for n in range(1, 5):
        for gens in _random_generator_sets(rng, m, n, 6):
            g = np.array(gens, dtype=np.int64).reshape(len(gens), 2 * n)
            rows, orders = stabilizer._howell_form(
                np.hstack([g, np.eye(len(g), dtype=np.int64)]), m)
            span = np.count_nonzero(rows[:, :2 * n].any(axis=1))
            howell, howell_orders = stabilizer._howell_form(g, m)
            assert np.array_equal(rows[:span, :2 * n], howell)
            assert np.array_equal(orders[:span], howell_orders)
            assert not (rows[span:, 2 * n:] @ g % m).any()
            assert np.prod([int(t) for t in orders]) == m ** len(g)


def test_phased_twenty_qubits_beyond_the_oracle(sys2):
    # Z_i on each of 20 qubits and the redundant Z_0 Z_1: the oracle cannot
    # build a 2^20 x 2^20 projector, but the check reads the one relation word
    gens = [[(0, int(i == j)) for j in range(20)] for i in range(20)]
    gens.append([(0, int(j < 2)) for j in range(20)])
    free = analyze(sys2, CodeSpec.from_stabilizers(2, 20, gens))
    phased = analyze(sys2, CodeSpec.from_stabilizers(2, 20, gens, [0] * 21))
    assert (phased.K, phased.d, phased.pure) == (free.K, free.d, free.pure) == (1, 1, True)
    for dist in ("primary_distribution", "dual_distribution"):
        assert getattr(phased, dist).exact == getattr(free, dist).exact
    with pytest.raises(InconsistentStabilizers, match="a product of the generators"):
        analyze(sys2, CodeSpec.from_stabilizers(2, 20, gens, [0] * 20 + [2]))


def test_phase_check_agrees_with_oracle_on_random_codes():
    # random (redundant, divisor-scaled) generators under the Pauli basis and
    # a regauged one whose omega has powers of exp(i pi/m); the phases are
    # random, or the library's consistent choice, as is or with one moved
    rng = np.random.default_rng(2024)
    systems = {}
    counts = {False: 0, True: 0}
    for trial in range(300):
        m = int(rng.integers(2, 7))
        n = int(rng.integers(1, 4))
        basis = ("pauli", "regauged")[trial // 4 % 2]
        if (m, basis) not in systems:
            sys_ = build_pauli_system(m)
            if basis == "regauged":
                roots = np.exp(1j * np.pi * rng.integers(2 * m, size=m * m) / m)
                roots[0] = 1.0
                sys_ = validate_custom_basis(np.asarray(sys_.matrices) * roots[:, None, None])
            systems[m, basis] = sys_
        sys_ = systems[m, basis]
        gens = next(_random_generator_sets(rng, m, n, 1))
        if trial % 4 < 2:  # a consistent choice, with one phase moved half the time
            phases = consistent_phases(sys_, m, n, gens)
            if trial % 4:
                phases[rng.integers(len(gens))] += int(rng.integers(1, 2 * m))
        else:
            phases = rng.integers(0, 2 * m, size=len(gens)).tolist()
        code = CodeSpec.from_stabilizers(m, n, gens, phases)
        try:
            projector(sys_, code)
            oracle_raises = False
        except ValueError:
            oracle_raises = True
        try:
            analyze(sys_, code)
            library_raises = False
        except InconsistentStabilizers:
            library_raises = True
        assert library_raises == oracle_raises, (m, n, basis, gens, code.body.phases)
        counts[oracle_raises] += 1
    assert min(counts.values()) >= 50, counts


@pytest.mark.parametrize("name,order,a", [
    ("steane713", 2 ** 6, (1, 0, 0, 0, 21, 0, 42, 0)),
    ("rm15", 2 ** 14, None),
])
def test_catalog_exact_only_codes(sys2, name, order, a):
    # Steane [[7,1,3]] and the [[15,1,3]] quantum Reed-Muller code, both pure;
    # at n = 15 a dense C would have 4^15 coefficients
    report = analyze(sys2, catalog.load(name))
    assert (report.K, report.d, report.pure) == (2, 3, True)
    assert report.primary_distribution.a.real.sum() == report.mass == order
    if a is not None:
        assert report.primary_distribution.rounded() == a


def _shadow(a, k):
    """The coefficients S_j of x^(n-j) y^j in S(x, y) = K A((x+3y)/2, (y-x)/2),
    with A(x, y) = sum_w A_w x^(n-w) y^w, as Fractions."""
    n = len(a) - 1
    s = [0] * (n + 1)
    for w, a_w in enumerate(a):
        poly = [1]  # (x + 3y)^(n-w) (y - x)^w, by the power of y
        for c0, c1 in [(1, 3)] * (n - w) + [(-1, 1)] * w:
            poly = [c0 * p + c1 * q for p, q in zip(poly + [0], [0] + poly)]
        s = [x + a_w * c for x, c in zip(s, poly)]
    return [Fraction(k * x, 2 ** n) for x in s]


def test_qubit_shadows_are_non_negative(sys2):
    # Rains (IEEE Trans. IT 45, 2361, 1999): the shadow enumerator of every
    # qubit code has non-negative coefficients; here on the exact integers A
    # of the catalog's m = 2 codes and of two seeded codes for each n = 2..24
    codes = [catalog.load(name) for name in ("513", "422", "913shor", "steane713", "rm15")]
    rng = np.random.default_rng(2)
    for n in range(2, 25):
        for r in rng.choice(np.arange(1, min(n, 12) + 1), 2, replace=False).tolist():
            gens = _scrambled_generators(2, n, [1] * r, seed=100 * n + r)
            codes.append(CodeSpec.from_stabilizers(2, n, gens))
    for code in codes:
        report = analyze(sys2, code)
        shadow = _shadow(report.primary_distribution.exact, report.K)
        assert min(shadow) >= 0, (code.n, report.primary_distribution.exact, shadow)


_ZX_XZ = [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 1), (1, 1)]]


def test_inconsistent_phases_raise(sys2):
    # <Z x I, -Z x I> stabilizes no state
    empty = CodeSpec.from_stabilizers(2, 2, [[(0, 1), (0, 0)], [(0, 1), (0, 0)]], phases=[0, 2])
    for op in (analyze, associated_element):
        with pytest.raises(InconsistentStabilizers):
            op(sys2, empty)
    # (XZ)^2 = -I: the phase-0 generator squares to a multiple of I
    with pytest.raises(InconsistentStabilizers):
        analyze(sys2, CodeSpec.from_stabilizers(2, 1, [[(1, 1)]], phases=[0]))
    # phase-free codes check no phase: the same label is a fine index group
    assert analyze(sys2, CodeSpec.from_stabilizers(2, 1, [[(1, 1)]])).K == 1
    # (Z x X)(X x Z) = -(XZ x XZ), so <Z x X, X x Z, XZ x XZ> holds -I
    with pytest.raises(InconsistentStabilizers):
        analyze(sys2, CodeSpec.from_stabilizers(2, 2, _ZX_XZ, phases=[0, 0, 0]))


def test_consistent_phases_pass(sys2):
    assert analyze(sys2, CodeSpec.from_stabilizers(2, 1, [[(0, 1)]], phases=[2])).K == 1  # <-Z>
    assert analyze(sys2, CodeSpec.from_stabilizers(2, 1, [[(1, 1)]], phases=[1])).K == 1  # <iXZ>
    # <Z x X, X x Z, -(XZ x XZ)>
    assert analyze(sys2, CodeSpec.from_stabilizers(2, 2, _ZX_XZ, phases=[0, 0, 2])).K == 1


@pytest.mark.parametrize("basis", ["pauli", "regauged"])
@pytest.mark.parametrize("m,n,gens,phases", [
    (2, 2, [[(0, 1), (0, 0)], [(0, 1), (0, 0)]], [0, 2]),
    (2, 2, [[(1, 0), (1, 0)], [(1, 1), (1, 1)]], [0, 0]),
    (2, 2, [[(1, 0), (1, 0)], [(1, 1), (1, 1)]], [0, 2]),
    # (Z x X)(X x Z) = -(XZ x XZ): the stored phase of a product carries omega
    (2, 2, [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 1), (1, 1)]], [0, 0, 0]),
    (2, 2, [[(0, 1), (1, 0)], [(1, 0), (0, 1)], [(1, 1), (1, 1)]], [0, 0, 2]),
    (2, 1, [[(1, 1)]], [0]),
    (2, 1, [[(1, 1)]], [1]),
    (3, 1, [[(1, 0)]], [1]),
    (3, 1, [[(1, 0)]], [2]),
    # the second generator lands on the coset t = 2 of the first: (phi X)^2
    (3, 1, [[(1, 0)], [(2, 0)]], [2, 4]),
    (3, 1, [[(1, 0)], [(2, 0)]], [2, 2]),
    (4, 1, [[(0, 2)]], [0]),
    (4, 1, [[(0, 2)]], [2]),
    (4, 2, [[(2, 2), (0, 0)], [(0, 2), (0, 2)]], [0, 4]),
])
def test_phase_check_agrees_with_oracle(basis, m, n, gens, phases):
    sys_ = build_pauli_system(m)
    if basis == "regauged":
        # unit phases that are powers of exp(i*pi/m), so that some phased
        # generators stay consistent under the changed omega
        roots = np.exp(1j * np.pi * np.random.default_rng(m).integers(2 * m, size=m * m) / m)
        roots[0] = 1.0
        sys_ = validate_custom_basis(np.asarray(sys_.matrices) * roots[:, None, None])
    code = CodeSpec.from_stabilizers(m, n, gens, phases)
    try:
        projector(sys_, code)
        oracle_raises = False
    except ValueError:
        oracle_raises = True
    try:
        analyze(sys_, code)
        library_raises = False
    except InconsistentStabilizers:
        library_raises = True
    assert library_raises == oracle_raises
