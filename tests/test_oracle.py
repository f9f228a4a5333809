import numpy as np
import pytest

from qecalg import (
    CodeSpec,
    associated_element,
    build_pauli_system,
    pauli_label,
    random_code,
    transform,
    verify_basis_axioms,
)
from qecalg.errors import SizeCap
from qecalg.oracle import (
    build_operator,
    codewords_from_stabilizers,
    label_digits,
    oracle_associated_element,
    oracle_character,
    oracle_dual_element,
    projector,
)

from conftest import explicit_operator


def test_build_operator_examples(sys2):
    ident = build_operator(sys2, pauli_label("II"))
    assert np.array_equal(ident, np.eye(4))
    x = build_operator(sys2, pauli_label("X"))
    assert np.array_equal(x.real, [[0, 1], [1, 0]])
    xz = build_operator(sys2, pauli_label("XZ"))
    reference = np.kron(explicit_operator(2, 1, 0), explicit_operator(2, 0, 1))
    assert np.abs(xz - reference).max() < 1e-12
    assert abs(np.trace(xz)) == 0.0


def test_build_operator_size_cap(sys2):
    with pytest.raises(SizeCap):
        build_operator(sys2, pauli_label("X" * 9))
    assert build_operator(sys2, pauli_label("X" * 9), cap=512).shape == (512, 512)


def test_oracle_character_trivial_and_m2(sys2):
    n1_zero = ((0, 0),)
    for g in map(tuple, sys2.ordering.order.tolist()):
        assert oracle_character(sys2, n1_zero, (g,)) == pytest.approx(1.0)
        assert oracle_character(sys2, (g,), n1_zero) == pytest.approx(1.0)
    got = oracle_character(sys2, ((0, 1),), ((1, 0),))
    assert got == pytest.approx(-1.0)


@pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_oracle_character_matches_product_formula(m, n):
    sys_ = build_pauli_system(m)
    digits = label_digits(m, n)
    order, pos = list(map(tuple, sys_.ordering.order.tolist())), sys_.ordering.position
    rng = np.random.default_rng(m * 7 + n)
    # sample pairs (exhaustive coverage is the acceptance suite's job)
    size = digits.shape[0]
    pairs = rng.integers(0, size, size=(40, 2))
    for hi, gi in pairs:
        h = tuple(order[d] for d in digits[hi])
        g = tuple(order[d] for d in digits[gi])
        product = np.prod([sys_.kernel[pos[hc], pos[gc]] for hc, gc in zip(h, g)])
        assert abs(oracle_character(sys_, h, g) - product) < 1e-12


def test_oracle_associated_full_space(sys2):
    code = CodeSpec.from_basis(2, 1, np.eye(2, dtype=complex))
    element = oracle_associated_element(sys2, code)
    assert np.abs(element.coeffs - [1, 0, 0, 0]).max() < 1e-12
    dual = oracle_dual_element(sys2, code)
    assert np.abs(dual.coeffs - 1.0).max() < 1e-12


def test_oracle_ket_zero(sys2):
    code = CodeSpec.from_basis(2, 1, np.array([[1.0, 0.0]], dtype=complex))
    element = oracle_associated_element(sys2, code)
    pos = sys2.ordering.position  # at n = 1 the flat index of (a, b) is its ordering index
    assert element.coeffs[pos[0, 1]] == pytest.approx(1.0)
    assert element.coeffs[pos[1, 0]] == pytest.approx(0.0)
    # K = 1: dual equals primary
    dual = oracle_dual_element(sys2, code)
    assert np.abs(dual.coeffs - element.coeffs).max() < 1e-12


def test_oracle_four_two_two_from_codewords(sys2):
    s = 1 / np.sqrt(2)
    vectors = np.zeros((4, 16), dtype=complex)
    vectors[0, [0b0000, 0b1111]] = s
    vectors[1, [0b0011, 0b1100]] = s
    vectors[2, [0b0101, 0b1010]] = s
    vectors[3, [0b0110, 0b1001]] = s
    code = CodeSpec.from_basis(2, 4, vectors)
    element = oracle_associated_element(sys2, code)
    pos = sys2.ordering.position
    expected_members = {
        int(np.ravel_multi_index([pos[g] for g in pauli_label(word)], (4,) * 4))
        for word in ("IIII", "XXXX", "ZZZZ", "YYYY")
    }
    members = set(np.nonzero(element.coeffs.real > 0.5)[0].tolist())
    assert members == expected_members
    assert np.abs(np.sort(element.coeffs.real)[-4:] - 1.0).max() < 1e-9

    dual = oracle_dual_element(sys2, code)
    assert dual.mass == pytest.approx(64.0)
    assert set(np.round(dual.coeffs.real, 9)) <= {0.0, 1.0}


def test_codewords_from_stabilizers(sys2, five_qubit_code):
    vectors = codewords_from_stabilizers(sys2, five_qubit_code)
    assert vectors.shape == (2, 32)
    gram = vectors @ vectors.conj().T
    assert np.abs(gram - np.eye(2)).max() < 1e-9


@pytest.mark.parametrize(
    "m,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]
)
def test_oracle_agrees_with_fast_paths(m, n):
    sys_ = build_pauli_system(m)
    k = 2 if m ** n >= 2 else 1
    code = random_code(m, n, k, seed=m * 100 + n)
    fast_c = associated_element(sys_, code)
    slow_c = oracle_associated_element(sys_, code)
    assert np.abs(fast_c.coeffs - slow_c.coeffs).max() < 1e-9
    fast_d = transform(sys_, associated_element(sys_, code))
    slow_d = oracle_dual_element(sys_, code)
    assert np.abs(fast_d.coeffs - slow_d.coeffs).max() < 1e-9


def test_oracle_stabilizer_path_matches(sys2, four_two_two_code):
    fast = associated_element(sys2, four_two_two_code)
    slow = oracle_associated_element(sys2, four_two_two_code)
    assert np.abs(fast.coeffs - slow.coeffs).max() < 1e-9
    fast_d = transform(sys2, associated_element(sys2, four_two_two_code))
    slow_d = oracle_dual_element(sys2, four_two_two_code)
    assert np.abs(fast_d.coeffs - slow_d.coeffs).max() < 1e-9


@pytest.mark.parametrize("m", [2, 3])
def test_verify_basis_axioms_pass(m):
    report = verify_basis_axioms(build_pauli_system(m))
    assert report.passed
    assert report.max_residual < 1e-9


def test_verify_basis_axioms_flags_corrupted_phase(sys2):
    from qecalg.error_basis import PhaseSystem
    omega = sys2.omega.copy()
    omega[1, 2] *= -1.0  # deliberately wrong closure phase
    corrupted = PhaseSystem(omega=omega, ordering=sys2.ordering, matrices=sys2.matrices)
    report = verify_basis_axioms(corrupted)
    assert not report.passed
    assert any(f[0] == "closure" for f in report.failures)


def test_projector_rejects_empty_code(sys2):
    # <Z x I, -Z x I> stabilizes no state: its projector has rank 0
    empty = CodeSpec.from_stabilizers(2, 2, [[(0, 1), (0, 0)], [(0, 1), (0, 0)]], phases=[0, 2])
    with pytest.raises(ValueError, match="rank 0"):
        projector(sys2, empty)
    with pytest.raises(ValueError, match="rank 0"):
        oracle_associated_element(sys2, empty)
