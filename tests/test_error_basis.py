import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecalg import (
    GroupElement,
    build_pauli_system,
    canonical_ordering,
    character,
    validate_custom_basis,
    verify_basis_axioms,
    verify_kernel_row_sums,
)
from qecalg.error_basis import PhaseSystem
from qecalg.errors import (
    ClosureViolation,
    IdentityViolation,
    NonUnitary,
    TraceViolation,
)

from conftest import character_by_trace, explicit_operator, omega_by_matrices


def group_add(g: GroupElement, h: GroupElement, m: int) -> GroupElement:
    return GroupElement((g.a + h.a) % m, (g.b + h.b) % m)


def group_neg(g: GroupElement, m: int) -> GroupElement:
    return GroupElement((-g.a) % m, (-g.b) % m)


def test_rejects_m_below_two():
    with pytest.raises(ValueError):
        build_pauli_system(1)


def test_omega_m2_xz_pair(sys2):
    # g = X = (1,0), h = Z = (0,1): read the phases off explicit 2x2 matrices
    g, h = GroupElement(1, 0), GroupElement(0, 1)
    gi, hi = sys2.ordering.index_of(g), sys2.ordering.index_of(h)
    w_gh = omega_by_matrices(2, g, h, None)
    w_hg = omega_by_matrices(2, h, g, None)
    assert w_gh == pytest.approx(1.0)
    assert w_hg == pytest.approx(-1.0)
    assert sys2.omega[gi, hi] == pytest.approx(w_gh)
    assert sys2.omega[hi, gi] == pytest.approx(w_hg)
    assert sys2.kernel[hi, gi] == pytest.approx(-1.0)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_omega_identity_rows(m):
    sys_ = build_pauli_system(m)
    assert np.allclose(sys_.omega[0, :], 1.0)
    assert np.allclose(sys_.omega[:, 0], 1.0)
    assert np.allclose(sys_.kernel[0, :], 1.0)
    assert np.allclose(sys_.kernel[:, 0], 1.0)
    assert np.allclose(np.abs(sys_.omega), 1.0)


def test_omega_m3_example(sys3):
    g, h = GroupElement(0, 1), GroupElement(1, 0)
    gi, hi = sys3.ordering.index_of(g), sys3.ordering.index_of(h)
    expected = omega_by_matrices(3, g, h, None)
    assert expected == pytest.approx(np.exp(2j * np.pi / 3))
    assert sys3.omega[gi, hi] == pytest.approx(expected)


def test_character_examples(sys2, sys3):
    for h in sys2.ordering.order:
        assert character(sys2, h, GroupElement(0, 0)) == pytest.approx(1.0)
    assert character(sys2, GroupElement(0, 1), GroupElement(1, 0)) == pytest.approx(
        character_by_trace(2, (0, 1), (1, 0))
    )
    assert character(sys2, GroupElement(0, 1), GroupElement(1, 0)) == pytest.approx(-1.0)
    assert character(sys3, GroupElement(1, 0), GroupElement(0, 1)) == pytest.approx(
        np.exp(-2j * np.pi / 3)
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_character_matches_trace_oracle(m):
    sys_ = build_pauli_system(m)
    for h in sys_.ordering.order:
        for g in sys_.ordering.order:
            assert abs(character(sys_, h, g) - character_by_trace(m, h, g)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 5),
    data=st.tuples(*[st.integers(0, 24)] * 3),
)
def test_bicharacter_law(m, data):
    sys_ = build_pauli_system(m)
    order = sys_.ordering.order
    h, g1, g2 = (order[i % len(order)] for i in data)
    lhs = character(sys_, h, group_add(g1, g2, m))
    rhs = character(sys_, h, g1) * character(sys_, h, g2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_conjugate_symmetry_and_root_order(m):
    sys_ = build_pauli_system(m)
    assert np.abs(sys_.kernel - sys_.kernel.conj().T).max() < 1e-12
    # every kernel entry is an m-th root of unity
    assert np.abs(sys_.kernel ** m - 1.0).max() < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_kernel_row_sums_and_orthogonality(m):
    sys_ = build_pauli_system(m)
    q = m * m
    sums = sys_.kernel.sum(axis=1)
    assert sums[0] == pytest.approx(q)
    assert np.abs(sums[1:]).max() < 1e-9
    col_sums = sys_.kernel.sum(axis=0)
    assert np.abs(col_sums[1:]).max() < 1e-9
    assert np.abs(sys_.kernel @ sys_.kernel.conj().T / q - np.eye(q)).max() < 1e-9


def test_lemma1_enumerated_m2(sys2):
    # h = Z: the four kernel entries along that row are 1, 1, -1, -1
    hi = sys2.ordering.index_of(GroupElement(0, 1))
    row = [sys2.omega[g, hi] * np.conj(sys2.omega[hi, g]) for g in range(4)]
    assert sorted(np.real(row)) == [-1.0, -1.0, 1.0, 1.0]
    assert abs(sum(row)) < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_verify_kernel_row_sums_passes(m):
    report = verify_kernel_row_sums(build_pauli_system(m))
    assert report.passed
    assert report.max_residual < 1e-9


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_ordering_invariants(m):
    ordering = canonical_ordering(m)
    q = m * m
    assert ordering.order[0] == GroupElement(0, 0)
    assert sorted(ordering.order) == sorted(
        GroupElement(a, b) for a in range(m) for b in range(m)
    )
    if m % 2 == 0:
        assert ordering.lee_delta is None
    else:
        delta = (q - 1) // 2
        assert ordering.lee_delta == delta
        for i in range(1, delta + 1):
            assert ordering.order[q - i] == group_neg(ordering.order[i], m)


def test_ordering_tables(sys3):
    ordering = sys3.ordering
    for i, g in enumerate(ordering.order):
        assert ordering.order[ordering.neg_table[i]] == group_neg(g, 3)
        for j, h in enumerate(ordering.order):
            assert ordering.order[ordering.add_table[i, j]] == group_add(g, h, 3)


# --- custom basis validation ---

def _pauli_matrix_list(m):
    ordering = canonical_ordering(m)
    return [explicit_operator(m, g.a, g.b) for g in ordering.order]


@pytest.mark.parametrize("m", [2, 3])
def test_custom_basis_accepts_pauli(m):
    sys_ref = build_pauli_system(m)
    sys_new = validate_custom_basis(_pauli_matrix_list(m))
    assert np.abs(sys_new.omega - sys_ref.omega).max() < 1e-12
    assert np.abs(sys_new.kernel - sys_ref.kernel).max() < 1e-12


def test_custom_basis_identity_violation():
    mats = _pauli_matrix_list(2)
    mats[0], mats[2] = mats[2], mats[0]  # E_0 = X
    with pytest.raises(IdentityViolation):
        validate_custom_basis(mats)


def test_custom_basis_nonunitary():
    mats = _pauli_matrix_list(2)
    mats[1] = 2.0 * mats[1]
    with pytest.raises(NonUnitary):
        validate_custom_basis(mats)


def test_custom_basis_trace_violation():
    mats = _pauli_matrix_list(2)
    mats[1] = np.eye(2)  # unitary but trace 2 at a nonzero index
    with pytest.raises(TraceViolation):
        validate_custom_basis(mats)


def test_custom_basis_closure_violation():
    mats = _pauli_matrix_list(2)
    x, z = mats[2], mats[1]
    mats[3] = (x - z) / np.sqrt(2)  # unitary, traceless, but X @ Z is not prop. to it
    with pytest.raises(ClosureViolation):
        validate_custom_basis(mats)


def test_regauged_basis_has_same_kernel(sys2):
    # multiplying each operator by a unit phase (identity untouched) changes
    # omega but cannot change the character kernel
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.random(4))
    phases[0] = 1.0
    mats = [p * mat for p, mat in zip(phases, _pauli_matrix_list(2))]
    sys_new = validate_custom_basis(mats)
    assert np.abs(sys_new.omega - sys2.omega).max() > 1e-6  # really regauged
    assert np.abs(sys_new.kernel - sys2.kernel).max() < 1e-12


def test_custom_basis_with_nan_is_rejected():
    mats = _pauli_matrix_list(2)
    mats[2] = mats[2].astype(complex)
    mats[2][0, 1] = np.nan  # E_(1,0) = X with one NaN entry
    with pytest.raises(NonUnitary, match="matrix 2"):
        validate_custom_basis(mats)


def test_basis_axioms_fail_nan_phase(sys2):
    omega = sys2.omega.copy()
    omega[1, 2] = np.nan
    broken = PhaseSystem(m=2, omega=omega, kernel=sys2.kernel, ordering=sys2.ordering,
                         matrices=sys2.matrices)
    report = verify_basis_axioms(broken)
    assert not report.passed
    assert report.failures == (("closure", 1, 2),)
    assert np.isnan(report.max_residual)
    assert not verify_kernel_row_sums(broken).passed


def test_basis_axioms_take_formed_products(sys2):
    # validate_custom_basis forms every E_g E_h once, in one batched matmul,
    # and hands the products to the checker: they equal one matmul per pair
    # bit for bit, and the report is the one the checker gets alone
    rng = np.random.default_rng(4)
    for m in (2, 3, 5):
        u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
        rotated = validate_custom_basis(u @ np.asarray(build_pauli_system(m).matrices) @ u.conj().T)
        for sys_ in (build_pauli_system(m), rotated):
            mats = np.asarray(sys_.matrices)
            products = mats[:, None] @ mats[None, :]
            for i in range(m * m):
                for j in range(m * m):
                    assert np.array_equal(products[i, j], mats[i] @ mats[j])
            with_products = verify_basis_axioms(sys_, products)
            alone = verify_basis_axioms(sys_)
            assert with_products.passed and (with_products.failures, with_products.max_residual) == (
                alone.failures, alone.max_residual)
    # a wrong product is caught, so the checker really uses the one passed in
    mats = np.asarray(sys2.matrices)
    products = mats[:, None] @ mats[None, :]
    products[1, 2] *= -1.0
    assert verify_basis_axioms(sys2, products).failures == (("closure", 1, 2),)


# --- the tables against the per-element loops they replaced ---

def _reference_ordering(m):
    """(order, index, add_table, neg_table) built one element at a time."""
    elems = [GroupElement(a, b) for a in range(m) for b in range(m)]
    if m % 2 == 0:
        order = tuple(elems)
    else:
        reps = sorted({min(g, group_neg(g, m)) for g in elems[1:]})
        tail = [group_neg(g, m) for g in reversed(reps)]
        order = tuple([GroupElement(0, 0)] + reps + tail)
    index = {g: i for i, g in enumerate(order)}
    q = m * m
    add_table = np.empty((q, q), dtype=np.intp)
    neg_table = np.empty(q, dtype=np.intp)
    for i, g in enumerate(order):
        neg_table[i] = index[group_neg(g, m)]
        for j, h in enumerate(order):
            add_table[i, j] = index[group_add(g, h, m)]
    return order, index, add_table, neg_table


def _reference_roots(m):
    """The m-th roots of unity with components within 1e-12 of 0, 1 or -1
    snapped, one component at a time."""
    roots = np.exp(2j * np.pi * np.arange(m) / m)
    re, im = roots.real.copy(), roots.imag.copy()
    for arr in (re, im):
        for target in (0.0, 1.0, -1.0):
            arr[np.abs(arr - target) < 1e-12] = target
    return re + 1j * im


def _reference_pauli(m, order):
    """(omega, kernel, matrices) built one entry at a time."""
    roots = _reference_roots(m)
    q = m * m
    omega = np.empty((q, q), dtype=np.complex128)
    for i, (_, b) in enumerate(order):
        for j, (c, _) in enumerate(order):
            omega[i, j] = roots[(b * c) % m]
    kernel = omega * np.conj(omega.T)
    mats = np.zeros((q, m, m), dtype=np.complex128)
    for i, (a, b) in enumerate(order):
        for j in range(m):
            mats[i, (j + a) % m, j] = roots[(b * j) % m]
    return omega, kernel, mats


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    if np.iscomplexobj(want):
        got, want = got.view(np.uint64), want.view(np.uint64)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_tables_match_the_element_loops(m):
    ordering = canonical_ordering(m)
    order, index, add_table, neg_table = _reference_ordering(m)
    assert ordering.order == order
    assert all(type(g) is GroupElement and type(g.a) is type(g.b) is int
               for g in ordering.order)
    assert ordering.index == index
    assert all(ordering.position[a, b] == i for (a, b), i in index.items())
    assert ordering.position.shape == (m, m)
    assert ordering.lee_delta == (None if m % 2 == 0 else (m * m - 1) // 2)
    _same_bits(ordering.add_table, add_table)
    _same_bits(ordering.neg_table, neg_table)
    sys_ = build_pauli_system(m)
    assert sys_.ordering is ordering
    for got, want in zip((sys_.omega, sys_.kernel, sys_.matrices), _reference_pauli(m, order)):
        _same_bits(got, want)
    for arr in (ordering.position, ordering.add_table, ordering.neg_table,
                sys_.omega, sys_.kernel, sys_.matrices):
        assert not arr.flags.writeable
