import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecalg import (
    build_pauli_system,
    canonical_ordering,
    validate_custom_basis,
    verify_basis_axioms,
    verify_kernel_row_sums,
)
from qecalg.error_basis import PhaseSystem
from qecalg.errors import (
    ClosureViolation,
    IdentityViolation,
    NonUnitary,
    RowSumViolation,
    TraceViolation,
)

from conftest import character_by_trace, explicit_operator, omega_by_matrices


def group_add(g: tuple, h: tuple, m: int) -> tuple:
    return (g[0] + h[0]) % m, (g[1] + h[1]) % m


def group_neg(g: tuple, m: int) -> tuple:
    return (-g[0]) % m, (-g[1]) % m


def elements(ordering) -> list:
    """The (a, b) pairs of the ordering, in ordering order."""
    return list(map(tuple, ordering.order.tolist()))


def test_rejects_m_below_two():
    # canonical_ordering is the one check, so both constructors give its message
    with pytest.raises(ValueError, match="m must be >= 2, got 1"):
        build_pauli_system(1)
    with pytest.raises(ValueError, match="m must be >= 2, got 1"):
        validate_custom_basis([np.eye(1)])


def test_omega_m2_xz_pair(sys2):
    # g = X = (1,0), h = Z = (0,1): read the phases off explicit 2x2 matrices
    g, h = (1, 0), (0, 1)
    gi, hi = sys2.ordering.position[g], sys2.ordering.position[h]
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
    g, h = (0, 1), (1, 0)
    gi, hi = sys3.ordering.position[g], sys3.ordering.position[h]
    expected = omega_by_matrices(3, g, h, None)
    assert expected == pytest.approx(np.exp(2j * np.pi / 3))
    assert sys3.omega[gi, hi] == pytest.approx(expected)


def test_character_examples(sys2, sys3):
    pos2, pos3 = sys2.ordering.position, sys3.ordering.position
    for h in elements(sys2.ordering):
        assert sys2.kernel[pos2[h], pos2[0, 0]] == pytest.approx(1.0)
    assert sys2.kernel[pos2[0, 1], pos2[1, 0]] == pytest.approx(
        character_by_trace(2, (0, 1), (1, 0))
    )
    assert sys2.kernel[pos2[0, 1], pos2[1, 0]] == pytest.approx(-1.0)
    assert sys3.kernel[pos3[1, 0], pos3[0, 1]] == pytest.approx(
        np.exp(-2j * np.pi / 3)
    )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_character_matches_trace_oracle(m):
    sys_ = build_pauli_system(m)
    pos = sys_.ordering.position
    for h in elements(sys_.ordering):
        for g in elements(sys_.ordering):
            assert abs(sys_.kernel[pos[h], pos[g]] - character_by_trace(m, h, g)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(2, 5),
    data=st.tuples(*[st.integers(0, 24)] * 3),
)
def test_bicharacter_law(m, data):
    sys_ = build_pauli_system(m)
    order, pos = elements(sys_.ordering), sys_.ordering.position
    h, g1, g2 = (order[i % len(order)] for i in data)
    lhs = sys_.kernel[pos[h], pos[group_add(g1, g2, m)]]
    rhs = sys_.kernel[pos[h], pos[g1]] * sys_.kernel[pos[h], pos[g2]]
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
    hi = sys2.ordering.position[0, 1]
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
    order = elements(canonical_ordering(m))
    q = m * m
    assert order[0] == (0, 0)
    assert sorted(order) == sorted(
        (a, b) for a in range(m) for b in range(m)
    )
    if m % 2 == 1:
        delta = (q - 1) // 2
        for i in range(1, delta + 1):
            assert order[q - i] == group_neg(order[i], m)


def test_ordering_tables(sys3):
    ordering = sys3.ordering
    order = elements(ordering)
    for i, g in enumerate(order):
        assert order[-i % 9] == group_neg(g, 3)  # the odd-m mirror
        for j, h in enumerate(order):
            assert order[ordering.add(i, j)] == group_add(g, h, 3)


@pytest.mark.parametrize("m", range(2, 18))
def test_order_and_position_are_read_only_inverses(m):
    ordering = canonical_ordering(m)
    q = m * m
    assert ordering.order.dtype == np.intp and ordering.order.shape == (q, 2)
    assert np.array_equal(ordering.position[ordering.order[:, 0], ordering.order[:, 1]],
                          np.arange(q))
    assert np.array_equal(ordering.order[ordering.position.ravel()],
                          np.stack(np.divmod(np.arange(q), m), axis=1))
    for arr in (ordering.order, ordering.position):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 1


def test_a_system_reads_m_off_its_ordering():
    # m is no field, so a system cannot disagree with its ordering; the
    # axiom report is no constructor argument, so no caller can hand one in
    assert [f.name for f in dataclasses.fields(PhaseSystem)] == [
        "omega", "kernel", "ordering", "matrices", "axioms"]
    assert [f.name for f in dataclasses.fields(PhaseSystem) if not f.init] == [
        "kernel", "axioms"]
    sys_ = build_pauli_system(5)
    assert (sys_.m, sys_.q) == (5, 25)
    assert sys_.ordering is canonical_ordering(5)


def test_a_system_computes_its_kernel_from_omega(sys3):
    # the kernel is no constructor argument, so it cannot disagree with
    # omega, and a dataclasses.replace copy with a new omega computes its own
    with pytest.raises(TypeError, match="kernel"):
        PhaseSystem(omega=sys3.omega, kernel=sys3.kernel, ordering=sys3.ordering,
                    matrices=sys3.matrices)
    w = sys3.omega.copy()
    w[1, 2] *= -1.0
    copy = dataclasses.replace(sys3, omega=w)
    _same_bits(copy.kernel, w * np.conj(w.T))
    assert not copy.kernel.flags.writeable and not w.flags.writeable


# --- custom basis validation ---

def _pauli_matrix_list(m):
    ordering = canonical_ordering(m)
    return [explicit_operator(m, a, b) for a, b in ordering.order.tolist()]


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
    with pytest.raises(NonUnitary, match=r"^matrix 1 \(element \(0, 1\)\) is not unitary$"):
        validate_custom_basis(mats)


@pytest.mark.parametrize("m", [2, 3])
def test_a_non_unitary_similar_basis_fails_the_axioms(m):
    # S E_g S^-1 keeps E_0 = I, the traces and every phase of the Pauli
    # basis, so unitarity alone tells it from a nice error basis
    pauli = build_pauli_system(m)
    s = np.eye(m)
    s[0, 1] = 0.5
    mats = s @ np.asarray(pauli.matrices) @ np.linalg.inv(s)
    report = verify_basis_axioms(PhaseSystem(omega=pauli.omega, ordering=pauli.ordering,
                                               matrices=mats))
    assert not report.passed and report.failures[0] == ("unitary", 1)
    assert {kind for kind, *_ in report.failures} == {"unitary"}
    with pytest.raises(NonUnitary, match=r"^matrix 1 \(element \(0, 1\)\) is not unitary$"):
        validate_custom_basis(mats)


@pytest.mark.parametrize("shape, message", [
    ((4, 2, 3), r"^expected a sequence of square matrices$"),
    ((3, 2, 2), r"^expected m\^2 = 4 matrices, got 3$"),
])
def test_custom_basis_of_the_wrong_shape_is_refused(shape, message):
    with pytest.raises(ValueError, match=message):
        validate_custom_basis(np.zeros(shape))


def test_custom_basis_trace_violation():
    mats = _pauli_matrix_list(2)
    mats[1] = np.eye(2)  # unitary but trace 2 at a nonzero index
    with pytest.raises(TraceViolation, match=r"\(element \(0, 1\)\)$"):
        validate_custom_basis(mats)


def test_custom_basis_closure_violation():
    mats = _pauli_matrix_list(2)
    x, z = mats[2], mats[1]
    mats[3] = (x - z) / np.sqrt(2)  # unitary, traceless, but X @ Z is not prop. to it
    with pytest.raises(ClosureViolation):
        validate_custom_basis(mats)


def test_custom_basis_row_sum_violation(monkeypatch):
    # a basis that passes the axioms has vanishing row sums (lemma 1), so
    # only a failing check, patched in, reaches the raise: it carries the
    # check's detail, and no system is returned
    from qecalg import error_basis
    from qecalg.reports import CheckReport

    failing = CheckReport("kernel-row-sums", False, 1.0, (1,), "nonzero row sums at h indices (1,)")
    monkeypatch.setattr(error_basis, "verify_kernel_row_sums", lambda sys: failing)
    with pytest.raises(RowSumViolation, match=r"^nonzero row sums at h indices \(1,\)$"):
        validate_custom_basis(_pauli_matrix_list(2))


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


@pytest.mark.parametrize("value", [np.inf, 1e200])
def test_custom_basis_with_an_infinite_product_is_rejected(value):
    # the checker fails an inf as it fails a NaN, with no floating-point
    # warning on the way (tier-1 makes warnings errors)
    mats = _pauli_matrix_list(2)
    mats[2] = mats[2].astype(complex)
    mats[2][0, 1] = value
    with pytest.raises(NonUnitary, match=r"^matrix 2 \(element \(1, 0\)\) is not unitary$"):
        validate_custom_basis(mats)


def test_basis_axioms_fail_nan_phase(sys2):
    omega = sys2.omega.copy()
    omega[1, 2] = np.nan
    broken = PhaseSystem(omega=omega, ordering=sys2.ordering, matrices=sys2.matrices)
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
        # a copy of the validated system, so that the checker alone runs
        # rather than handing back validation's report
        for sys_ in (build_pauli_system(m), dataclasses.replace(rotated)):
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


def test_a_validated_system_keeps_its_axiom_report():
    # the checker hands a system from validate_custom_basis the report that
    # validation formed; a copy made with dataclasses.replace is checked anew
    sys_ = validate_custom_basis(build_pauli_system(3).matrices)
    report = verify_basis_axioms(sys_)
    assert report.passed and verify_basis_axioms(sys_) is report
    assert verify_basis_axioms(dataclasses.replace(sys_)) is not report
    omega = sys_.omega.copy()
    omega[1, 2] *= -1.0
    broken = verify_basis_axioms(dataclasses.replace(sys_, omega=omega))
    assert broken.failures == (("closure", 1, 2),)


# --- the tables against the per-element loops they replaced ---

def _reference_ordering(m):
    """(order, index, sums) built one element at a time, sums[i, j] the
    index of alpha_i + alpha_j."""
    elems = [(a, b) for a in range(m) for b in range(m)]
    if m % 2 == 0:
        order = tuple(elems)
    else:
        reps = sorted({min(g, group_neg(g, m)) for g in elems[1:]})
        tail = [group_neg(g, m) for g in reversed(reps)]
        order = tuple([(0, 0)] + reps + tail)
    index = {g: i for i, g in enumerate(order)}
    q = m * m
    sums = np.empty((q, q), dtype=np.intp)
    for i, g in enumerate(order):
        for j, h in enumerate(order):
            sums[i, j] = index[group_add(g, h, m)]
    return order, index, sums


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
    """Same dtype, shape and bits; the kernel omega * conj(omega.T) comes out
    F-ordered at m >= 12, so both sides are viewed through C-ordered copies."""
    assert got.dtype == want.dtype and got.shape == want.shape
    if np.iscomplexobj(want):
        got, want = (np.ascontiguousarray(x).view(np.uint64) for x in (got, want))
    assert np.array_equal(got, want)


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8, 16, 17])
def test_tables_match_the_element_loops(m):
    # ordering.add broadcast over every pair, against the element loop's sums
    ordering = canonical_ordering(m)
    order, index, sums = _reference_ordering(m)
    _same_bits(ordering.order, np.array(order, dtype=np.intp))
    assert all(ordering.position[a, b] == i for (a, b), i in index.items())
    assert ordering.position.shape == (m, m)
    every = np.arange(m * m)
    _same_bits(ordering.add(every[:, None], every), sums)
    sys_ = build_pauli_system(m)
    assert sys_.ordering is ordering
    for got, want in zip((sys_.omega, sys_.kernel, sys_.matrices), _reference_pauli(m, order)):
        _same_bits(got, want)
    for arr in (ordering.order, ordering.position,
                sys_.omega, sys_.kernel, sys_.matrices):
        assert not arr.flags.writeable


# --- the array checks against the per-pair loops they replaced ---

def _reference_omega(mats, ordering):
    """w_{ij} = tr(E_{i+j}^dag E_i E_j) / m, one pair at a time."""
    q, m = mats.shape[:2]
    products = mats[:, None] @ mats[None, :]
    omega = np.empty((q, q), dtype=np.complex128)
    for i in range(q):
        for j in range(q):
            k = int(ordering.add(i, j))
            omega[i, j] = np.trace(mats[k].conj().T @ products[i, j]) / m
    return omega


def _reference_axioms(sys_):
    """(passed, failures, max_residual) of the axiom check, one pair at a time."""
    m, q = sys_.m, sys_.q
    mats, ordering = sys_.matrices, sys_.ordering
    products = mats[:, None] @ mats[None, :]
    checks = [(("unitary", i), np.abs(mats[i] @ mats[i].conj().T - np.eye(m)).max())
              for i in range(q)]
    checks.append((("identity", 0), np.abs(mats[0] - np.eye(m)).max()))
    for i in range(q):
        checks.append((("trace", i), abs(np.trace(mats[i]) - (m if i == 0 else 0.0))))
    for i in range(q):
        for j in range(q):
            w = sys_.omega[i, j]
            r = np.maximum(np.abs(products[i, j] - w * mats[int(ordering.add(i, j))]).max(),
                           abs(abs(w) - 1.0))
            checks.append((("closure", i, j), r))
    residuals = np.array([r for _, r in checks], dtype=float)
    bad = tuple(key for (key, _), r in zip(checks, residuals) if not r <= 1e-9)
    return not bad, bad, float(residuals.max())


def _reference_row_sums(sys_):
    """(passed, failures, max_residual) of the row-sum check, one h at a time."""
    sums = (sys_.omega * np.conj(sys_.omega.T)).sum(axis=1)
    bad = tuple(h for h in range(1, sys_.q) if not abs(sums[h]) <= 1e-9)
    return not bad, bad, float(np.abs(sums[1:]).max())


def _report(report):
    return report.passed, report.failures, report.max_residual


def _same_report(got, want):
    # NaN residuals compare equal here
    assert got[:2] == want[:2]
    assert np.array_equal(got[2], want[2], equal_nan=True)


def _test_bases(m):
    """The Pauli basis, a regauged one (E_0 = I kept) and a unitarily rotated one."""
    rng = np.random.default_rng(m)
    pauli = np.asarray(build_pauli_system(m).matrices)
    phases = np.exp(2j * np.pi * rng.random(m * m))
    phases[0] = 1.0
    u, _ = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return {"pauli": pauli, "regauged": phases[:, None, None] * pauli,
            "rotated": u @ pauli @ u.conj().T}


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_custom_basis_matches_the_pair_loops(m):
    ordering = canonical_ordering(m)
    for mats in _test_bases(m).values():
        sys_ = validate_custom_basis(mats)
        omega = _reference_omega(mats, ordering)
        _same_bits(sys_.omega, omega)
        _same_bits(sys_.kernel, omega * np.conj(omega.T))
        _same_bits(sys_.matrices, mats)
        for arr in (sys_.omega, sys_.kernel, sys_.matrices):
            assert not arr.flags.writeable
        # phases off the unit circle by ~1e-12: on a rotated basis, whose
        # entries are below 1 in modulus, | |w| - 1 | is the largest residual
        # (at m = 7, on an entry whose modulus np.abs rounds otherwise than abs)
        scaled = sys_.omega * (1.0 + 1e-12 * np.random.default_rng(1).random(sys_.omega.shape))
        for checked in (sys_, _corrupted(m, omega=scaled, matrices=sys_.matrices)):
            _same_report(_report(verify_basis_axioms(checked)), _reference_axioms(checked))
            _same_report(_report(verify_kernel_row_sums(checked)), _reference_row_sums(checked))


def _corrupted(m, omega=None, matrices=None):
    sys_ = build_pauli_system(m)
    return PhaseSystem(omega=sys_.omega if omega is None else omega,
                       ordering=sys_.ordering, matrices=sys_.matrices if matrices is None
                       else matrices)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_checks_on_several_failures_match_the_pair_loops(m):
    sys_ = build_pauli_system(m)
    mats, omega = np.array(sys_.matrices), np.array(sys_.omega)
    traced = mats.copy()
    traced[1] = np.eye(m)  # a trace failure, and closure failures with it
    nan_phase, nan_entry = omega.copy(), mats.copy()
    nan_phase[1, 2] = np.nan
    nan_phase[3, 0] *= 1.5  # not a unit phase
    nan_entry[3][0, 0] = np.nan
    cases = [_corrupted(m, matrices=traced), _corrupted(m, omega=nan_phase),
             _corrupted(m, matrices=nan_entry), _corrupted(m, nan_phase, nan_entry)]
    for broken in cases:
        axioms = _report(verify_basis_axioms(broken))
        _same_report(axioms, _reference_axioms(broken))
        assert not axioms[0] and len(axioms[1]) > 1
        _same_report(_report(verify_kernel_row_sums(broken)), _reference_row_sums(broken))
    assert {f[0] for f in verify_basis_axioms(cases[0]).failures} == {"trace", "closure"}
    assert np.isnan(verify_basis_axioms(cases[1]).max_residual)
    assert np.isnan(verify_basis_axioms(cases[2]).max_residual)


def test_custom_basis_peak_memory_stays_near_its_products():
    # the phase table and the closure residuals are formed a row at a time:
    # no temporary near the (q, q, m, m) products array itself
    import tracemalloc
    m = 8
    mats = _test_bases(m)["rotated"]
    products_bytes = (m * m) ** 2 * m * m * np.dtype(np.complex128).itemsize
    tracemalloc.start()
    try:
        validate_custom_basis(mats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * products_bytes
