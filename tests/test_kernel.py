import numpy as np
import pytest

from qecalg import kernel


def _random_case(rng, s, n):
    mat = rng.standard_normal((s, s)) + 1j * rng.standard_normal((s, s))
    vec = rng.standard_normal(s ** n) + 1j * rng.standard_normal(s ** n)
    return mat, vec


def _einsum_reference(mat, vec, n):
    s = mat.shape[0]
    t = vec.reshape((s,) * n)
    for axis in range(n):
        t = np.tensordot(mat, t, axes=([1], [axis]))
        t = np.moveaxis(t, 0, axis)
    return t.reshape(-1)


# (3, 6) ... (9, 3): where a per-axis batched matmul would end in tiny batches
@pytest.mark.parametrize("s,n", [(2, 1), (2, 5), (3, 3), (4, 4), (4, 8), (9, 2),
                                 (3, 6), (5, 4), (6, 3), (9, 3), (3, 1), (9, 1), (16, 1)])
def test_python_kernel_matches_tensordot(s, n):
    rng = np.random.default_rng(s * 100 + n)
    mat, vec = _random_case(rng, s, n)
    got = kernel.apply_axiswise(mat, vec, n)
    assert got.dtype == np.complex128
    assert np.abs(got - _einsum_reference(mat, vec, n)).max() < 1e-9


def test_input_is_not_mutated():
    rng = np.random.default_rng(8)
    mat, vec = _random_case(rng, 4, 3)
    keep = vec.copy()
    out = kernel.apply_axiswise(mat, vec, 3)
    assert np.array_equal(vec, keep)
    assert not np.shares_memory(out, vec)


def test_shape_validation():
    with pytest.raises(ValueError):
        kernel.apply_axiswise(np.eye(4), np.zeros(17), 2)
    with pytest.raises(ValueError):
        kernel.apply_axiswise(np.eye(3), np.zeros(1), 0)


# --- the real route for real 4 x 4 matrices (the m=2 Pauli side) ---

def _complex_loop(mat, vec, n):
    """The complex contraction that every non-real matrix takes: contract the
    leading axis and move it to the end, one GEMM per axis."""
    s = mat.shape[0]
    a = np.asarray(vec, dtype=np.complex128)
    mat = np.asarray(mat, dtype=np.complex128)
    for _ in range(n):
        a = a.reshape(s, -1).T @ mat.T
    return a.reshape(-1)


@pytest.fixture
def real_route_calls(monkeypatch):
    calls = []
    real = kernel._apply_real

    def spy(mat, a, n, *rest):
        calls.append(n)
        return real(mat, a, n, *rest)

    monkeypatch.setattr(kernel, "_apply_real", spy)
    return calls


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_real_matrix_matches_tensordot(n, real_route_calls):
    rng = np.random.default_rng(40 + n)
    mat = rng.standard_normal((4, 4))
    vec = rng.standard_normal(4 ** n) + 1j * rng.standard_normal(4 ** n)
    got = kernel.apply_axiswise(mat, vec, n)
    want = _einsum_reference(mat, vec, n)
    assert real_route_calls == [n]
    assert got.dtype == np.complex128
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 5, 6, 7, 9])
def test_integer_input_is_bit_identical_to_complex_loop(n, sys2, real_route_calls):
    # the m=2 Pauli kernel is complex-typed with a zero imaginary part
    rng = np.random.default_rng(n)
    vec = rng.integers(-9, 10, 4 ** n) + 1j * rng.integers(-9, 10, 4 ** n)
    vec[rng.random(4 ** n) < 0.5] = 0
    got = kernel.apply_axiswise(sys2.kernel, vec, n)
    assert real_route_calls == [n]
    assert got.view(np.uint64).tolist() == _complex_loop(sys2.kernel, vec, n).view(np.uint64).tolist()


def test_real_route_leaves_readonly_input_untouched(real_route_calls):
    rng = np.random.default_rng(9)
    vec = rng.standard_normal(4 ** 3) + 1j * rng.standard_normal(4 ** 3)
    vec.setflags(write=False)
    keep = vec.copy()
    out = kernel.apply_axiswise(rng.standard_normal((4, 4)), vec, 3)
    assert real_route_calls == [3]
    assert np.array_equal(vec, keep) and not np.shares_memory(out, vec)
    assert out.flags.writeable


def test_complex_side4_matrix_takes_the_complex_loop(real_route_calls):
    rng = np.random.default_rng(10)
    mat, vec = _random_case(rng, 4, 3)
    got = kernel.apply_axiswise(mat, vec, 3)
    assert real_route_calls == []
    assert got.view(np.uint64).tolist() == _complex_loop(mat, vec, 3).view(np.uint64).tolist()


@pytest.mark.parametrize("s,n", [(4, 1), (4, 6), (4, 7), (9, 1), (9, 4)])
def test_overwrite_input_uses_one_scratch_array(s, n):
    # the caller's array is one of the two buffers: the same bits, and the
    # call allocates about one array of the input's size, not two
    import tracemalloc
    rng = np.random.default_rng(s + n)
    mat = rng.standard_normal((s, s)) if s == 4 else _random_case(rng, s, n)[0]
    vec = rng.standard_normal(s ** n) + 1j * rng.standard_normal(s ** n)
    want = kernel.apply_axiswise(mat, vec, n)
    scratch = vec.copy()
    tracemalloc.start()
    try:
        got = kernel.apply_axiswise(mat, scratch, n, overwrite_input=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()
    assert peak <= vec.nbytes + 16384  # the small matrices and views besides
