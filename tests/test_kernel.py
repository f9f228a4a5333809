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


@pytest.mark.parametrize("s,n", [(2, 1), (2, 5), (3, 3), (4, 4), (4, 8), (9, 2)])
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
