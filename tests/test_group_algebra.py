import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecalg import (
    AlgebraElement,
    associated_element,
    build_pauli_system,
    canonical_ordering,
    catalog,
    double_transform_scaling_check,
    multiply,
    random_element,
    transform,
)
from qecalg.errors import ShapeMismatch, ZeroMass
from qecalg.group_algebra import array_length, contract_axes
from qecalg.kernel import apply_axiswise
from qecalg.oracle import label_digits, transform_naive
from stabilizer_reference import symplectic_product


def test_element_shape_and_mass():
    with pytest.raises(ValueError):
        AlgebraElement(2, 2, np.zeros(5))
    e = random_element(2, 2, seed=1)
    assert e.mass == pytest.approx(complex(e.coeffs.sum()))
    with pytest.raises(ValueError):
        e.coeffs[0] = 5.0  # immutable


def test_indicator_takes_flat_indices_in_range():
    e = AlgebraElement.indicator(2, 1, [1, 3, 1])
    assert e.coeffs.tolist() == [0, 1, 0, 1]
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"flat index {bad} outside"):
            AlgebraElement.indicator(2, 1, [0, bad])
    # a label is not an index: a one-coordinate label on n = 2 used to set index 1
    with pytest.raises(TypeError):
        AlgebraElement.indicator(2, 2, [((0, 1),)])


def test_array_length_refuses_what_intp_cannot_index():
    # the bound is exact, and no power of m is formed for a huge n
    top = np.iinfo(np.intp).max
    assert array_length(2, 62, "a row") == 2 ** 62 <= top
    assert array_length(2, 31, "an element", 2) == 4 ** 31
    for m, n, power in ((2, 63, 1), (2, 32, 2), (3, 40, 1), (3, 10 ** 8, 1), (3, 10 ** 8, 2)):
        with pytest.raises(ValueError, match=f"^m={m}, n={n} is too large: a row"):
            array_length(m, n, "a row", power)
    # and it owns the range check of every sized array
    for m, n in ((1, 3), (0, 1), (-2, 3), (2, 0), (2, -1)):
        for call in (lambda: array_length(m, n, "a row"), lambda: AlgebraElement.zero(m, n),
                     lambda: random_element(m, n, seed=1)):
            with pytest.raises(ValueError, match=f"^need m >= 2 and n >= 1, got m={m}, n={n}$"):
                call()


_HUGE_N_PROBE = """
import time
import numpy as np
from qecalg import AlgebraElement, CodeSpec, random_element
for call in (lambda: CodeSpec.from_basis(3, 10 ** 8, np.zeros((1, 3))),
             lambda: AlgebraElement(3, 10 ** 7, np.zeros(9)),
             lambda: AlgebraElement.zero(3, 10 ** 7),
             lambda: AlgebraElement.indicator(3, 10 ** 7, [0]),
             lambda: random_element(3, 10 ** 7, seed=1)):
    start = time.perf_counter()
    try:
        call()
        print("0 accepted")
    except ValueError as exc:
        print(f"{time.perf_counter() - start:.6f} {exc}")
"""


def test_constructors_refuse_a_huge_n_before_forming_a_power():
    # m^n or m^(2n) at such an n takes far longer than the timeout, so a
    # constructor that forms the power before array_length's check fails
    # the test instead of hanging it; the child allocates no large array
    import qecalg
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qecalg.__file__)))
    done = subprocess.run([sys.executable, "-c", _HUGE_N_PROBE], capture_output=True,
                          text=True, check=True, env=env, timeout=10)
    lines = done.stdout.splitlines()
    expected = (["m=3, n=100000000 is too large: a basis row would need m^n entries"]
                + ["m=3, n=10000000 is too large: an element would need m^(2n) entries"] * 4)
    assert len(lines) == len(expected), done.stdout
    for line, message in zip(lines, expected):
        seconds, text = line.split(" ", 1)
        assert text.startswith(message), line
        assert float(seconds) < 1.0, line


def test_multiply_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        multiply(AlgebraElement.unit(2, 1), AlgebraElement.unit(2, 2))
    with pytest.raises(ShapeMismatch):
        multiply(AlgebraElement.unit(2, 2), AlgebraElement.unit(3, 2))


@settings(max_examples=40, deadline=None)
@given(m=st.integers(2, 3), n=st.integers(1, 2), data=st.data())
def test_multiply_single_terms(m, n, data):
    size = (m * m) ** n
    gi = data.draw(st.integers(0, size - 1))
    hi = data.draw(st.integers(0, size - 1))
    ordering = canonical_ordering(m)
    digits = label_digits(m, n)
    g = ordering.order[digits[gi]].tolist()
    h = ordering.order[digits[hi]].tolist()
    out = multiply(
        AlgebraElement.indicator(m, n, [gi]), AlgebraElement.indicator(m, n, [hi])
    )
    expected = [ordering.position[(a + c) % m, (b + d) % m] for (a, b), (c, d) in zip(g, h)]
    # the kernel route rounds at odd m (0.9999999999999998 - 4.9e-16j at m = 3)
    want = AlgebraElement.indicator(m, n, [np.ravel_multi_index(expected, (m * m,) * n)])
    assert np.abs(out.coeffs - want.coeffs).max() <= 1e-12
    assert out.mass == pytest.approx(1.0)


def test_multiply_identity_and_m2_selfinverse():
    a = random_element(2, 2, seed=4)
    z0 = AlgebraElement.unit(2, 2)
    assert np.abs(multiply(a, z0).coeffs - a.coeffs).max() < 1e-12
    z = AlgebraElement.indicator(2, 1, [canonical_ordering(2).position[0, 1]])
    sq = multiply(z, z)
    assert sq.coeffs[0] == 1.0 and np.abs(sq.coeffs[1:]).max() == 0.0


def test_multiply_commutative_associative():
    rng_seeds = [(10, 11, 12), (13, 14, 15), (16, 17, 18)]
    for s1, s2, s3 in rng_seeds:
        a = random_element(2, 2, seed=s1)
        b = random_element(2, 2, seed=s2)
        c = random_element(2, 2, seed=s3)
        assert np.abs(multiply(a, b).coeffs - multiply(b, a).coeffs).max() < 1e-12
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        assert np.abs(left.coeffs - right.coeffs).max() < 1e-12


def test_multiply_scales_as_division():
    # the kernel route scales by 1/m^(2n) with one multiply: the same floats
    # as dividing by m^(2n)
    for m, n in ((2, 3), (3, 2), (4, 2), (5, 2)):
        a, b = random_element(m, n, seed=m), random_element(m, n, seed=m + 10)
        kernel = build_pauli_system(m).kernel
        product = apply_axiswise(kernel, a.coeffs, n) * apply_axiswise(kernel, b.coeffs, n)
        want = apply_axiswise(kernel, product, n) / a.size
        assert np.array_equal(multiply(a, b).coeffs, want)


def _real_mass_elements():
    """Elements of the catalog codes small enough to hold densely, and
    code-like random elements at m = 2..5: all of real mass."""
    for name in ("513", "422", "913shor", "311qutrit", "steane713"):
        code = catalog.load(name)
        yield associated_element(build_pauli_system(code.m), code)
    for m, n in ((2, 4), (3, 3), (4, 2), (5, 2)):
        for seed in range(3):
            yield random_element(m, n, seed=seed, nonneg=True)


def test_transform_scales_real_mass_as_division():
    # a multiply by 1/M equals division by a real M as floats (+0 == -0)
    for a in _real_mass_elements():
        assert a.mass.imag == 0
        sys_ = build_pauli_system(a.m)
        want = apply_axiswise(sys_.kernel, a.coeffs, a.n) / a.mass
        assert np.array_equal(transform(sys_, a).coeffs, want)


def test_transform_scales_complex_mass_to_rounding():
    for m, n in ((2, 4), (3, 3), (4, 2), (5, 2)):
        sys_ = build_pauli_system(m)
        for seed in range(5):
            a = random_element(m, n, seed=seed)
            want = apply_axiswise(sys_.kernel, a.coeffs, a.n) / a.mass
            got = transform(sys_, a).coeffs
            assert np.abs(got - want).max() <= 4.5e-16 * np.abs(want).max()


@pytest.mark.parametrize("s", [4, 9, 16])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_contract_axes_matches_einsum(n, s):
    # trial counts on both sides of a chunk of s (n = 1) or s^2 (n >= 2) trials
    rng = np.random.default_rng(100 * s + n)
    values = rng.standard_normal(s ** n) + 1j * rng.standard_normal(s ** n)
    for count in (1, s, s * s, s * s + 1):
        vectors = (rng.standard_normal((count, n, s))
                   + 1j * rng.standard_normal((count, n, s)))
        operands = [values.reshape((s,) * n), list(range(n))]
        for i in range(n):
            operands += [vectors[:, i], [n, i]]
        want = np.einsum(*operands, [n])
        got = contract_axes(values, vectors)
        assert got.shape == (count,)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_transform_of_unit(sys2):
    unit = AlgebraElement.unit(2, 2)
    assert unit.mass == 1.0
    assert np.abs(transform(sys2, unit).coeffs - 1.0).max() < 1e-12


def test_transform_of_full_sum(sys2):
    full = AlgebraElement(2, 2, np.ones(16))
    fast = transform(sys2, full).coeffs
    naive = transform_naive(sys2, full).coeffs
    expected = np.zeros(16)
    expected[0] = 1.0
    assert np.abs(fast - expected).max() < 1e-12
    assert np.abs(naive - expected).max() < 1e-12


def test_transform_zero_mass(sys2):
    with pytest.raises(ZeroMass):
        transform(sys2, AlgebraElement.zero(2, 1))
    with pytest.raises(ZeroMass):
        transform_naive(sys2, AlgebraElement.zero(2, 1))


def test_transform_system_element_mismatch(sys3):
    with pytest.raises(ShapeMismatch):
        transform(sys3, AlgebraElement.unit(2, 1))


@pytest.mark.parametrize(
    "m,n,count", [(2, 1, 15), (2, 2, 15), (2, 3, 15), (3, 1, 15), (3, 2, 20), (3, 3, 20)]
)
def test_fast_transform_matches_naive(m, n, count, sys2, sys3):
    sys_ = sys2 if m == 2 else sys3
    for seed in range(count):
        e = random_element(m, n, seed=seed)
        fast = transform(sys_, e).coeffs
        naive = transform_naive(sys_, e).coeffs
        assert np.abs(fast - naive).max() < 1e-9


def test_unnormalized_transform_is_linear(sys2):
    a = random_element(2, 2, seed=21)
    b = random_element(2, 2, seed=22)
    alpha, beta = 0.7 - 0.2j, 1.3 + 0.4j

    def unnorm(x):
        return transform(sys2, x).coeffs * x.mass

    combo = AlgebraElement(2, 2, alpha * a.coeffs + beta * b.coeffs)
    assert np.abs(unnorm(combo) - alpha * unnorm(a) - beta * unnorm(b)).max() < 1e-9


def test_transform_h0_coefficient(sys2, sys3):
    for sys_, m, n in ((sys2, 2, 3), (sys3, 3, 2)):
        for seed in range(5):
            e = random_element(m, n, seed=seed)
            res = transform(sys_, e)
            # normalized c'_0 is exactly 1, so unnormalized it equals the mass
            assert res.coeffs[0] == pytest.approx(1.0, abs=1e-12)
            assert res.coeffs[0] * e.mass == pytest.approx(e.mass)


def test_double_transform_unit(sys2):
    z0 = AlgebraElement.unit(2, 2)
    assert z0.mass == 1.0
    first = transform(sys2, z0)
    assert first.mass == pytest.approx(16.0)
    second = transform(sys2, first)
    assert np.abs(second.coeffs - z0.coeffs).max() < 1e-12
    assert double_transform_scaling_check(sys2, z0).passed


def test_double_transform_random(sys2, sys3):
    for sys_, m, n in ((sys2, 2, 2), (sys2, 2, 3), (sys3, 3, 2)):
        for seed in range(10):
            report = double_transform_scaling_check(sys_, random_element(m, n, seed, nonneg=True))
            assert report.passed, report.summary()


def test_double_transform_memory_and_residual(sys2, sys3):
    # m=2 n=9: 4^9 coefficients, m=3 n=5: 9^5; the residual is one array of the element's size
    for sys_, m, n in ((sys2, 2, 9), (sys3, 3, 5)):
        a = random_element(m, n, seed=3, nonneg=True)
        tracemalloc.start()
        try:
            report = double_transform_scaling_check(sys_, a)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the second transform's two kernel outputs and the first transform
        assert peak < 3.1 * a.coeffs.nbytes, f"traced peak {peak / a.coeffs.nbytes:.2f} x the element"
        first = transform(sys_, a)
        second = transform(sys_, first)
        whole = np.abs(second.coeffs - a.size / (a.mass * first.mass) * a.coeffs).max()
        assert np.float64(report.max_residual).view(np.uint64) == np.float64(whole).view(np.uint64)
        assert report.passed


def test_five_qubit_transform_is_normalizer_indicator(sys2, five_qubit_code):
    # the transform of the stabilizer indicator must be the indicator of the
    # set of labels commuting with every generator (checked symplectically)
    element = associated_element(sys2, five_qubit_code)
    assert element.mass == pytest.approx(16.0)
    dual = transform(sys2, element)

    gens = five_qubit_code.body.rows.reshape(-1, 5, 2).tolist()
    labels = sys2.ordering.order[label_digits(2, 5)].tolist()  # by flat index
    normalizer = np.array(
        [all(symplectic_product(label, gen, 2) == 0 for gen in gens) for label in labels],
        dtype=float,
    )
    assert normalizer.sum() == 64
    assert np.abs(dual.coeffs - normalizer).max() < 1e-9

    naive = transform_naive(sys2, element)
    assert np.abs(naive.coeffs - normalizer).max() < 1e-9

    # code-derived element: M * M' = m^(2n), double transform is the identity
    report = double_transform_scaling_check(sys2, element)
    assert report.passed
    assert element.mass * dual.mass == pytest.approx(4 ** 5)
