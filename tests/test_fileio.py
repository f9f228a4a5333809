import numpy as np
import pytest

from qecalg import AlgebraElement, CodeSpec, build_pauli_system, catalog, random_element
from qecalg.errors import FormatError
from qecalg.fileio import (
    read_code,
    read_custom_basis,
    read_element,
    write_code,
    write_custom_basis,
    write_element,
)


def test_element_roundtrip(tmp_path):
    e = random_element(2, 2, seed=6)
    path = tmp_path / "e.elem"
    write_element(path, e)
    back = read_element(path)
    assert back.m == 2 and back.n == 2
    assert np.array_equal(back.coeffs, e.coeffs)


def test_element_sparse_and_comments(tmp_path):
    path = tmp_path / "sparse.elem"
    path.write_text(
        "# a comment\n\nelement v1\nm 2\nn 1\n# body\n2 0.5,-1.5\n"
    )
    e = read_element(path)
    assert e.coeffs[2] == 0.5 - 1.5j
    assert e.coeffs[[0, 1, 3]].sum() == 0.0


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("element v1\nm 2\n", "missing header field"),
        ("wrongmagic\nm 2\nn 1\n", "expected header"),
        ("element v1\nm 2\nn 1\n99 1,0\n", "out of range"),
        ("element v1\nm 2\nn 1\n0 1,0\n0 2,0\n", "duplicate"),
        ("element v1\nm 2\nn 1\n0 nope\n", "expected 're,im'"),
        ("element v1\nm x\nn 1\n", "must be an integer"),
        ("element v1\nm 2\nn 1\n0 nan,0\n", "non-finite"),
        ("element v1\nm 2\nn 1\n0 1,-inf\n", "non-finite"),
        ("element v1\nm 2\nn 1\n0 infinity,0\n", "non-finite"),
    ],
)
def test_element_format_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.elem"
    path.write_text(body)
    with pytest.raises(FormatError) as err:
        read_element(path)
    assert fragment in str(err.value)


def test_format_error_reports_line_number(tmp_path):
    path = tmp_path / "bad.elem"
    path.write_text("element v1\nm 2\nn 1\n0 1,0\nbroken line here\n")
    with pytest.raises(FormatError) as err:
        read_element(path)
    assert "line 5" in str(err.value)


def test_code_roundtrip_stabilizer(tmp_path, five_qubit_code):
    path = tmp_path / "code.code"
    write_code(path, five_qubit_code)
    back = read_code(path)
    assert back.kind == "stabilizer"
    assert back.body.labels == five_qubit_code.body.labels


def test_code_roundtrip_basis(tmp_path):
    rng = np.random.default_rng(2)
    v = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0].T
    code = CodeSpec.from_basis(2, 2, v)
    path = tmp_path / "basis.code"
    write_code(path, code)
    back = read_code(path)
    assert back.kind == "basis"
    assert np.abs(back.body.vectors - code.body.vectors).max() < 1e-15


def test_code_format_errors(tmp_path):
    path = tmp_path / "bad.code"
    path.write_text("code v1\nm 2\nn 2\nkind stabilizer\n1,0 0,1 0,0\n")
    with pytest.raises(FormatError) as err:
        read_code(path)
    assert "coordinates" in str(err.value)
    path.write_text("code v1\nm 2\nn 2\nkind nope\n")
    with pytest.raises(FormatError):
        read_code(path)
    path.write_text("code v1\nm 2\nn 2\nkind stabilizer\n")
    with pytest.raises(FormatError):
        read_code(path)
    for body, fragment in [
        ("code v1\nm 2\nn 1\nkind basis\n1,0 nan,0\n", "non-finite"),
        ("code v1\nm 2\nn 1\nkind basis\n1,0 0,inf\n", "non-finite"),
        ("code v1\nm 2\nn 0\nkind basis\n1,0\n", "n >= 1, got m=2, n=0"),
        ("code v1\nm 2\nn -3\nkind stabilizer\n", "n >= 1, got m=2, n=-3"),
        ("code v1\nm 1\nn 2\nkind stabilizer\n0,0 0,0\n", "need m >= 2"),
        ("code v1\nm 0\nn 2\nkind basis\n", "need m >= 2"),
    ]:
        path.write_text(body)
        with pytest.raises(FormatError) as err:
            read_code(path)
        assert fragment in str(err.value)


def test_catalog_entries_load():
    assert set(catalog.names()) == {"311qutrit", "422", "513", "913shor", "rm15", "steane713"}
    for name in catalog.names():
        code = catalog.load(name)
        assert code.kind == "stabilizer"
    with pytest.raises(KeyError):
        catalog.load("nope")


def test_custom_basis_roundtrip(tmp_path):
    sys2 = build_pauli_system(2)
    path = tmp_path / "basis.errorbasis"
    write_custom_basis(path, 2, np.asarray(sys2.matrices))
    back = read_custom_basis(path)
    assert np.abs(back.kernel - sys2.kernel).max() < 1e-12


def test_custom_basis_wrong_ordering_token(tmp_path):
    sys2 = build_pauli_system(2)
    path = tmp_path / "basis.errorbasis"
    write_custom_basis(path, 2, np.asarray(sys2.matrices))
    text = path.read_text().replace("row-major", "lee-paired")
    path.write_text(text)
    with pytest.raises(FormatError) as err:
        read_custom_basis(path)
    assert "canonical" in str(err.value)


def test_custom_basis_row_count_checked(tmp_path):
    path = tmp_path / "short.errorbasis"
    path.write_text("errorbasis v1\nm 2\nordering row-major\n1,0 0,0\n")
    with pytest.raises(FormatError) as err:
        read_custom_basis(path)
    assert "rows" in str(err.value)


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("errorbasis v1\nm 1\nordering lee-paired\n1,0\n", "need m >= 2, got m=1"),
        ("errorbasis v1\nm 0\nordering row-major\n", "need m >= 2, got m=0"),
        ("errorbasis v1\nm -2\nordering row-major\n", "need m >= 2, got m=-2"),
        ("errorbasis v1\nm 2\nordering row-major\n1,0 0,0\nnan,0 1,0\n", "non-finite"),
    ],
    ids=["m1", "m0", "m-neg", "nan"],
)
def test_custom_basis_format_errors(tmp_path, body, fragment):
    path = tmp_path / "bad.errorbasis"
    path.write_text(body)
    with pytest.raises(FormatError) as err:
        read_custom_basis(path)
    assert fragment in str(err.value)
