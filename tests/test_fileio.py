from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qecalg import (
    AlgebraElement,
    CodeSpec,
    build_pauli_system,
    catalog,
    fileio,
    random_code,
    random_element,
)
from qecalg.errors import FormatError, QecalgError
from qecalg.fileio import (
    read_code,
    read_custom_basis,
    read_element,
    write_code,
    write_custom_basis,
    write_element,
)

from element_io_reference import (
    read_element_reference,
    write_code_reference,
    write_custom_basis_reference,
    write_element_reference,
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
    assert np.array_equal(back.body.rows, five_qubit_code.body.rows)


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


# --- the bulk parser and writer against the line-by-line reference ---

_LINE_ENDS = ["\n", "\r\n", "\r"]
# whitespace inside a line: str.split() separates tokens at all of these, while
# only \n, \r\n and \r end a line of the file
_SPACES = [" ", "\t", "  ", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " \u3000"]
_NUMBERS = ["0", "1", "-2.5", "1e-300", "5e-324", "-0", "1_0", "\u0663", "\u0661.\u0665",
            "nan", "-inf", "infinity", "1e999", "", "x", "1,0", "0x1", "+3"]


def _outcome(read, data):
    try:
        e = read("t.elem", data)
    except FormatError as exc:
        return "error", str(exc), exc.line
    return "element", e.m, e.n, e.coeffs.tobytes()


@st.composite
def _index_tokens(draw, size):
    return draw(st.one_of(
        st.integers(-2, size + 1).map(str),
        st.sampled_from(["1_0", "\u0663", "+1", "01", "x", "1.0", "1,0", "9" * 30]),
    ))


@st.composite
def _value_tokens(draw):
    parts = draw(st.lists(
        st.one_of(st.sampled_from(_NUMBERS),
                  st.floats(allow_nan=False, width=64).map(lambda x: f"{x:.17g}")),
        min_size=1, max_size=3))
    return ",".join(parts)


@st.composite
def _element_texts(draw):
    m, n = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    size = (m * m) ** n
    header = ["element v1", f"m {m}", f"n {n}"]
    if draw(st.booleans()):
        header[draw(st.integers(0, 2))] = draw(st.sampled_from(["m 2", "n 0", "m x", "element"]))
    body = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["entry"] * 6 + ["comment", "blank", "tokens"]))
        if kind == "comment":
            body.append("#" + draw(st.sampled_from(["", " note", " 1 1,0"])))
        elif kind == "blank":
            body.append(draw(st.sampled_from(["", " ", "\x0c", "\u2028"])))
        else:
            count = 2 if kind == "entry" else draw(st.sampled_from([1, 3]))
            tokens = [draw(_index_tokens(size))] + [draw(_value_tokens()) for _ in range(count - 1)]
            body.append(draw(st.sampled_from(_SPACES)).join(tokens))
    lines = header + body
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), "# comment")
    ends = [draw(st.sampled_from(_LINE_ENDS)) for _ in lines]
    return "".join(line + end for line, end in zip(lines, ends))


@settings(max_examples=150, deadline=None)
@given(_element_texts())
def test_read_element_matches_line_by_line_reference(text):
    data = text.encode("utf-8")
    want = _outcome(read_element_reference, data)
    assert _outcome(read_element, data) == want
    # blocks of a few characters: the header, the duplicate check and the
    # line numbers all run across block boundaries
    with mock.patch.object(fileio, "_BLOCK_CHARS", 5):
        assert _outcome(read_element, data) == want


@pytest.mark.parametrize("body", [
    "0 1,0\n1 1,0\n0 1,0\n1 x,0\n",       # duplicate before a bad value
    "0 1,0\n1 x,0\n0 1,0\n",              # bad value before a duplicate
    "0 1,0\n1 1,inf\n9 1,0\n",            # non-finite before out of range
    "0 1,0\n9 1,0\n1 1,2,3\n",            # out of range before a bad token
    "0 1,0\nx 1,0\n1 1,0 2\n",            # bad index before a bad token count
    "0 1,0\n1 2\n2 1,0 3\n",              # bad token before a bad token count
    "2 1,0\n1 1,0\n3 ,\n2 1,0\n",        # empty halves before a duplicate
])
@pytest.mark.parametrize("block", [1 << 20, 1, 9])
def test_read_element_reports_the_first_bad_line(monkeypatch, body, block):
    monkeypatch.setattr(fileio, "_BLOCK_CHARS", block)
    data = ("element v1\nm 2\nn 1\n" + body).encode()
    got = _outcome(read_element, data)
    assert got[0] == "error" and got == _outcome(read_element_reference, data)


@st.composite
def _headed_bytes(draw):
    """A header of one of the three formats (with m^(2n) <= 4096) and any body."""
    magic, fields = draw(st.sampled_from([
        ("element v1", ["m 2", "n 3"]), ("element v1", ["m 4", "n 3"]),
        ("code v1", ["m 2", "n 2", "kind stabilizer"]), ("code v1", ["m 3", "n 1", "kind basis"]),
        ("errorbasis v1", ["m 2", "ordering row-major"]),
        ("errorbasis v1", ["m 3", "ordering lee-paired"]),
    ]))
    head = "\n".join([magic, *fields]) + "\n"
    return head.encode() + draw(st.binary(max_size=200))


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.binary(max_size=100), _headed_bytes()))
def test_any_bytes_read_or_format_error(tmp_path_factory, data):
    # element and code files either parse or raise FormatError; a custom basis
    # that parses may still fail validation, which is another QecalgError
    path = tmp_path_factory.getbasetemp() / "fuzz.errorbasis"
    path.write_bytes(data)
    for read in (read_element, read_code):
        try:
            read(path, data)
        except FormatError:
            pass
    try:
        read_custom_basis(path)
    except QecalgError:
        pass


@pytest.mark.parametrize("data,line", [
    (b"element v1\nm 2\nn 1\n0 1,0\n1 \xff,0\n", 5),
    (b"element v1\r\nm 2\r\n\xe2\x82", 3),
    (b"\xc3(", 1),
], ids=["body", "crlf-truncated", "first-byte"])
def test_invalid_utf8_is_format_error_with_line(tmp_path, data, line):
    path = tmp_path / "bad.bin"
    path.write_bytes(data)
    for read in (read_element, read_code, read_custom_basis):
        with pytest.raises(FormatError) as err:
            read(path)
        assert err.value.line == line
        assert f"line {line}: not valid UTF-8" in str(err.value)


def _edges():
    """4^4 complex numbers whose parts pair every two of +-0, subnormals,
    +-the largest double, 0.1, integral values, inf and nan, then zeros."""
    big = np.finfo(np.float64).max
    values = np.array([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, big, -big,
                       0.1, 1.0, -2.0, 2.0 ** 53, 1e22, np.inf, -np.inf, np.nan])
    out = np.zeros(4 ** 4, dtype=np.complex128)
    out.real[:values.size ** 2] = np.repeat(values, values.size)
    out.imag[:values.size ** 2] = np.tile(values, values.size)
    return out


def _write_both(tmp_path, element):
    write_element(tmp_path / "new.elem", element)
    write_element_reference(tmp_path / "old.elem", element)
    return (tmp_path / "new.elem").read_bytes(), (tmp_path / "old.elem").read_bytes()


@pytest.mark.parametrize("case", ["gaussian", "sparse", "signed-zero", "subnormal", "huge",
                                  "edges"])
def test_write_element_matches_reference_bytes(tmp_path, case):
    # the bytes writer against the str writer's UTF-8
    rng = np.random.default_rng(11)
    size = 4 ** 4
    coeffs = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if case == "sparse":
        coeffs[rng.random(size) < 0.9] = 0
    elif case == "signed-zero":
        coeffs.real[::3] = -0.0
        coeffs.imag[::2] = -0.0
        coeffs[::5] = complex(-0.0, -0.0)
    elif case == "subnormal":
        coeffs *= 5e-324 * rng.integers(1, 1000, size)
    elif case == "huge":
        coeffs *= 1e300
    elif case == "edges":
        coeffs = _edges()
    new, old = _write_both(tmp_path, AlgebraElement(2, 4, coeffs))
    assert new == old
    if case != "edges":  # the reader refuses inf and nan
        back = read_element(tmp_path / "new.elem")
        assert np.array_equal(back.coeffs, coeffs)


def test_write_element_blocks_join_seamlessly(tmp_path, monkeypatch):
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", 7)
    element = random_element(2, 3, seed=4)
    new, old = _write_both(tmp_path, element)
    assert new == old and new.count(b"\n") == 3 + np.count_nonzero(element.coeffs)


def test_basis_rows_report_the_first_bad_line(tmp_path):
    # a bad entry on an earlier row wins over a short later row, as row by row
    path = tmp_path / "bad.code"
    path.write_text("code v1\nm 2\nn 1\nkind basis\n1,0 0,0\n1,0 inf,0\n0,0\n")
    with pytest.raises(FormatError) as err:
        read_code(path)
    assert (err.value.line, "non-finite number in 'inf,0'" in str(err.value)) == (6, True)
    path.write_text("errorbasis v1\nm 2\nordering row-major\n1,0 0,0\n0,0\n1,0 x,0\n")
    with pytest.raises(FormatError) as err:
        read_custom_basis(path)
    assert (err.value.line, "matrix row has 1 entries, expected 2" in str(err.value)) == (5, True)


# --- the bulk route for bodies spelled as the writers spell them ---

# tokens a bulk parser could split or misread: float() refuses all but "1.",
# ".5", "+5" and "1e999" (which is infinite)
_SPLITTABLE = ["1-2", "1e5.3", ".", "1.", ".5", "+5", "1e", "e5", "--1", "1+", "1e999",
               "-1e999", "1..2", "0x1", "1e5e3"]


def _rarely(draw, usual, odd):
    """A draw from `usual`, or one time in eight from `odd`."""
    return draw(odd if draw(st.integers(0, 7)) == 0 else usual)


@st.composite
def _written_texts(draw):
    """Element files whose body lines are all `<index> <re>,<im>`, with one
    space and one comma, as write_element and repr spell them, and one kind
    of line end (\\n, \\r\\n or \\r) throughout.  The lines
    mostly hold distinct indices and finite values; a few tokens are signed,
    duplicated, out of range or not numbers at all."""
    m, n = draw(st.sampled_from([(2, 1), (2, 2), (3, 1)]))
    size = (m * m) ** n
    order = draw(st.permutations(range(size)))
    value = st.floats(allow_nan=False, allow_infinity=False, width=64)
    value = st.one_of(value.map(lambda x: f"{x:.17g}"), value.map(repr))
    odd_value = st.sampled_from(["-0", "5e-324", "1E5", *_SPLITTABLE])
    body, indices = [], []
    for i in order[: draw(st.integers(0, size))]:
        odd_index = st.sampled_from(["-0", "-1", str(size), "9" * 30, "1e0", "1.0", *_SPLITTABLE])
        if indices:  # an index of an earlier line
            odd_index = st.one_of(odd_index, st.sampled_from(indices))
        index = _rarely(draw, st.sampled_from([str(i), f"+{i}", f"0{i}"]), odd_index)
        indices.append(index)
        line = f"{index} {_rarely(draw, value, odd_value)},{_rarely(draw, value, odd_value)}"
        # lines of the same characters in another shape, some still valid
        body.append(_rarely(draw, st.just(line), st.sampled_from([
            "1,2 3", "0 1 2", "1,2,3", "0 ,1", "0 1,", "0 1,2,3", "0 1 2,3", "0  1,2",
            f" {line}", f"{line} ", "", " ", ","])))
    end = draw(st.sampled_from(_LINE_ENDS))
    return end.join(["element v1", f"m {m}", f"n {n}", *body]) + draw(st.sampled_from([end, ""]))


@settings(max_examples=200, deadline=None)
@given(_written_texts())
def test_written_bodies_match_line_by_line_reference(text):
    data = text.encode()
    want = _outcome(read_element_reference, data)
    for block in (fileio._BLOCK_CHARS, 5, 64):
        with mock.patch.object(fileio, "_BLOCK_CHARS", block):
            assert _outcome(read_element, data) == want


def _repr_element_file(path, element):
    """An element file spelled as perfbench's reference writer spells it."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"element v1\nm {element.m}\nn {element.n}\n")
        fh.writelines(f"{i} {float(c.real)!r},{float(c.imag)!r}\n"
                      for i, c in enumerate(element.coeffs))


@pytest.mark.parametrize("block", [1 << 20, 64, 5])
@pytest.mark.parametrize("writer", ["write_element", "repr", "crlf", "cr"])
def test_written_files_are_read_in_bulk(tmp_path, monkeypatch, writer, block):
    # crlf and cr: write_element's file with \r\n or \r line ends
    monkeypatch.setattr(fileio, "_BLOCK_CHARS", block)
    element = random_element(2, 3, seed=8)
    path = tmp_path / "e.elem"
    (_repr_element_file if writer == "repr" else write_element)(path, element)
    end = {"crlf": b"\r\n", "cr": b"\r"}.get(writer)
    if end is not None:
        path.write_bytes(path.read_bytes().replace(b"\n", end))
    with mock.patch.object(fileio, "_element_lines", side_effect=AssertionError("line route")):
        back = read_element(path)
    assert back.coeffs.tobytes() == element.coeffs.tobytes()


@pytest.mark.parametrize("change", ["comment", "utf8-comment", "tab", "blank"])
def test_other_spellings_take_the_line_route_to_the_same_element(tmp_path, change):
    element = random_element(2, 3, seed=9)
    write_element(tmp_path / "e.elem", element)
    lines = (tmp_path / "e.elem").read_text().splitlines(keepends=True)
    if change == "comment":
        lines.insert(20, "# a comment\n")
    elif change == "utf8-comment":
        lines.insert(20, "# caf\u00e9\n")
    elif change == "tab":
        lines[20] = lines[20].replace(" ", "\t")
    else:
        lines.insert(20, "\n")
    data = "".join(lines).encode()
    with mock.patch.object(fileio, "_element_lines", wraps=fileio._element_lines) as spy:
        back = read_element("e.elem", data)
    assert spy.called
    assert back.coeffs.tobytes() == element.coeffs.tobytes()


def test_reading_a_large_written_file_peaks_low(tmp_path):
    import tracemalloc

    path = tmp_path / "big.elem"
    write_element(path, random_element(2, 8, seed=3))  # 65,536 body lines
    tracemalloc.start()
    try:
        read_element(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # reading it line by line peaked at 22.8 MiB, in bulk at 9.9 MiB
    assert peak < 20.1 * 2 ** 20


# --- the code and basis writers against the str writers they replaced ---

def _regauged(m):
    phases = np.exp(2j * np.pi * np.random.default_rng(m).random(m * m))
    phases[0] = 1.0
    return np.asarray(build_pauli_system(m).matrices) * phases[:, None, None]


_CODES = {
    **{name: lambda name=name: catalog.load(name) for name in catalog.names()},
    "phased": lambda: CodeSpec.from_stabilizers(3, 2, [[(1, 0), (2, 0)], [(0, 1), (0, 1)]],
                                                phases=[1, 4]),
    **{f"random{mnk}": lambda mnk=mnk: random_code(*mnk, seed=5)
       for mnk in [(2, 3, 2), (2, 10, 2), (3, 5, 3), (2, 12, 4)]},
    "eye": lambda: CodeSpec.from_basis(2, 2, np.eye(4)),
}
_BASES = {
    **{f"pauli{m}": lambda m=m: (m, build_pauli_system(m).matrices) for m in range(2, 13)},
    "regauged2": lambda: (2, _regauged(2)),
    "regauged3": lambda: (3, _regauged(3)),
    "edges": lambda: (4, _edges().reshape(16, 4, 4)),
}


# 24 numbers hold two rows of 513 (10 numbers each) and three qubit matrices
# (8 each): blocks of whole rows and matrices, and one of the rest
@pytest.mark.parametrize("block", [fileio._WRITE_BLOCK, 24, 1])
@pytest.mark.parametrize("case", list(_CODES))
def test_write_code_matches_reference_bytes(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", block)
    code = _CODES[case]()
    write_code(tmp_path / "new.code", code)
    write_code_reference(tmp_path / "old.code", code)
    new = (tmp_path / "new.code").read_bytes()
    assert new == (tmp_path / "old.code").read_bytes() and b"\r" not in new
    back = read_code(tmp_path / "new.code")
    if code.kind == "stabilizer":
        assert np.array_equal(back.body.rows, code.body.rows) and back.body.phases is None
    else:
        assert back.body.vectors.tobytes() == code.body.vectors.tobytes()


@pytest.mark.parametrize("block", [fileio._WRITE_BLOCK, 24, 1])
@pytest.mark.parametrize("case", list(_BASES))
def test_write_custom_basis_matches_reference_bytes(tmp_path, monkeypatch, case, block):
    monkeypatch.setattr(fileio, "_WRITE_BLOCK", block)
    m, matrices = _BASES[case]()
    write_custom_basis(tmp_path / "new.errorbasis", m, matrices)
    write_custom_basis_reference(tmp_path / "old.errorbasis", m, matrices)
    new = (tmp_path / "new.errorbasis").read_bytes()
    assert new == (tmp_path / "old.errorbasis").read_bytes() and b"\r" not in new
    if case != "edges":  # the reader refuses inf and nan
        back = read_custom_basis(tmp_path / "new.errorbasis")
        assert np.asarray(back.matrices).tobytes() == np.asarray(matrices).tobytes()


@pytest.mark.parametrize("k", [16, 64])
def test_writing_a_large_basis_code_peaks_low(tmp_path, k):
    import tracemalloc

    code = random_code(2, 12, k, seed=1)  # k rows of 4,096 entries
    tracemalloc.start()
    try:
        write_code(tmp_path / "big.code", code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # formatting the whole body at once peaked at 8.3 MiB for k = 16, and
    # grows with k; a block holds at most _WRITE_BLOCK numbers whatever k is
    assert peak < 16 * 2 ** 20
