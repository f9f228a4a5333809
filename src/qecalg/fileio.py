"""On-disk formats for elements, codes, and custom error bases.

All three formats are line oriented; blank lines and lines starting with
'#' are ignored.  Complex numbers are written as "re,im" and must be finite;
headers need m >= 2 and n >= 1.

    element v1          code v1                     errorbasis v1
    m 2                 m 2                         m 2
    n 2                 n 5                         ordering row-major
    <index> <re,im>     kind stabilizer             <m^2 matrices, each m
                        1,0 0,1 0,1 1,0 0,0          rows of m "re,im" pairs
                        ...                          and a blank line>

An element file has one line per nonzero coefficient.  A stabilizer code
file has one generator per line, n "a,b" exponent pairs, and a basis code
file K rows of m^n "re,im" entries.  Code files are phase-free: `read_code`
gives a code analysed with no phase check; `write_code` drops phases.  A
basis file must name `_ordering` of its m (row-major for even m, lee-paired
for odd m); any other ordering is rejected, not permuted.

Each format's header is one bytes %-format, which its writer fills and from
which its reader's `_header` takes the magic line and the keys.  Every
writer opens its file "wb" and writes its body with one %-format per block
(_WRITE_BLOCK element lines; code rows or basis matrices of at most
_WRITE_BLOCK numbers, and at least one), spelling an exponent pair
`_INT_PAIR` (%d,%d) and a complex number `_FLOAT_PAIR` (%.17g,%.17g): LF
files whose doubles read back exactly.

`read_element`, `read_code` and `read_custom_basis` take the file's bytes
when the caller has already read them (`read_bytes`); the path is then only
named in messages.  `read_input` reads either kind: the first significant
line, as the readers read it, picks the reader.  A reader checks that the
input is UTF-8 (a file that is not is a `FormatError` naming the line of the
first bad byte), makes its \\r\\n and \\r line ends \\n, as a text-mode open
would, and strips each line.

An element body is read in blocks of about a million bytes of whole lines,
so a large file needs little memory beyond its bytes and its coefficients.
A block has two routes.  When every line is `<integer> <number>,<number>`,
one space and one comma, as `write_element` (`_ELEMENT_LINE`) and `repr`
spell it, one `np.fromstring` converts the block and numpy checks it (an
index holds no ".", "e" or "E"; range, duplicates, finiteness), whatever
the line ends.  Every other block (a comment, a blank line, a tab, a token
such as "1-2") and every block that fails a check goes to one loop, line by
line: token count, index, range, duplicate, then the "re,im" value.  That
loop alone raises, so the first bad line and its message are those of a
line-by-line parse.  Generator rows, basis-code rows and custom-basis
matrices are read by one loop, `_rows`.
"""

from __future__ import annotations

import cmath
import warnings
from pathlib import Path

import numpy as np

from .code_analysis import CodeSpec
from .error_basis import PhaseSystem, validate_custom_basis
from .errors import FormatError
from .group_algebra import AlgebraElement, array_length

# bytes of the file per block of lines parsed at once, and lines per
# %-format in write_element (numbers per %-format in the other writers): they
# bound the memory a large file needs beyond its coefficients
_BLOCK_CHARS = 1 << 20
_WRITE_BLOCK = 1 << 16

# each format's header, and the spellings of an exponent pair and a number
_ELEMENT_HEADER = b"element v1\nm %d\nn %d\n"
_CODE_HEADER = b"code v1\nm %d\nn %d\nkind %s\n"
_BASIS_HEADER = b"errorbasis v1\nm %d\nordering %s\n"
_INT_PAIR = b"%d,%d"
_FLOAT_PAIR = b"%.17g,%.17g"
_ELEMENT_LINE = b"%d " + _FLOAT_PAIR + b"\n"


def read_bytes(path) -> bytes:
    """The content of the file at `path`; the one place an input file is read."""
    with open(path, "rb") as fh:
        return fh.read()


def _utf8(path: Path, data: bytes | None = None) -> bytes:
    """The bytes of `data` (else of the file), checked to be UTF-8, with
    \\r\\n and \\r line ends made \\n, as a text-mode open reads them."""
    if data is None:
        data = read_bytes(path)
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            prefix = data[: exc.start]
            line = 1 + prefix.count(b"\n") + prefix.count(b"\r") - prefix.count(b"\r\n")
            raise FormatError(f"not valid UTF-8 ({exc.reason})", path, line) from None
    # UTF-8 holds the bytes \r and \n only as those characters; `in` scans
    # far faster than a search for \r\n where there is none
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data


def _significant(first: int, text: bytes) -> tuple[list[int], list[str]]:
    """The line numbers and the stripped texts of the significant lines of
    `text`, whose first line is line `first`."""
    stripped = list(map(str.strip, text.decode("utf-8").split("\n")))
    numbers = [i for i, line in enumerate(stripped, start=first) if line and line[0] != "#"]
    return numbers, [stripped[i - first] for i in numbers]


def _head(text: bytes, count: int):
    """`_significant` of the lines of `text` up to its `count`-th significant
    line, and the offset and the number of the line after them."""
    numbers, lines, start, first = [], [], 0, 1
    while len(lines) < count and start < len(text):
        end = text.find(b"\n", start)
        end = len(text) if end < 0 else end
        more, found = _significant(first, text[start:end])
        numbers += more
        lines += found
        start, first = end + 1, first + 1
    return numbers, lines, start, first


def _blocks(text: bytes, start: int, first: int):
    """The blocks of about _BLOCK_CHARS bytes of whole lines of text[start:],
    whose first line is line `first`, each with the number of its first line."""
    while start < len(text):
        end = text.find(b"\n", start + _BLOCK_CHARS)
        end = len(text) if end < 0 else end
        yield first, text[start:end]
        first, start = first + text.count(b"\n", start, end) + 1, end + 1


def _parse_complex(token: str, path: Path, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 're,im', got {token!r}", path, lineno)
    try:
        value = complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise FormatError(f"bad number in {token!r}", path, lineno) from None
    if not cmath.isfinite(value):
        raise FormatError(f"non-finite number in {token!r}", path, lineno)
    return value


def _rows(numbers, lines, width: int, parse, count: str, path: Path) -> list[list]:
    """The rows of lines of `width` tokens each, every token read by
    `parse`; `count` spells the token-count message, {} the count found."""
    rows = []
    for lineno, line in zip(numbers, lines):
        tokens = line.split()
        if len(tokens) != width:
            raise FormatError(f"{count.format(len(tokens))}, expected {width}", path, lineno)
        rows.append([parse(token, path, lineno) for token in tokens])
    return rows


def _parse_int_pair(token: str, path: Path, lineno: int) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 'a,b', got {token!r}", path, lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"bad integer in {token!r}", path, lineno) from None


def _header(path: Path, text: bytes, spec: bytes):
    """The header of `text`: the magic line of the header `spec`, then one
    line "<key> <value>" per key of `spec`.  Returns the fields by key, m and
    n (where they are keys) as ints checked against m >= 2 and n >= 1 before
    anything is sized from them, and the offset and the number of the body's
    first line."""
    magic, *fields = spec.decode().splitlines()
    keys = [field.split()[0] for field in fields]
    numbers, lines, start, first = _head(text, 1 + len(keys))
    if not lines:
        raise FormatError("empty file", path)
    if lines[0] != magic:
        raise FormatError(f"expected header {magic!r}, got {lines[0]!r}", path, numbers[0])
    header = {}
    for i, key in enumerate(keys, start=1):
        if i >= len(lines):
            raise FormatError(f"missing header field {key!r}", path)
        parts = lines[i].split(maxsplit=1)
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>', got {lines[i]!r}", path, numbers[i])
        header[key] = parts[1]
    dims = [key for key in ("m", "n") if key in header]
    for key in dims:
        try:
            header[key] = int(header[key])
        except ValueError:
            raise FormatError(f"{key} must be an integer, got {header[key]!r}", path) from None
    if header["m"] < 2 or header.get("n", 1) < 1:
        need = " and ".join(("m >= 2", "n >= 1")[:len(dims)])
        got = ", ".join(f"{key}={header[key]}" for key in dims)
        raise FormatError(f"need {need}, got {got}", path)
    return header, start, first


def read_input(path, data: bytes | None = None) -> AlgebraElement | CodeSpec:
    """The element or the code in a file: an element when its first
    significant line starts with "element", else a code, whose reader then
    names the header it expected.  The readers get the checked text, in
    which their own `_utf8` pass finds nothing to change."""
    text = _utf8(Path(path), data)
    _, lines, _, _ = _head(text, 1)
    return (read_element if lines and lines[0].startswith("element") else read_code)(path, text)


# --- elements ---

def read_element(path, data: bytes | None = None) -> AlgebraElement:
    path = Path(path)
    text = _utf8(path, data)
    header, start, first = _header(path, text, _ELEMENT_HEADER)
    m, n = header["m"], header["n"]
    size = array_length(m, n, "an element", 2)
    coeffs = np.zeros(size, dtype=np.complex128)
    seen = np.zeros(size, dtype=bool)
    for first, block in _blocks(text, start, first):
        parsed = _written_lines(block, seen)
        if parsed is None:
            parsed = _element_lines(*_significant(first, block), seen, path)
        index, pairs = parsed
        seen[index] = True
        coeffs.view(np.float64).reshape(size, 2)[index] = pairs
    return AlgebraElement(m, n, coeffs)


# the bytes of a body spelled as the writers spell it, and the table that
# makes its commas and line ends the spaces np.fromstring splits at
_WRITTEN = b"0123456789+-.eE ,\n"
_TO_SPACES = bytes.maketrans(b",\n", b"  ")


def _written_lines(block: bytes, seen: np.ndarray):
    """The indices and (re, im) rows of a block of ASCII element body lines
    all spelled `<integer> <number>,<number>`, as write_element and repr write
    them, given the indices `seen` on earlier lines.  None if any line is
    spelled otherwise (blank, comment, other whitespace, a token float()
    refuses) or any check fails: `_element_lines` then reads the block."""
    text = block if block.endswith(b"\n") else block + b"\n"
    if text.translate(None, _WRITTEN):
        return None
    chars = np.frombuffer(text, dtype=np.uint8)
    ends = np.flatnonzero(chars == ord("\n"))
    spaces = np.flatnonzero(chars == ord(" "))
    commas = np.flatnonzero(chars == ord(","))
    if not len(ends) == len(spaces) == len(commas):
        return None
    # one space, then one comma, each with a token on both sides, per line
    starts = np.concatenate(([0], ends[:-1] + 1))
    if ((spaces <= starts) | (commas <= spaces + 1) | (ends <= commas + 1)).any():
        return None
    # an index token holds no ".", "e" or "E": float() and int() agree on it
    marks = (chars == ord(".")) | (chars == ord("e")) | (chars == ord("E"))
    if np.logical_or.reduceat(marks, np.column_stack((starts, spaces)).ravel())[::2].any():
        return None
    try:
        # raises on a token that is not one number, as float() does; older
        # numpy warns instead and stops at that token
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text.translate(_TO_SPACES), sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    if values.size != 3 * len(ends):
        return None
    values = values.reshape(len(ends), 3)
    if not ((values[:, 0] >= 0) & (values[:, 0] < len(seen))).all():
        return None
    index = values[:, 0].astype(np.int64)
    pairs = values[:, 1:]
    # an index on two lines of the block; a stable sort is one pass over the
    # ascending indices the writers write
    repeat = (np.diff(np.sort(index, kind="stable")) == 0).any()
    if repeat or seen[index].any() or not np.isfinite(pairs).all():
        return None
    return index, pairs


def _element_lines(numbers, lines, seen: np.ndarray, path: Path):
    """The indices and (re, im) rows of a block of element body lines, given
    the indices `seen` on earlier lines, which it extends; a bad line raises."""
    index, values = [], []
    for lineno, line in zip(numbers, lines):
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<index> <re,im>', got {line!r}", path, lineno)
        try:
            idx = int(parts[0])
        except ValueError:
            raise FormatError(f"bad index {parts[0]!r}", path, lineno) from None
        if not 0 <= idx < len(seen):
            raise FormatError(f"index {idx} out of range [0, {len(seen)})", path, lineno)
        if seen[idx]:
            raise FormatError(f"duplicate index {idx}", path, lineno)
        seen[idx] = True
        index.append(idx)
        values.append(_parse_complex(parts[1], path, lineno))
    return index, np.array(values, dtype=np.complex128).view(np.float64).reshape(-1, 2)


def write_element(path, element: AlgebraElement) -> None:
    index = np.flatnonzero(element.coeffs)
    with open(path, "wb") as fh:
        fh.write(_ELEMENT_HEADER % (element.m, element.n))
        for start in range(0, index.size, _WRITE_BLOCK):
            block = index[start : start + _WRITE_BLOCK]
            pairs = element.coeffs[block].view(np.float64)
            fields = [None] * (3 * block.size)
            fields[0::3] = block.tolist()
            fields[1::3] = pairs[0::2].tolist()
            fields[2::3] = pairs[1::2].tolist()
            fh.write(_ELEMENT_LINE * block.size % tuple(fields))


# --- codes ---

def read_code(path, data: bytes | None = None) -> CodeSpec:
    path = Path(path)
    text = _utf8(path, data)
    header, start, first = _header(path, text, _CODE_HEADER)
    m, n, kind = header["m"], header["n"], header["kind"]
    numbers, lines = _significant(first, text[start:])
    if kind == "stabilizer":
        rows = _rows(numbers, lines, n, _parse_int_pair, "generator has {} coordinates", path)
        if not rows:
            raise FormatError("stabilizer code needs at least one generator", path)
        return CodeSpec.from_stabilizers(m, n, rows)
    if kind == "basis":
        width = array_length(m, n, "a basis row")
        rows = _rows(numbers, lines, width, _parse_complex, "basis row has {} entries", path)
        if not rows:
            raise FormatError("basis code needs at least one row", path)
        return CodeSpec.from_basis(m, n, rows)
    raise FormatError(f"unknown kind {kind!r} (want stabilizer|basis)", path)


def _write_rows(fh, rows: np.ndarray, unit: bytes) -> None:
    """Write each row of the 2-d `rows` spelled by the %-format `unit`, with
    one %-format per block of at most _WRITE_BLOCK numbers, or of one row."""
    step = max(1, _WRITE_BLOCK // rows.shape[1])
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        fh.write(unit * len(block) % tuple(block.ravel().tolist()))


def write_code(path, code: CodeSpec) -> None:
    if code.kind == "stabilizer":
        rows, pair = code.body.rows, _INT_PAIR
    else:
        rows, pair = code.body.vectors.view(np.float64), _FLOAT_PAIR
    with open(path, "wb") as fh:
        fh.write(_CODE_HEADER % (code.m, code.n, code.kind.encode()))
        _write_rows(fh, rows, b" ".join([pair] * (rows.shape[1] // 2)) + b"\n")


# --- custom error bases ---

def _ordering(m: int) -> str:
    """The canonical error-basis ordering for m, the one a basis file names."""
    return "row-major" if m % 2 == 0 else "lee-paired"


def read_custom_basis(path, data: bytes | None = None) -> PhaseSystem:
    path = Path(path)
    text = _utf8(path, data)
    header, start, first = _header(path, text, _BASIS_HEADER)
    m = header["m"]
    if header["ordering"] != _ordering(m):
        raise FormatError(f"ordering {header['ordering']!r} is not the canonical convention "
                          f"{_ordering(m)!r} for m={m}", path)
    numbers, lines = _significant(first, text[start:])
    rows = _rows(numbers, lines, m, _parse_complex, "matrix row has {} entries", path)
    if len(rows) != m ** 3:
        raise FormatError(f"expected m^2 = {m * m} matrices ({m ** 3} rows), "
                          f"got {len(rows)} rows", path)
    return validate_custom_basis(np.array(rows).reshape(m * m, m, m))


def write_custom_basis(path, m: int, matrices: np.ndarray) -> None:
    matrices = np.ascontiguousarray(matrices, dtype=np.complex128)
    count, size, width = matrices.shape
    line = b" ".join([_FLOAT_PAIR] * width) + b"\n"
    with open(path, "wb") as fh:
        fh.write(_BASIS_HEADER % (m, _ordering(m).encode()))
        _write_rows(fh, matrices.view(np.float64).reshape(count, -1), line * size + b"\n")
