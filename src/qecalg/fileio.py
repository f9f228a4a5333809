"""On-disk formats for elements, codes, and custom error bases.

All three formats are line oriented; blank lines and lines starting with
'#' are ignored.  Complex numbers are written as "re,im" and must be finite;
headers need m >= 2 and n >= 1.

Element file ("element v1"):
    element v1
    m 2
    n 2
    <flat-index> <re,im>        # one line per nonzero coefficient

Code file ("code v1"):
    code v1
    m 2
    n 5
    kind stabilizer             # or: kind basis
    1,0 0,1 0,1 1,0 0,0         # stabilizer: one generator per line,
    ...                         #   n "a,b" exponent pairs
                                # basis: K rows of m^n "re,im" entries

`read_element`, `read_code` and `read_custom_basis` take the file's bytes
when the caller has already read them (`read_bytes`); the path is then only
named in messages.
`read_input` reads either kind: the first significant line, as the readers
read it, picks the reader.

A reader checks that the input is UTF-8 (a file that is not is a
`FormatError` naming the line of the first bad byte), makes its \\r\\n and \\r
line ends \\n, as a text-mode open would, and strips each line.

An element body is read from the file's bytes in blocks of about a million
bytes of whole lines, so a large file needs little memory beyond its bytes
and its coefficients; the header comes from the first significant lines
alone.  A block has two routes.  When every line is `<integer>
<number>,<number>`, one space and one comma, the way `write_element`
(%d %.17g,%.17g) and `repr` spell it, one `np.fromstring` converts the block
and numpy checks it (an index holds no ".", "e" or "E"; range, duplicates,
finiteness).  This holds in any UTF-8 file with any line ends.  Every other
block (a comment, a blank line, a tab, a token such as "1-2") and every
block that fails a check goes to one loop, line by line: token count, index,
range, duplicate, then the "re,im" value.  That loop alone raises, so the
first bad line and its message are those of a line-by-line parse.  A
65,536-line m=2 n=8 file (median of 7 fresh processes, 2 vCPUs) reads in
about 130 ms in the writers' spelling with \\n or \\r\\n line ends, and in
254 ms with a tab on every line, which the loop reads.  Basis-code rows and
custom-basis matrices are read by the same kind of loop.  `write_element`
formats the nonzero coefficients with one %-format per block of lines.

Code files are phase-free: a generator is its exponent pairs alone, so
`read_code` gives a code (checked as a `CodeSpec` is, when made) whose index
group is analysed with no phase check, and `write_code` drops phases.

Custom error basis file ("errorbasis v1"):
    errorbasis v1
    m 2
    ordering row-major          # "lee-paired" for odd m
    <m^2 matrices, each as m consecutive rows of m "re,im" pairs>

The ordering token must name the canonical convention for the declared m
(row-major for even m, lee-paired for odd m); files in any other ordering
are rejected rather than silently permuted.
"""

from __future__ import annotations

import cmath
import warnings
from pathlib import Path

import numpy as np

from .code_analysis import CodeSpec, StabilizerGenerators
from .error_basis import PhaseSystem, validate_custom_basis
from .errors import FormatError
from .group_algebra import AlgebraElement, array_length

# bytes of the file per block of lines parsed at once, and lines per
# %-format in write_element: they bound the memory a large file needs beyond
# its coefficients
_BLOCK_CHARS = 1 << 20
_WRITE_BLOCK = 1 << 16


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


def _complex_rows(numbers, lines, width: int, what: str, path: Path) -> np.ndarray:
    """The (len(lines), width) complex matrix of lines of `width` "re,im"
    tokens each; `what` names a line in the token-count message."""
    rows = []
    for lineno, line in zip(numbers, lines):
        tokens = line.split()
        if len(tokens) != width:
            raise FormatError(f"{what} has {len(tokens)} entries, expected {width}", path, lineno)
        rows.append([_parse_complex(token, path, lineno) for token in tokens])
    return np.array(rows, dtype=np.complex128).reshape(len(rows), width)


def _parse_int_pair(token: str, path: Path, lineno: int) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 'a,b', got {token!r}", path, lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"bad integer in {token!r}", path, lineno) from None


def _take_header(numbers, lines, path: Path, magic: str, keys: list[str]) -> dict:
    """The header fields `keys` that follow the line `magic`; the body is
    lines[1 + len(keys):]."""
    if not lines:
        raise FormatError("empty file", path)
    if lines[0] != magic:
        raise FormatError(f"expected header {magic!r}, got {lines[0]!r}", path, numbers[0])
    out = {}
    for i, key in enumerate(keys, start=1):
        if i >= len(lines):
            raise FormatError(f"missing header field {key!r}", path)
        parts = lines[i].split(maxsplit=1)
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>', got {lines[i]!r}", path, numbers[i])
        out[key] = parts[1]
    return out


def _header_int(header: dict, key: str, path: Path) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise FormatError(f"{key} must be an integer, got {header[key]!r}", path) from None


_LEAST = {"m": 2, "n": 1}


def _header_dims(header: dict, path: Path, keys: tuple[str, ...]) -> list[int]:
    """The header fields `keys` ("m", and "n" where present), checked against
    m >= 2 and n >= 1 before anything is sized from them."""
    values = [_header_int(header, key, path) for key in keys]
    if any(v < _LEAST[key] for key, v in zip(keys, values)):
        need = " and ".join(f"{key} >= {_LEAST[key]}" for key in keys)
        got = ", ".join(f"{key}={v}" for key, v in zip(keys, values))
        raise FormatError(f"need {need}, got {got}", path)
    return values


def _repeats(index: np.ndarray) -> np.ndarray:
    """Flags of the entries of `index` equal to an earlier entry."""
    order = np.argsort(index, kind="stable")
    flags = np.zeros(len(index), dtype=bool)
    flags[order[1:][index[order[1:]] == index[order[:-1]]]] = True
    return flags


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
    numbers, lines, start, first = _head(text, 3)
    header = _take_header(numbers, lines, path, "element v1", ["m", "n"])
    m, n = _header_dims(header, path, ("m", "n"))
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
    if (_repeats(index) | seen[index]).any() or not np.isfinite(pairs).all():
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
    path = Path(path)
    index = np.flatnonzero(element.coeffs)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"element v1\nm {element.m}\nn {element.n}\n")
        for start in range(0, index.size, _WRITE_BLOCK):
            block = index[start : start + _WRITE_BLOCK]
            pairs = element.coeffs[block].view(np.float64)
            fields = [None] * (3 * block.size)
            fields[0::3] = block.tolist()
            fields[1::3] = pairs[0::2].tolist()
            fields[2::3] = pairs[1::2].tolist()
            fh.write("%d %.17g,%.17g\n" * block.size % tuple(fields))


# --- codes ---

def read_code(path, data: bytes | None = None) -> CodeSpec:
    path = Path(path)
    numbers, lines = _significant(1, _utf8(path, data))
    header = _take_header(numbers, lines, path, "code v1", ["m", "n", "kind"])
    m, n = _header_dims(header, path, ("m", "n"))
    numbers, lines = numbers[4:], lines[4:]
    kind = header["kind"]
    if kind == "stabilizer":
        rows = []
        for lineno, line in zip(numbers, lines):
            tokens = line.split()
            if len(tokens) != n:
                raise FormatError(
                    f"generator has {len(tokens)} coordinates, expected {n}", path, lineno
                )
            rows.append([x for t in tokens for x in _parse_int_pair(t, path, lineno)])
        if not rows:
            raise FormatError("stabilizer code needs at least one generator", path)
        return CodeSpec(m, n, StabilizerGenerators(rows, None))
    if kind == "basis":
        rows = _complex_rows(numbers, lines, array_length(m, n, "a basis row"), "basis row", path)
        if len(rows) == 0:
            raise FormatError("basis code needs at least one row", path)
        return CodeSpec.from_basis(m, n, rows)
    raise FormatError(f"unknown kind {kind!r} (want stabilizer|basis)", path)


def write_code(path, code: CodeSpec) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"code v1\nm {code.m}\nn {code.n}\nkind {code.kind}\n")
        if code.kind == "stabilizer":
            for row in code.body.rows.tolist():
                fh.write(" ".join(f"{a},{b}" for a, b in zip(row[0::2], row[1::2])) + "\n")
        else:
            for row in code.body.vectors:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")


# --- custom error bases ---

def read_custom_basis(path, data: bytes | None = None) -> PhaseSystem:
    path = Path(path)
    numbers, lines = _significant(1, _utf8(path, data))
    header = _take_header(numbers, lines, path, "errorbasis v1", ["m", "ordering"])
    (m,) = _header_dims(header, path, ("m",))
    expected_ordering = "row-major" if m % 2 == 0 else "lee-paired"
    if header["ordering"] != expected_ordering:
        raise FormatError(
            f"ordering {header['ordering']!r} is not the canonical convention "
            f"{expected_ordering!r} for m={m}",
            path,
        )
    rows = _complex_rows(numbers[3:], lines[3:], m, "matrix row", path)
    if len(rows) != m ** 3:
        raise FormatError(
            f"expected m^2 = {m * m} matrices ({m ** 3} rows), got {len(rows)} rows", path
        )
    return validate_custom_basis(rows.reshape(m * m, m, m))


def write_custom_basis(path, m: int, matrices: np.ndarray) -> None:
    path = Path(path)
    ordering = "row-major" if m % 2 == 0 else "lee-paired"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"errorbasis v1\nm {m}\nordering {ordering}\n")
        for mat in matrices:
            for row in mat:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")
            fh.write("\n")
