"""On-disk formats for elements, codes, and custom error bases.

All three formats are line oriented; blank lines and lines starting with
'#' are ignored.  Complex numbers are written as "re,im".

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

from pathlib import Path

import numpy as np

from .code_analysis import CodeSpec
from .error_basis import PhaseSystem, validate_custom_basis
from .errors import FormatError
from .group_algebra import AlgebraElement


def _significant_lines(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line


def _parse_complex(token: str, path: Path, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 're,im', got {token!r}", path, lineno)
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        raise FormatError(f"bad number in {token!r}", path, lineno) from None


def _parse_int_pair(token: str, path: Path, lineno: int) -> tuple[int, int]:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 'a,b', got {token!r}", path, lineno)
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"bad integer in {token!r}", path, lineno) from None


def _take_header(lines, path: Path, magic: str, keys: list[str]) -> dict:
    try:
        lineno, line = next(lines)
    except StopIteration:
        raise FormatError("empty file", path) from None
    if line != magic:
        raise FormatError(f"expected header {magic!r}, got {line!r}", path, lineno)
    out = {}
    for key in keys:
        try:
            lineno, line = next(lines)
        except StopIteration:
            raise FormatError(f"missing header field {key!r}", path) from None
        parts = line.split(maxsplit=1)
        if len(parts) != 2 or parts[0] != key:
            raise FormatError(f"expected '{key} <value>', got {line!r}", path, lineno)
        out[key] = parts[1]
    return out


def _header_int(header: dict, key: str, path: Path) -> int:
    try:
        return int(header[key])
    except ValueError:
        raise FormatError(f"{key} must be an integer, got {header[key]!r}", path) from None


# --- elements ---

def read_element(path) -> AlgebraElement:
    path = Path(path)
    lines = _significant_lines(path)
    header = _take_header(lines, path, "element v1", ["m", "n"])
    m = _header_int(header, "m", path)
    n = _header_int(header, "n", path)
    if m < 2 or n < 1:
        raise FormatError(f"need m >= 2 and n >= 1, got m={m}, n={n}", path)
    size = (m * m) ** n
    coeffs = np.zeros(size, dtype=np.complex128)
    seen = set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != 2:
            raise FormatError(f"expected '<index> <re,im>', got {line!r}", path, lineno)
        try:
            idx = int(parts[0])
        except ValueError:
            raise FormatError(f"bad index {parts[0]!r}", path, lineno) from None
        if not 0 <= idx < size:
            raise FormatError(f"index {idx} out of range [0, {size})", path, lineno)
        if idx in seen:
            raise FormatError(f"duplicate index {idx}", path, lineno)
        seen.add(idx)
        coeffs[idx] = _parse_complex(parts[1], path, lineno)
    return AlgebraElement(m, n, coeffs)


def write_element(path, element: AlgebraElement) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("element v1\n")
        fh.write(f"m {element.m}\n")
        fh.write(f"n {element.n}\n")
        for idx in np.nonzero(element.coeffs)[0]:
            c = element.coeffs[idx]
            fh.write(f"{idx} {c.real:.17g},{c.imag:.17g}\n")


# --- codes ---

def read_code(path) -> CodeSpec:
    path = Path(path)
    lines = _significant_lines(path)
    header = _take_header(lines, path, "code v1", ["m", "n", "kind"])
    m = _header_int(header, "m", path)
    n = _header_int(header, "n", path)
    kind = header["kind"]
    if kind == "stabilizer":
        generators = []
        for lineno, line in lines:
            tokens = line.split()
            if len(tokens) != n:
                raise FormatError(
                    f"generator has {len(tokens)} coordinates, expected {n}", path, lineno
                )
            generators.append(tuple(_parse_int_pair(t, path, lineno) for t in tokens))
        if not generators:
            raise FormatError("stabilizer code needs at least one generator", path)
        return CodeSpec.from_stabilizers(m, n, generators)
    if kind == "basis":
        dim = m ** n
        rows = []
        for lineno, line in lines:
            tokens = line.split()
            if len(tokens) != dim:
                raise FormatError(
                    f"basis row has {len(tokens)} entries, expected {dim}", path, lineno
                )
            rows.append([_parse_complex(t, path, lineno) for t in tokens])
        if not rows:
            raise FormatError("basis code needs at least one row", path)
        return CodeSpec.from_basis(m, n, np.array(rows, dtype=np.complex128))
    raise FormatError(f"unknown kind {kind!r} (want stabilizer|basis)", path)


def write_code(path, code: CodeSpec) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("code v1\n")
        fh.write(f"m {code.m}\n")
        fh.write(f"n {code.n}\n")
        fh.write(f"kind {code.kind}\n")
        if code.kind == "stabilizer":
            for gen in code.body.labels:
                fh.write(" ".join(f"{g.a},{g.b}" for g in gen) + "\n")
        else:
            for row in code.body.vectors:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")


# --- custom error bases ---

def read_custom_basis(path) -> PhaseSystem:
    path = Path(path)
    lines = _significant_lines(path)
    header = _take_header(lines, path, "errorbasis v1", ["m", "ordering"])
    m = _header_int(header, "m", path)
    expected_ordering = "row-major" if m % 2 == 0 else "lee-paired"
    if header["ordering"] != expected_ordering:
        raise FormatError(
            f"ordering {header['ordering']!r} is not the canonical convention "
            f"{expected_ordering!r} for m={m}",
            path,
        )
    rows = []
    for lineno, line in lines:
        tokens = line.split()
        if len(tokens) != m:
            raise FormatError(f"matrix row has {len(tokens)} entries, expected {m}", path, lineno)
        rows.append([_parse_complex(t, path, lineno) for t in tokens])
    if len(rows) != m ** 3:
        raise FormatError(
            f"expected m^2 = {m * m} matrices ({m ** 3} rows), got {len(rows)} rows", path
        )
    mats = np.array(rows, dtype=np.complex128).reshape(m * m, m, m)
    return validate_custom_basis(mats)


def write_custom_basis(path, m: int, matrices: np.ndarray) -> None:
    path = Path(path)
    ordering = "row-major" if m % 2 == 0 else "lee-paired"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("errorbasis v1\n")
        fh.write(f"m {m}\n")
        fh.write(f"ordering {ordering}\n")
        for mat in matrices:
            for row in mat:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")
            fh.write("\n")
