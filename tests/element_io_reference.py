"""The line-by-line element reader and the str writers that `qecalg.fileio` replaced.

Kept only as the reference the bulk parser and the bytes writers are tested against,
the way `qecalg.oracle` certifies the fast transform: each significant line
is read and checked in turn (token count, index, range, duplicate, then the
"re,im" value), so the first bad line raises first.  The file is decoded
lazily through a text-mode wrapper, so invalid UTF-8 raises
UnicodeDecodeError here, not FormatError.
"""

from __future__ import annotations

import io
import math
from pathlib import Path

import numpy as np

from qecalg.code_analysis import CodeSpec
from qecalg.errors import FormatError
from qecalg.group_algebra import AlgebraElement


def _significant_lines(data: bytes):
    for lineno, raw in enumerate(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _parse_complex(token: str, path: Path, lineno: int) -> complex:
    parts = token.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected 're,im', got {token!r}", path, lineno)
    try:
        re, im = float(parts[0]), float(parts[1])
    except ValueError:
        raise FormatError(f"bad number in {token!r}", path, lineno) from None
    if not (math.isfinite(re) and math.isfinite(im)):
        raise FormatError(f"non-finite number in {token!r}", path, lineno)
    return complex(re, im)


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


def _header_dims(header: dict, path: Path) -> tuple[int, int]:
    values = []
    for key in ("m", "n"):
        try:
            values.append(int(header[key]))
        except ValueError:
            raise FormatError(f"{key} must be an integer, got {header[key]!r}", path) from None
    m, n = values
    if m < 2 or n < 1:
        raise FormatError(f"need m >= 2 and n >= 1, got m={m}, n={n}", path)
    return m, n


def read_element_reference(path, data: bytes) -> AlgebraElement:
    path = Path(path)
    lines = _significant_lines(data)
    header = _take_header(lines, path, "element v1", ["m", "n"])
    m, n = _header_dims(header, path)
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


def write_element_reference(path, element: AlgebraElement) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("element v1\n")
        fh.write(f"m {element.m}\n")
        fh.write(f"n {element.n}\n")
        for idx in np.nonzero(element.coeffs)[0]:
            c = element.coeffs[idx]
            fh.write(f"{idx} {c.real:.17g},{c.imag:.17g}\n")


def write_code_reference(path, code: CodeSpec) -> None:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"code v1\nm {code.m}\nn {code.n}\nkind {code.kind}\n")
        if code.kind == "stabilizer":
            for row in code.body.rows.tolist():
                fh.write(" ".join(f"{a},{b}" for a, b in zip(row[0::2], row[1::2])) + "\n")
        else:
            for row in code.body.vectors:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")


def write_custom_basis_reference(path, m: int, matrices: np.ndarray) -> None:
    path = Path(path)
    ordering = "row-major" if m % 2 == 0 else "lee-paired"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"errorbasis v1\nm {m}\nordering {ordering}\n")
        for mat in matrices:
            for row in mat:
                fh.write(" ".join(f"{c.real:.17g},{c.imag:.17g}" for c in row) + "\n")
            fh.write("\n")
