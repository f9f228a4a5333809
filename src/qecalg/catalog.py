"""Built-in code catalog shipped as data files in the code-file format."""

from __future__ import annotations

from pathlib import Path

from .code_analysis import CodeSpec
from .fileio import read_bytes, read_code

CATALOG = {
    "513": "five_qubit_513.code",
    "422": "four_two_two_422.code",
    "913shor": "shor_913.code",
    "311qutrit": "qutrit_repetition_311.code",
    "steane713": "steane_713.code",
    "rm15": "reed_muller_15.code",
}


def names() -> list[str]:
    return sorted(CATALOG)


def read(name: str) -> bytes:
    """The bytes of a catalog code's file."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog code {name!r}; available: {names()}")
    return read_bytes(Path(__file__).parent / "codes" / CATALOG[name])


def load(name: str) -> CodeSpec:
    return read_code(f"catalog:{name}", read(name))
