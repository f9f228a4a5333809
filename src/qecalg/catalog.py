"""Built-in code catalog shipped as data files in the code-file format."""

from __future__ import annotations

from importlib import resources

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


def resolve(name: str) -> tuple[str, CodeSpec, bytes]:
    """(display name, code, raw bytes for digesting) of a catalog code,
    from one read of its resource."""
    if name not in CATALOG:
        raise KeyError(f"unknown catalog code {name!r}; available: {names()}")
    with resources.as_file(resources.files("qecalg").joinpath("codes", CATALOG[name])) as path:
        raw = read_bytes(path)
        return f"catalog:{name}", read_code(path, raw), raw


def load(name: str) -> CodeSpec:
    return resolve(name)[1]
