"""Built-in code catalog shipped as data files in the code-file format."""

from __future__ import annotations

from importlib import resources

from .code_analysis import CodeSpec
from .fileio import read_code

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


def _traversable(name: str):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog code {name!r}; available: {names()}")
    return resources.files("qecalg").joinpath("codes", CATALOG[name])


def read_bytes(name: str) -> bytes:
    return _traversable(name).read_bytes()


def load(name: str) -> CodeSpec:
    with resources.as_file(_traversable(name)) as path:
        return read_code(path)


def resolve(name: str) -> tuple[str, CodeSpec, bytes]:
    """(display name, code, raw bytes for digesting) of a catalog code."""
    return f"catalog:{name}", load(name), read_bytes(name)
