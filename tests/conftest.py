import os
from pathlib import Path

import numpy as np
import pytest

from qecalg import build_pauli_system
from qecalg import catalog


_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session", autouse=True)
def root_stays_clean():
    """Fails the run when its tests leave a new file in the repository root
    (dot-files, such as the pytest and hypothesis caches, aside)."""
    def listing():
        return {name for name in os.listdir(_ROOT) if not name.startswith(".")}

    before = listing()
    yield
    left = listing() - before
    assert not left, f"the tests left {sorted(left)} in {_ROOT}"


@pytest.fixture(scope="session")
def sys2():
    return build_pauli_system(2)


@pytest.fixture(scope="session")
def sys3():
    return build_pauli_system(3)


@pytest.fixture(scope="session")
def five_qubit_code():
    return catalog.load("513")


@pytest.fixture(scope="session")
def four_two_two_code():
    return catalog.load("422")


@pytest.fixture(scope="session")
def shor_code():
    return catalog.load("913shor")


@pytest.fixture(scope="session")
def qutrit_rep_code():
    return catalog.load("311qutrit")


# --- tiny independent matrix oracles, rebuilt from scratch on purpose ---

def explicit_xz(m):
    """Shift and clock matrices, written out directly."""
    x = np.zeros((m, m), dtype=complex)
    for j in range(m):
        x[(j + 1) % m, j] = 1.0
    z = np.diag([np.exp(2j * np.pi * j / m) for j in range(m)])
    return x, z


def explicit_operator(m, a, b):
    x, z = explicit_xz(m)
    return np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)


def character_by_trace(m, h, g):
    """tr(E_h^dag E_g^dag E_h E_g) / m with explicit matrices."""
    eh = explicit_operator(m, *h)
    eg = explicit_operator(m, *g)
    return np.trace(eh.conj().T @ eg.conj().T @ eh @ eg) / m


def omega_by_matrices(m, g, h, order_index):
    """Phase in E_g E_h = w E_(g+h), read off explicit matrices."""
    eg = explicit_operator(m, *g)
    eh = explicit_operator(m, *h)
    k = ((g[0] + h[0]) % m, (g[1] + h[1]) % m)
    ek = explicit_operator(m, *k)
    return np.trace(ek.conj().T @ (eg @ eh)) / m
