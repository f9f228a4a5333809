"""Seeded inputs for the benchmark, made by the benchmark's own code.

Nothing here calls qecalg (not random_code, not random_element), so a change
to the program cannot change a workload.  Sizes are fixed per job; the seed
only picks contents, so every seed costs the same amount of work.
"""

from __future__ import annotations

import numpy as np

from reference import canonical_order, stabilizer_group, symplectic

# Standard codes with their literature values (K, d, pure).  The catalog
# generators are written out here so that a change to the shipped catalog
# files shows up as a mismatch instead of moving the reference.
CATALOG_CODES = {
    "513": (2, 5, ["XZZXI", "IXZZX", "XIXZZ", "ZXIXZ"], (2, 3, True)),
    "422": (2, 4, ["XXXX", "ZZZZ"], (4, 2, True)),
    "913shor": (2, 9, ["ZZIIIIIII", "IZZIIIIII", "IIIZZIIII", "IIIIZZIII",
                       "IIIIIIZZI", "IIIIIIIZZ", "XXXXXXIII", "IIIXXXXXX"], (2, 3, False)),
    "311qutrit": (3, 3, [((0, 1), (0, 2), (0, 0)), ((0, 0), (0, 1), (0, 2))], (3, 1, True)),
}

STANDARD_CODES = {
    # [[6,4,2]] even-weight code: generators XXXXXX, ZZZZZZ.
    "six642": (2, 6, ["XXXXXX", "ZZZZZZ"], (16, 2, True)),
    # Steane [[7,1,3]]: the Hamming-code checks, once as X and once as Z.
    "steane713": (2, 7, ["IIIXXXX", "IXXIIXX", "XIXIXIX",
                         "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ"], (2, 3, True)),
    # Distance-3 rotated surface code [[9,1,3]] on a 3x3 grid (row-major
    # qubits): four weight-4 plaquettes and four weight-2 boundary checks.
    "surface913": (2, 9, ["XXIXXIIII", "IIIIXXIXX", "IIXIIXIII", "IIIXIIXII",
                          "IZZIZZIII", "IIIZZIZZI", "ZZIIIIIII", "IIIIIIIZZ"], (2, 3, False)),
    # Five-qutrit cyclic code [[5,1,3]]_3: X Z Z^-1 X^-1 I and its shifts.
    "five513qutrit": (3, 5, [[(1, 0), (0, 1), (0, 2), (2, 0), (0, 0)][-s:]
                             + [(1, 0), (0, 1), (0, 2), (2, 0), (0, 0)][:-s]
                             for s in range(4)], (3, 3, True)),
}

_PAULI = {"I": (0, 0), "X": (1, 0), "Z": (0, 1), "Y": (1, 1)}


def as_label(gen):
    return tuple(_PAULI[ch] for ch in gen) if isinstance(gen, str) else tuple(map(tuple, gen))


def standard_generators(table: dict, name: str):
    m, n, gens, literature = table[name]
    return m, n, [as_label(g) for g in gens], literature


# --- random stabilizer codes ---

def _nullspace_mod_p(rows: list[list[int]], width: int, p: int) -> list[list[int]]:
    """Basis of {x : rows . x = 0 mod p} for prime p."""
    mat = [r[:] for r in rows]
    pivots = []
    rank = 0
    for col in range(width):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][col] % p), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col] % p:
                f = mat[i][col]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[rank])]
        pivots.append(col)
        rank += 1
    free = [c for c in range(width) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * width
        x[fc] = 1
        for r, pc in enumerate(pivots):
            x[pc] = (-mat[r][fc]) % p
        basis.append(x)
    return basis


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    width = len(rows[0])
    return width - len(_nullspace_mod_p(rows, width, p)) if rows else 0


def random_stabilizer(rng: np.random.Generator, m: int, n: int, r: int):
    """r commuting generators on n qudits whose group has exactly m^r
    elements.  Prime m draws from the symplectic complement over GF(m);
    other m draw at random and keep candidates that commute and grow the
    group m-fold."""
    if not 1 <= r < n:
        raise ValueError("need 1 <= r < n")
    gens: list[tuple] = []
    if m in (2, 3, 5, 7):
        vecs: list[list[int]] = []
        while len(gens) < r:
            rows = [[(-b) % m for b in v[n:]] + v[:n] for v in vecs]
            basis = _nullspace_mod_p(rows, 2 * n, m) if rows else np.eye(2 * n, dtype=int).tolist()
            coef = rng.integers(0, m, size=len(basis))
            cand = [int(x) % m for x in (coef @ np.array(basis))]
            if any(cand) and _rank_mod_p(vecs + [cand], m) == len(vecs) + 1:
                vecs.append(cand)
                gens.append(tuple(zip(cand[:n], cand[n:])))
        return gens
    order = 1
    while len(gens) < r:
        flat = rng.integers(0, m, size=2 * n)
        cand = tuple((int(a), int(b)) for a, b in zip(flat[:n], flat[n:]))
        if any(symplectic(cand, g, m) for g in gens):
            continue
        size = len(stabilizer_group(m, gens + [cand]))
        if size == order * m:
            gens.append(cand)
            order = size
    return gens


# --- elements, basis codes, error bases ---

def dense_coefficients(rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """Every coefficient nonzero; real parts in [0.5, 1.5) keep the mass
    far from zero."""
    size = (m * m) ** n
    return (rng.random(size) + 0.5) + 1j * (rng.random(size) - 0.5)


def orthonormal_rows(rng: np.random.Generator, m: int, n: int, k: int) -> np.ndarray:
    dim = m ** n
    mat = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    q, _ = np.linalg.qr(mat)
    return np.ascontiguousarray(q.T.conj())


def regauged_pauli_matrices(rng: np.random.Generator, m: int) -> np.ndarray:
    """phi_g X^a Z^b with unit phases phi_g (phi_0 = 1), in canonical order;
    X|j> = |j+1>, Z|j> = w^j |j>."""
    w = np.exp(2j * np.pi / m)
    mats = np.zeros((m * m, m, m), dtype=np.complex128)
    for i, (a, b) in enumerate(canonical_order(m)):
        for j in range(m):
            mats[i, (j + a) % m, j] = w ** (b * j)
    phases = np.exp(2j * np.pi * rng.random(m * m))
    phases[0] = 1.0
    return mats * phases[:, None, None]
