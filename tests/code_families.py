"""Stabilizer code families whose K and d are known by construction.

Each constructor returns (code, K, d), K the dimension m^n / |S| and d the
known distance; for a concatenated code d is only the lower bound d_1 d_2
(Gottesman, PhD thesis, Caltech 1997).  The families are the rotated
surface code and the toric code (Kitaev, Ann. Phys. 303, 2 (2003);
Bombin and Martin-Delgado, PRA 76, 012305 (2007)), the surface code's qudit
version for prime m, the triangular 2D color codes on the 6.6.6 and 4.8.8
lattices (Bombin and Martin-Delgado, PRL 97, 180501 (2006)), and the
five-qubit code concatenated with itself.
"""

from qecalg import CodeSpec, pauli_label


def _code(m: int, n: int, checks) -> CodeSpec:
    """The code of `checks`, each a dict {qudit: (a, b)}; other qudits get (0, 0)."""
    return CodeSpec.from_stabilizers(m, n, [[c.get(q, (0, 0)) for q in range(n)] for c in checks])


def rotated_surface(d: int, m: int = 2):
    """[[d^2, 1, d]]_m on a d x d grid, qudit (i, j) numbered i d + j.

    Face (i, j), -1 <= i, j < d, covers the grid qudits among rows i, i + 1
    and columns j, j + 1; it is an X check when i + j is even, else a Z
    check.  Every inner face is a check, and of the two-qudit faces on the
    boundary the X ones on the top and bottom rows and the Z ones on the left
    and right columns: d^2 - 1 independent checks.  An X check gives qudit
    (i, j) the exponent (-1)^(i + j) and a Z check gives +1.  An X and a Z
    face meet on two adjacent qudits, of opposite parity, so their
    symplectic product is 1 - 1 = 0 for every m; at m = 2 this is the qubit
    code.
    """
    checks = []
    for i in range(-1, d):
        for j in range(-1, d):
            x = (i + j) % 2 == 0
            inner_i, inner_j = 0 <= i < d - 1, 0 <= j < d - 1
            if not (inner_i and inner_j or inner_j and x or inner_i and not x):
                continue
            cover = [(r, c) for r in (i, i + 1) for c in (j, j + 1) if 0 <= r < d and 0 <= c < d]
            checks.append({r * d + c: ((-1) ** (r + c) % m, 0) if x else (0, 1)
                           for r, c in cover})
    return _code(m, d * d, checks), m, d


def toric(size: int):
    """[[2 L^2, 2, L]] qubit code on an L x L torus, L = `size`: the
    horizontal edge right of vertex (i, j) is qubit 2 (i L + j) and the
    vertical edge below it qubit 2 (i L + j) + 1.  A vertex star is X on
    its four edges and a face is Z on its four; two of the 2 L^2 checks
    depend on the others."""
    def h(i, j):
        return 2 * (i % size * size + j % size)

    def v(i, j):
        return h(i, j) + 1

    cells = [(i, j) for i in range(size) for j in range(size)]
    stars = [{e: (1, 0) for e in (h(i, j), h(i, j - 1), v(i, j), v(i - 1, j))} for i, j in cells]
    faces = [{e: (0, 1) for e in (h(i, j), h(i + 1, j), v(i, j), v(i, j + 1))} for i, j in cells]
    return _code(2, 2 * size * size, stars + faces), 4, size


def _color_code(n: int, faces) -> CodeSpec:
    """The qubit color code with an X and a Z check on every face, each a list of qubits."""
    return _code(2, n, [{q: p for q in face} for p in ((1, 0), (0, 1)) for face in faces])


def color_666(d: int):
    """[[(3 d^2 + 1)/4, 1, d]] triangular color code on the 6.6.6 (honeycomb)
    lattice, d odd.  The points (i, j), i, j >= 0, i + j <= 3 (d - 1)/2, of
    the triangular lattice, whose neighbours are the offsets (+-1, 0),
    (0, +-1) and +-(1, -1), are face centres where i - j = 2 mod 3 and
    qubits elsewhere; a face is its centre's qubit neighbours, six inside
    the triangle and four on its sides.  The corners are qubits; d = 3 is
    the Steane code."""
    size = 3 * (d - 1) // 2
    points = [(i, j) for i in range(size + 1) for j in range(size + 1 - i)]
    centres = [(i, j) for i, j in points if (i - j) % 3 == 2]
    number = {p: k for k, p in enumerate(p for p in points if p not in centres)}
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1)]
    faces = [[number[i + a, j + b] for a, b in steps if (i + a, j + b) in number]
             for i, j in centres]
    return _color_code(len(number), faces), 2, d


def color_488():
    """[[17, 1, 5]] triangular color code on the 4.8.8 (square-octagon)
    lattice: one octagon, three squares, and four octagons cut to four
    qubits by the boundary, the qubits numbered row by row.  Its weights are
    8 and seven 4s; the three corners (qubits 1, 14 and 16) lie on one face
    each, nine more qubits on the sides on two, and the other five on three."""
    faces = [[3, 4, 5, 6, 7, 8, 10, 11],  # the octagon
             [0, 2, 3, 5], [7, 9, 10, 14], [8, 11, 12, 15],  # the squares
             [0, 1, 3, 4], [2, 5, 7, 9], [6, 8, 12, 13], [12, 13, 15, 16]]  # the cut octagons
    return _color_code(17, faces), 2, 5


def concatenated_513():
    """[[25, 1, >= 9]]: each qubit of the five-qubit code replaced by a
    block of the five-qubit code, whose logical X and Z are XXXXX and ZZZZZ.
    The checks are the four of each block and the outer four, with X on an
    outer qubit read as XXXXX on its block and Z as ZZZZZ."""
    shifts = ["XZZXI"[k:] + "XZZXI"[:k] for k in range(4)]
    inner = [{5 * b + q: p for q, p in enumerate(pauli_label(s))} for b in range(5) for s in shifts]
    outer = [{5 * b + q: p for b, p in enumerate(pauli_label(s)) for q in range(5)}
             for s in shifts]
    return _code(2, 25, inner + outer), 2, 9


def families():
    """Every member the tests use: (name, code, K, d, exact), exact False
    where d is only a lower bound."""
    members = [(f"surface-d{d}", *rotated_surface(d), True) for d in (3, 5)]
    members += [(f"surface-d3-m{m}", *rotated_surface(3, m), True) for m in (3, 5)]
    members += [(f"toric-L{size}", *toric(size), True) for size in (2, 3)]
    members += [("color-666-d5", *color_666(5), True), ("color-488-d5", *color_488(), True)]
    return members + [("513-in-513", *concatenated_513(), False)]
