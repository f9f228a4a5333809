"""Exception types shared across the package."""


class QecalgError(Exception):
    """Base class for all qecalg errors."""


# --- error basis validation ---

class NonUnitary(QecalgError):
    """A supplied basis matrix is not unitary."""


class IdentityViolation(QecalgError):
    """The operator at index 0 is not the identity."""


class TraceViolation(QecalgError):
    """tr E_g differs from m * delta(g, 0)."""


class ClosureViolation(QecalgError):
    """A product E_g E_h is not proportional to the operator at index g+h."""


class RowSumViolation(QecalgError):
    """A nonzero row of the phase kernel does not sum to zero."""


# --- group algebra ---

class ShapeMismatch(QecalgError):
    """Operands live in different group algebras (m or n differ)."""


class ZeroMass(QecalgError):
    """The transform is undefined: the coefficient sum is (numerically) zero."""


# --- enumerators ---

class EvenM(QecalgError):
    """Lee machinery requires an odd level count m."""


# --- code analysis ---

class NonOrthonormalBasis(QecalgError):
    """Supplied code basis vectors are not orthonormal."""


class NonCommutingGenerators(QecalgError):
    """Stabilizer generators are not pairwise symplectically orthogonal."""


class InconsistentStabilizers(QecalgError):
    """Phased stabilizer generators generate a nontrivial multiple of the
    identity, so they stabilize no state."""


class NoDistance(QecalgError):
    """No coefficient distinguishes the element from its transform."""


# --- oracle ---

class SizeCap(QecalgError):
    """Dense-matrix oracle refused: m^n exceeds the configured cap."""


# --- file ingestion ---

class FormatError(QecalgError):
    """A data file does not match its documented grammar."""

    def __init__(self, message, path=None, line=None):
        loc = ""
        if path is not None:
            loc = f"{path}: "
        if line is not None:
            loc += f"line {line}: "
        super().__init__(loc + message)
        self.path = path
        self.line = line
