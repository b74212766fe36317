"""Matrix helpers that only the tests use."""

from qheisenberg.linalg import FieldMatrix


def is_scalar(mat: FieldMatrix) -> bool:
    """Whether mat is c times the identity for some c, zero included."""
    n, m = mat.shape
    if n != m:
        return False
    c = mat._rows[0].get(0)
    return all(row == ({} if c is None else {i: c})
               for i, row in enumerate(mat._rows))


def matrix_power(mat: FieldMatrix, e: int) -> FieldMatrix:
    """mat^e by repeated squaring, for a square mat and an int e >= 0."""
    n, m = mat.shape
    if n != m:
        raise ValueError("power of a non-square matrix")
    if not isinstance(e, int) or e < 0:
        raise ValueError("exponent must be a non-negative integer")
    result = FieldMatrix.identity(n, mat.conductor)
    base = mat
    while e:
        if e & 1:
            result = result * base
        base = base * base if e > 1 else base
        e >>= 1
    return result
