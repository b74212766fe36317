"""Matrix helpers that only the tests use."""

from qheisenberg.linalg import FieldMatrix


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
