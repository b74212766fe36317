"""Matrix helpers that only the tests use."""

from qheisenberg.cyclotomic import CycNumber
from qheisenberg.linalg import FieldMatrix, _generator_size


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


def joint_weights(mats: list[FieldMatrix]) -> list[tuple]:
    """The joint weight of each basis vector under the diagonal matrices.

    Entry i is the tuple of the i-th diagonal entries of those of the
    d x d matrices that are diagonal, in list order; it is () for every i
    when none is.  Weights are compared by exact equality.
    """
    d, conductor = _generator_size(mats)
    zero = CycNumber.zero(conductor)
    diagonal = [g._rows for g in mats if g.is_diagonal()]
    return [tuple(rows[i].get(i, zero) for rows in diagonal) for i in range(d)]
