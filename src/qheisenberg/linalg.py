"""Exact linear algebra over cyclotomic fields.

Dense matrices of CycNumber entries with Gauss-Jordan reduction, plus
sparse workhorses for the two closure problems that dominate runtime:
the dimension of a matrix algebra generated by a few matrices, and the
space of intertwiners between two representations.  The sparse paths
matter because the representation matrices here have at most one
nonzero entry per row, and dense elimination would square away that
structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .cyclotomic import CycNumber, _normalised


class FieldMatrix:
    """A rectangular matrix over Q(zeta_N), immutable, exact."""

    __slots__ = ("conductor", "rows")

    def __init__(self, rows, conductor: int | None = None):
        grid = []
        for row in rows:
            grid.append(list(row))
        if not grid or not grid[0]:
            raise ValueError("matrix needs at least one entry")
        width = len(grid[0])
        for row in grid:
            if len(row) != width:
                raise ValueError("ragged rows")
        if conductor is None:
            sample = next((e for row in grid for e in row
                           if isinstance(e, CycNumber)), None)
            if sample is None:
                raise ValueError("cannot infer conductor from scalar entries")
            conductor = sample.conductor
        out = []
        for row in grid:
            new_row = []
            for e in row:
                if isinstance(e, CycNumber):
                    if e.conductor != conductor:
                        raise ValueError("mixed conductors in matrix")
                    new_row.append(e)
                else:
                    new_row.append(CycNumber.from_rational(conductor, e))
            out.append(tuple(new_row))
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "rows", tuple(out))

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def identity(cls, n: int, conductor: int) -> FieldMatrix:
        one = CycNumber.one(conductor)
        zero = CycNumber.zero(conductor)
        return cls([[one if i == j else zero for j in range(n)]
                    for i in range(n)], conductor)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, conductor: int) -> FieldMatrix:
        zero = CycNumber.zero(conductor)
        return cls([[zero] * ncols for _ in range(nrows)], conductor)

    @classmethod
    def diagonal(cls, entries, conductor: int) -> FieldMatrix:
        entries = list(entries)
        zero = CycNumber.zero(conductor)
        return cls([[entries[i] if i == j else zero
                     for j in range(len(entries))]
                    for i in range(len(entries))], conductor)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    def __getitem__(self, i: int):
        return self.rows[i]

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.conductor == other.conductor and self.rows == other.rows

    def __hash__(self):
        return hash((self.conductor, self.rows))

    def __add__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return FieldMatrix([[a + b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)],
                           self.conductor)

    def __sub__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return FieldMatrix([[a - b for a, b in zip(ra, rb)]
                            for ra, rb in zip(self.rows, other.rows)],
                           self.conductor)

    def __neg__(self):
        return FieldMatrix([[-a for a in row] for row in self.rows],
                           self.conductor)

    def scale(self, c) -> FieldMatrix:
        if not isinstance(c, CycNumber):
            c = CycNumber.from_rational(self.conductor, c)
        return FieldMatrix([[a * c for a in row] for row in self.rows],
                           self.conductor)

    def __mul__(self, other):
        if isinstance(other, FieldMatrix):
            return self._matmul(other)
        if isinstance(other, (CycNumber, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (CycNumber, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    __matmul__ = __mul__

    def _matmul(self, other: FieldMatrix) -> FieldMatrix:
        n, k = self.shape
        k2, m = other.shape
        if k != k2:
            raise ValueError(f"shape mismatch: {self.shape} x {other.shape}")
        zero = CycNumber.zero(self.conductor)
        out = [[zero] * m for _ in range(n)]
        # skip zero entries: the representation matrices are mostly empty
        for i in range(n):
            row = self.rows[i]
            target = out[i]
            for t in range(k):
                a = row[t]
                if a.is_zero():
                    continue
                brow = other.rows[t]
                for j in range(m):
                    b = brow[j]
                    if not b.is_zero():
                        target[j] = target[j] + a * b
        return FieldMatrix(out, self.conductor)

    def __pow__(self, e: int) -> FieldMatrix:
        n, m = self.shape
        if n != m:
            raise ValueError("power of a non-square matrix")
        if not isinstance(e, int) or e < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = FieldMatrix.identity(n, self.conductor)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def transpose(self) -> FieldMatrix:
        return FieldMatrix(list(zip(*self.rows)), self.conductor)

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.rows for e in row)

    def is_scalar(self) -> bool:
        n, m = self.shape
        if n != m:
            return False
        c = self.rows[0][0]
        for i in range(n):
            for j in range(m):
                e = self.rows[i][j]
                if i == j:
                    if e != c:
                        return False
                elif not e.is_zero():
                    return False
        return True

    def scalar_value(self) -> CycNumber:
        if not self.is_scalar():
            raise ValueError("matrix is not scalar")
        return self.rows[0][0]

    def __str__(self) -> str:
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]"
                                 for row in self.rows) + "]"

    __repr__ = __str__

    def to_json(self) -> list:
        return [[e.to_json() for e in row] for row in self.rows]

    @classmethod
    def from_json(cls, data: list) -> FieldMatrix:
        return cls([[CycNumber.from_json(e) for e in row] for row in data])


def row_reduce(mat: FieldMatrix):
    """Exact Gauss-Jordan.  Returns (rref, rank, nullspace basis).

    Nullspace vectors are tuples of CycNumber, one per free column, each
    one-hot on its own free column.
    """
    nrows, ncols = mat.shape
    conductor = mat.conductor
    zero = CycNumber.zero(conductor)
    one = CycNumber.one(conductor)
    rows = [list(r) for r in mat.rows]
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [e * inv for e in rows[r]]
        for i in range(nrows):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break
    rank = r
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    nullspace = []
    for f in free_cols:
        vec = [zero] * ncols
        vec[f] = one
        for t, c in enumerate(pivot_cols):
            vec[c] = -rows[t][f]
        nullspace.append(tuple(vec))
    return FieldMatrix(rows, conductor), rank, nullspace


def is_invertible(mat: FieldMatrix) -> bool:
    n, m = mat.shape
    return n == m and row_reduce(mat)[1] == n


def kernel_vector(mat: FieldMatrix):
    """Some nonzero row vector v with v*mat = 0, or None.

    Row convention: left kernel, matching the row-module action.
    """
    _, _, null = row_reduce(mat.transpose())
    return null[0] if null else None


def scalar_of(mat: FieldMatrix) -> CycNumber | None:
    """The scalar c if mat = c*identity, else None."""
    return mat.scalar_value() if mat.is_scalar() else None


class SparseEchelon:
    """Incremental echelon basis of sparse vectors (dict index -> coeff).

    Indices may be any mutually comparable keys.  Elimination is
    fraction-free: the incoming vector is cross-multiplied against the
    pivot row and its rational content stripped after every step, so no
    field inversions happen until kernel extraction.  Lead-normalized
    pivots turned out to compound denominators exponentially on dense
    inputs; this scheme keeps entries near minor size.  Every entry of a
    pivot row sits at an index >= its lead, which makes back-substitution
    a single descending pass.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @staticmethod
    def _strip(vec: dict) -> dict:
        # Scale by den_lcm / num_gcd so that every coordinate becomes an
        # integer and all of them together are coprime.  For a normalised
        # num/den the reduced coordinates have numerator gcd content(num)
        # and denominator lcm den, so the integer pairs give both directly.
        num_gcd = 0
        den_lcm = 1
        for cn in vec.values():
            num_gcd = gcd(num_gcd, *cn.num)
            if cn.den != 1:
                den_lcm = lcm(den_lcm, cn.den)
        if num_gcd in (0, den_lcm):
            return vec
        # an integer row over den 1 is normalised already; _normalised skips
        # the constructor's coercion and lcm pass on this hot path
        return {k: _normalised(
                    v.conductor, [x // num_gcd * (den_lcm // v.den) for x in v.num], 1)
                for k, v in vec.items()}

    def reduce(self, vec: dict) -> dict:
        vec = self._strip({k: v for k, v in vec.items() if not v.is_zero()})
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            a = vec.pop(lead)
            b = row[lead]
            new = {k: b * v for k, v in vec.items()}
            for idx, rv in row.items():
                if idx == lead:
                    continue
                cur = new.get(idx)
                nv = -a * rv if cur is None else cur - a * rv
                if nv.is_zero():
                    new.pop(idx, None)
                else:
                    new[idx] = nv
            vec = self._strip(new)
        return vec

    def insert(self, vec: dict) -> dict | None:
        """Reduce vec against the basis; admit and return the remainder.

        Returns None when vec was already in the span.
        """
        rem = self.reduce(vec)
        if not rem:
            return None
        self.pivots[min(rem)] = rem
        return rem

    def kernel_basis(self, indices) -> list[dict]:
        """Basis of {v : row . v = 0 for every inserted row}.

        indices must enumerate every unknown the rows may touch.
        """
        indices = sorted(indices)
        free = [i for i in indices if i not in self.pivots]
        leads = sorted(self.pivots, reverse=True)
        basis = []
        zero = CycNumber.zero(self.conductor)
        for f in free:
            sol = {f: CycNumber.one(self.conductor)}
            for lead in leads:
                row = self.pivots[lead]
                acc = zero
                for idx, c in row.items():
                    if idx != lead and idx in sol:
                        acc = acc + c * sol[idx]
                if not acc.is_zero():
                    sol[lead] = -acc * row[lead].inverse()
            basis.append(sol)
        return basis


def _sparse_rows(mat: FieldMatrix) -> list[list[tuple[int, CycNumber]]]:
    return [[(j, e) for j, e in enumerate(row) if not e.is_zero()]
            for row in mat.rows]


def algebra_span_dim(mats: list[FieldMatrix]) -> int:
    """Dimension of the unital algebra generated by the given matrices.

    Seeds the span with the identity and right-multiplies admitted
    elements by generators until the row-reduced basis stops growing.
    """
    if not mats:
        raise ValueError("need at least one generator")
    d, d2 = mats[0].shape
    if d != d2:
        raise ValueError("generators must be square")
    conductor = mats[0].conductor
    for g in mats:
        if g.shape != (d, d):
            raise ValueError("generator size mismatch")
        if g.conductor != conductor:
            raise ValueError("generator conductor mismatch")
    gen_rows = [_sparse_rows(g) for g in mats]
    ech = SparseEchelon(conductor)
    one = CycNumber.one(conductor)
    ident = {(i, i): one for i in range(d)}
    pending = [ech.insert(dict(ident))]
    while pending:
        elem = pending.pop()
        for g in gen_rows:
            prod: dict = {}
            for (r, c), v in elem.items():
                for j, w in g[c]:
                    key = (r, j)
                    cur = prod.get(key)
                    nv = v * w if cur is None else cur + v * w
                    if nv.is_zero():
                        prod.pop(key, None)
                    else:
                        prod[key] = nv
            admitted = ech.insert(prod)
            if admitted is not None:
                pending.append(admitted)
        if ech.rank == d * d:
            return d * d
    return ech.rank


def matrix_hom_space(mats_a: list[FieldMatrix],
                     mats_b: list[FieldMatrix]) -> list[FieldMatrix]:
    """Basis of {P : A_i P = P B_i for all i}, exact.

    A_i are d_a x d_a, B_i are d_b x d_b; P runs over d_a x d_b matrices.
    """
    if len(mats_a) != len(mats_b):
        raise ValueError("generator lists differ in length")
    da = mats_a[0].shape[0]
    db = mats_b[0].shape[0]
    conductor = mats_a[0].conductor
    ech = SparseEchelon(conductor)
    for a_mat, b_mat in zip(mats_a, mats_b):
        for i in range(da):
            for j in range(db):
                eq: dict = {}
                for t in range(da):
                    v = a_mat.rows[i][t]
                    if not v.is_zero():
                        key = (t, j)
                        eq[key] = eq.get(key, CycNumber.zero(conductor)) + v
                for t in range(db):
                    v = b_mat.rows[t][j]
                    if not v.is_zero():
                        key = (i, t)
                        eq[key] = eq.get(key, CycNumber.zero(conductor)) - v
                ech.insert(eq)
    unknowns = [(r, c) for r in range(da) for c in range(db)]
    zero = CycNumber.zero(conductor)
    out = []
    for sol in ech.kernel_basis(unknowns):
        out.append(FieldMatrix([[sol.get((r, c), zero) for c in range(db)]
                                for r in range(da)], conductor))
    return out
