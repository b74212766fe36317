"""Exact linear algebra over cyclotomic fields.

One sparse matrix type, `FieldMatrix`, holds every module matrix: each
row keeps only its nonzero CycNumber entries.  The representation
matrices here have at most one nonzero entry per row (diagonal, cyclic
shift, or shift times diagonal), so products, sums and relation residuals
cost O(nonzeros) rather than O(l^3).  On top of it sits one exact
elimination, `SparseEchelon`, whose pivot rows have lead entry 1.  It
serves every exact rank, kernel and span: `row_reduce`, the dimension of
a matrix algebra generated by a few matrices, and the space of
intertwiners between two representations.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from . import modular
from .cyclotomic import CycNumber, _check_json_int, _sub_mul, euler_phi


class FieldMatrix:
    """A rectangular matrix over Q(zeta_N), immutable, exact and sparse.

    Only the nonzero entries are stored: one {col: value} dict per row,
    next to `shape` and `conductor`.  No zero is ever stored, so equal
    matrices have equal row dicts and equality is structural.  The
    constructor takes dense rows; `from_entries` takes the nonzero entries
    by position.  `rows` and `m[i]` are dense read-only views.
    """

    __slots__ = ("conductor", "shape", "_rows")

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
        self._init_entries(len(grid), width,
                           {(i, j): e for i, row in enumerate(grid)
                            for j, e in enumerate(row)}, conductor)

    def _init_entries(self, nrows: int, ncols: int, entries: dict,
               conductor: int) -> FieldMatrix:
        if nrows < 1 or ncols < 1:
            raise ValueError("matrix needs at least one entry")
        rows: list[dict] = [{} for _ in range(nrows)]
        for (i, j), e in entries.items():
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise ValueError(f"entry ({i}, {j}) lies outside a "
                                 f"{nrows} x {ncols} matrix")
            if not isinstance(e, CycNumber):
                e = CycNumber.from_rational(conductor, e)
            elif e.conductor != conductor:
                raise ValueError("mixed conductors in matrix")
            if not e.is_zero():
                rows[i][j] = e
        return self._init_rows((nrows, ncols), rows, conductor)

    def _init_rows(self, shape: tuple[int, int], rows,
                   conductor: int) -> FieldMatrix:
        # rows must hold one {col: nonzero CycNumber} dict per row
        object.__setattr__(self, "conductor", conductor)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "_rows", tuple(rows))
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FieldMatrix is immutable")

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries: dict,
                     conductor: int) -> FieldMatrix:
        """The nrows x ncols matrix with the given {(i, j): value} entries.

        Values may be CycNumber, int or Fraction.  Zero values are dropped
        and every position not given is zero.
        """
        return object.__new__(cls)._init_entries(nrows, ncols, entries, conductor)

    @classmethod
    def identity(cls, n: int, conductor: int) -> FieldMatrix:
        return cls.from_entries(n, n, {(i, i): 1 for i in range(n)}, conductor)

    @classmethod
    def zeros(cls, nrows: int, ncols: int, conductor: int) -> FieldMatrix:
        return cls.from_entries(nrows, ncols, {}, conductor)

    @classmethod
    def diagonal(cls, entries, conductor: int) -> FieldMatrix:
        entries = list(entries)
        return cls.from_entries(len(entries), len(entries),
                                {(i, i): e for i, e in enumerate(entries)},
                                conductor)

    def __getitem__(self, i: int):
        """Row i as a dense tuple (a read-only view)."""
        zero = CycNumber.zero(self.conductor)
        row = self._rows[i]
        return tuple(row.get(j, zero) for j in range(self.shape[1]))

    @property
    def rows(self) -> tuple:
        """Every row as a dense tuple (a read-only view)."""
        return tuple(self[i] for i in range(self.shape[0]))

    def __eq__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return (self.conductor == other.conductor and self.shape == other.shape
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.conductor, self.shape,
                     tuple(frozenset(row.items()) for row in self._rows)))

    def __add__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if (other.shape, other.conductor) != (self.shape, self.conductor):
            raise ValueError(f"cannot add {other.shape} over Q(zeta_{other.conductor})"
                             f" to {self.shape} over Q(zeta_{self.conductor})")
        out = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for j, b in rb.items():
                a = row.get(j)
                v = b if a is None else a + b
                if v.is_zero():
                    del row[j]
                else:
                    row[j] = v
            out.append(row)
        return _make(self.shape, out, self.conductor)

    def __sub__(self, other):
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _make(self.shape, [{j: -v for j, v in row.items()}
                                  for row in self._rows], self.conductor)

    def scale(self, c) -> FieldMatrix:
        if not isinstance(c, CycNumber):
            c = CycNumber.from_rational(self.conductor, c)
        if c.is_zero():
            return FieldMatrix.zeros(*self.shape, self.conductor)
        return _make(self.shape, [{j: v * c for j, v in row.items()}
                                  for row in self._rows], self.conductor)

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
        if self.shape[1] != other.shape[0]:
            raise ValueError(f"shape mismatch: {self.shape} x {other.shape}")
        brows = other._rows
        out = []
        for row in self._rows:
            acc: dict = {}
            for t, a in row.items():
                for j, b in brows[t].items():
                    cur = acc.get(j)
                    acc[j] = a * b if cur is None else cur + a * b
            out.append({j: v for j, v in acc.items() if not v.is_zero()})
        return _make((self.shape[0], other.shape[1]), out, self.conductor)

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
        n, m = self.shape
        cols: list[dict] = [{} for _ in range(m)]
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                cols[j][i] = v
        return _make((m, n), cols, self.conductor)

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_scalar(self) -> bool:
        n, m = self.shape
        if n != m:
            return False
        c = self._rows[0].get(0)
        return all(row == ({} if c is None else {i: c})
                   for i, row in enumerate(self._rows))

    def is_diagonal(self) -> bool:
        n, m = self.shape
        return n == m and all(row.keys() <= {i}
                              for i, row in enumerate(self._rows))

    def __str__(self) -> str:
        return "[" + ",\n ".join("[" + ", ".join(str(e) for e in row) + "]"
                                 for row in self.rows) + "]"

    __repr__ = __str__

    def to_json(self) -> list:
        conductor = self.conductor
        zero = ["0"] * euler_phi(conductor)
        return [[row[j].to_json() if j in row
                 else {"conductor": conductor, "coeffs": zero[:]}
                 for j in range(self.shape[1])] for row in self._rows]

    @classmethod
    def from_json(cls, data: list) -> FieldMatrix:
        """Read the dense JSON rows, parsing only the entries that are not all "0"."""
        if not data or not data[0]:
            raise ValueError("matrix needs at least one entry")
        conductor = data[0][0]["conductor"]
        _check_json_int(conductor)
        zero = ["0"] * euler_phi(conductor)
        ncols = len(data[0])
        rows = []
        for json_row in data:
            if len(json_row) != ncols:
                raise ValueError("ragged rows")
            row = {}
            for j, e in enumerate(json_row):
                c = e["conductor"]
                if c != conductor or type(c) is not int:
                    _check_json_int(c)
                    raise ValueError("mixed conductors in matrix")
                if e["coeffs"] != zero:
                    v = CycNumber.from_json(e)
                    if not v.is_zero():
                        row[j] = v
            rows.append(row)
        return _make((len(data), ncols), rows, conductor)


def _make(shape: tuple[int, int], rows, conductor: int) -> FieldMatrix:
    # trusted constructor: rows hold no zero entries
    return object.__new__(FieldMatrix)._init_rows(shape, rows, conductor)


def row_reduce(mat: FieldMatrix):
    """Reduced row echelon form, rank and nullspace basis, exact.

    The rows go into one `SparseEchelon`.  Nullspace vectors are tuples
    of CycNumber, one per free column, each one-hot on its own free
    column.  Row t of the rref is 1 at the t-th pivot column c and, at
    each free column f, minus entry c of the nullspace vector of f; the
    rank rows are followed by zero rows.  Both outputs depend only on the
    row space, not on the order of elimination.
    """
    conductor = mat.conductor
    ncols = mat.shape[1]
    ech = SparseEchelon(conductor)
    for row in mat._rows:
        ech.insert(row)
    pivot_cols = sorted(ech.pivots)
    free_cols = [c for c in range(ncols) if c not in ech.pivots]
    kernel = ech.kernel_basis(range(ncols))
    rows: list[dict] = [{c: CycNumber.one(conductor)} for c in pivot_cols]
    for f, sol in zip(free_cols, kernel):
        for row, c in zip(rows, pivot_cols):
            if c in sol:
                row[f] = -sol[c]
    rows += [{} for _ in range(mat.shape[0] - ech.rank)]
    zero = CycNumber.zero(conductor)
    nullspace = [tuple(sol.get(j, zero) for j in range(ncols))
                 for sol in kernel]
    return _make(mat.shape, rows, conductor), ech.rank, nullspace


def is_invertible(mat: FieldMatrix) -> bool:
    """Exact invertibility.  A full rank mod P proves it; a short one is rechecked exactly."""
    n, m = mat.shape
    if n != m:
        return False
    return modular.rank(mat) == n or row_reduce(mat)[1] == n


def scalar_of(mat: FieldMatrix) -> CycNumber | None:
    """The scalar c if mat = c*identity, else None."""
    return mat[0][0] if mat.is_scalar() else None


class SparseEchelon:
    """Incremental echelon basis of sparse vectors (dict index -> coeff).

    Indices may be any mutually comparable keys.  Pivots are
    lead-normalised: each pivot row is stored under its lead, its
    smallest index, where its entry is exactly 1, and all its other
    entries sit at larger indices.  Reducing a vector subtracts a * row
    for each pivot lead it meets, with one normalisation per entry
    update (`cyclotomic._sub_mul`), and an admitted remainder is divided
    by its lead, so one field inversion is paid per admitted row.  Each
    entry of a pivot row is then a ratio of two minors of the admitted
    vectors, so on a dense basis the entries stay near minor size.
    Back-substitution is a single descending pass over the leads.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: dict) -> dict:
        vec = {k: v for k, v in vec.items() if not v.is_zero()}
        while vec:
            lead = min(vec)
            row = self.pivots.get(lead)
            if row is None:
                return vec
            a = vec.pop(lead)
            for idx, rv in row.items():
                if idx == lead:
                    continue
                cur = vec.get(idx)
                if cur is None:
                    vec[idx] = -(a * rv)
                else:
                    nv = _sub_mul(cur, a, rv)
                    if nv.is_zero():
                        del vec[idx]
                    else:
                        vec[idx] = nv
        return vec

    def insert(self, vec: dict) -> dict | None:
        """Reduce vec against the basis; admit and return the remainder,
        divided by its lead entry.

        Returns None when vec was already in the span.
        """
        rem = self.reduce(vec)
        if not rem:
            return None
        lead = min(rem)
        one = CycNumber.one(self.conductor)
        if rem[lead] != one:
            inv = rem[lead].inverse()
            rem = {k: v * inv for k, v in rem.items()}
        self.pivots[lead] = rem
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
                    sol[lead] = -acc
            basis.append(sol)
        return basis


def _generator_size(mats: list[FieldMatrix]) -> tuple[int, int]:
    # the common size d and conductor of a non-empty list of d x d matrices
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
    return d, conductor


def algebra_span_dim(mats: list[FieldMatrix]) -> int:
    """Dimension of the unital algebra generated by the given matrices.

    Seeds the span with the identity and right-multiplies admitted
    elements by generators until the row-reduced basis stops growing.
    """
    d, conductor = _generator_size(mats)
    ech = SparseEchelon(conductor)
    one = CycNumber.one(conductor)
    ident = {(i, i): one for i in range(d)}
    pending = [ech.insert(dict(ident))]
    while pending:
        elem = pending.pop()
        for g in mats:
            prod: dict = {}
            for (r, c), v in elem.items():
                for j, w in g._rows[c].items():
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


def matrix_hom_space(mats_a: list[FieldMatrix],
                     mats_b: list[FieldMatrix]) -> list[FieldMatrix]:
    """Basis of {P : A_g P = P B_g for all g}, exact.

    A_g are d_a x d_a, B_g are d_b x d_b; P runs over d_a x d_b matrices.
    Equation (g, i, j) says that entry (i, j) of A_g P - P B_g vanishes.

    Weight support.  For each g with A_g and B_g both diagonal, equation
    (g, r, c) reads (a_r - b_c) P[r][c] = 0.  So P vanishes off the
    support, the pairs (r, c) where e_r and e_c have equal joint weights
    (`joint_weights`) under those pairs.  When the support leaves out
    some unknown, only the equations that touch the support, restricted
    to it, are solved, exactly and without a modular step; an empty
    support gives [].  The kernel of the whole system is that of the
    restricted one padded with zeros, so its basis, taken over the
    support in the same (r, c) order, is the same list as the basis over
    all d_a * d_b unknowns.

    Otherwise (no such g, or weights that rule out no unknown, as for a
    dense basis with z = 0 or for d_a = d_b = 1) the equations are built
    one at a time, in (g, i, j) order, and `modular.independent` picks
    those that are independent mod a prime.  If d_a * d_b of them are,
    only P = 0 solves the system, and [] is returned without exact
    elimination.  Otherwise only the picked equations go into the exact
    echelon.  They are independent exactly too, but with an unlucky prime
    they span less than the whole system, so every kernel matrix is
    checked exactly against A_g P = P B_g.  If a check fails, or no
    reduction mod the prime exists, every equation is inserted.  The
    kernel basis depends only on the row space of the inserted equations,
    so the answer does not depend on the prime.
    """
    if len(mats_a) != len(mats_b):
        raise ValueError("generator lists differ in length")
    da, conductor = _generator_size(mats_a)
    db, conductor_b = _generator_size(mats_b)
    if conductor_b != conductor:
        raise ValueError("generator conductor mismatch")
    b_cols = [b.transpose()._rows for b in mats_b]

    def equation(g: int, i: int, j: int) -> dict:
        # (A P)[i][j] - (P B)[i][j] = 0 in the unknowns P[t][s]
        eq = {(t, j): v for t, v in mats_a[g]._rows[i].items()}
        for t, v in b_cols[g][j].items():
            cur = eq.get((i, t))
            eq[(i, t)] = -v if cur is None else cur - v
        return eq

    ech = SparseEchelon(conductor)

    def kernel(over) -> list[FieldMatrix]:
        return [FieldMatrix.from_entries(da, db, sol, conductor)
                for sol in ech.kernel_basis(over)]

    unknowns = [(r, c) for r in range(da) for c in range(db)]
    support = unknowns
    diagonal = [g for g, (a, b) in enumerate(zip(mats_a, mats_b))
                if a.is_diagonal() and b.is_diagonal()]
    if diagonal:
        weights_b: dict = {}
        for c, w in enumerate(joint_weights([mats_b[g] for g in diagonal])):
            weights_b.setdefault(w, []).append(c)
        support = [(r, c) for r, w in enumerate(
                       joint_weights([mats_a[g] for g in diagonal]))
                   for c in weights_b.get(w, ())]
    if len(support) < da * db:
        if not support:
            return []
        # P[r][c] enters equation (g, i, c) through A_g[i][r] and
        # equation (g, r, j) through B_g[c][j]
        touched = set()
        for g in range(len(mats_a)):
            if g in diagonal:
                continue
            a_cols = mats_a[g].transpose()._rows
            b_rows = mats_b[g]._rows
            for r, c in support:
                touched.update((g, i, c) for i in a_cols[r])
                touched.update((g, r, j) for j in b_rows[c])
        inside = set(support)
        for pos in sorted(touched):
            ech.insert({k: v for k, v in equation(*pos).items() if k in inside})
        return kernel(support)

    positions = list(product(range(len(mats_a)), range(da), range(db)))
    picked = modular.independent((equation(*pos) for pos in positions),
                                 conductor, da * db)
    if picked is not None and len(picked) == da * db:
        return []
    if picked is not None:
        for k in picked:
            ech.insert(equation(*positions[k]))
        basis = kernel(unknowns)
        if all(a * x == x * b for x in basis for a, b in zip(mats_a, mats_b)):
            return basis
    for pos in positions:
        ech.insert(equation(*pos))
    return kernel(unknowns)
