"""Exact linear algebra over cyclotomic fields.

One sparse matrix type, `FieldMatrix`, holds every module matrix: each
row keeps only its nonzero CycNumber entries.  Storage, sums and
transposes cost O(nonzeros): O(d) on the builders' bases, whose
matrices have at most one nonzero entry per row (diagonal, cyclic shift,
or shift times diagonal), and O(d^2) on a dense basis, which `classify`
and `find_intertwiner` also take.  A product A B costs one scalar
multiplication per nonzero A[i][t] and nonzero of row t of B: O(d) on
the builders' bases, O(d^3) on dense ones.  On top of it sits one exact
elimination, `SparseEchelon`, whose pivot rows have lead entry 1.  It
serves every exact rank, kernel and span: `left_kernel` (so
`is_invertible`), intertwiner spaces, and `spin`, the one walk that
multiplies vectors by generators; the library never calls `row_reduce`.
`spin` takes its echelon as an argument, so the same walk runs over F_P
on `modular.reduced`'s echelon; a matrix algebra spins from the identity.
One ladder of such spins, `_certify_simple`, proves a module or a block
of a direct sum simple; `algebra_span_dim` is the exact span.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, product

from . import modular
from .cyclotomic import (CycNumber, _check_conductor, _check_json_int, _sub_mul,
                         euler_phi)


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
        _check_conductor(conductor)
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
        and every position not given is zero.  A conductor that is not an
        int raises TypeError, one below 1 ValueError.
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

    def transpose(self) -> FieldMatrix:
        n, m = self.shape
        cols: list[dict] = [{} for _ in range(m)]
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                cols[j][i] = v
        return _make((m, n), cols, self.conductor)

    def is_zero(self) -> bool:
        return not any(self._rows)

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
        """Read the dense JSON rows, parsing only the entries that are not `to_json`'s zero."""
        if not data or not data[0]:
            raise ValueError("matrix needs at least one entry")
        conductor = data[0][0]["conductor"]
        _check_json_int(conductor)
        # what to_json writes for a zero; True == 1 and 6.0 == 6, so a
        # match still needs an int conductor
        zero = {"conductor": conductor, "coeffs": ["0"] * euler_phi(conductor)}
        ncols = len(data[0])
        rows = []
        for json_row in data:
            if len(json_row) != ncols:
                raise ValueError("ragged rows")
            row = {}
            for j, e in enumerate(json_row):
                if e == zero and type(e["conductor"]) is int:
                    continue
                c = e["conductor"]
                if c != conductor or type(c) is not int:
                    _check_json_int(c)
                    raise ValueError("mixed conductors in matrix")
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


def left_kernel(mats: list[FieldMatrix]) -> list[dict]:
    """Basis of {v : v M = 0 for every M in mats}, exact.

    The n rows of the block row [M ...] (one matrix's own rows, nothing
    transposed) independent mod P (`modular.independent`) give [] without
    exact work.  Otherwise the columns of every M go into one `SparseEchelon`
    and its `kernel_basis` over range(n) is returned: sparse vectors, each
    one-hot at its largest key, as in `row_reduce`'s nullspace.
    """
    n, conductor = mats[0].shape[0], mats[0].conductor
    if any(m.shape[0] != n or m.conductor != conductor for m in mats):
        raise ValueError("left kernel needs one row count and one conductor")
    block = mats[0]._rows
    if len(mats) > 1:
        starts = list(accumulate((m.shape[1] for m in mats), initial=0))
        block = ({start + j: v for m, start in zip(mats, starts)
                  for j, v in m._rows[i].items()} for i in range(n))
    picked = modular.independent(block, conductor, n)
    if picked is not None and len(picked) == n:
        return []
    ech = SparseEchelon(conductor)
    for m in mats:
        for col in m.transpose()._rows:
            ech.insert(col)
    return ech.kernel_basis(range(n))


def is_invertible(mat: FieldMatrix) -> bool:
    """Exact invertibility: mat is square and has no nonzero `left_kernel`."""
    n, m = mat.shape
    return n == m and not left_kernel([mat])


class SparseEchelon:
    """Incremental echelon basis of sparse vectors (dict index -> coeff).

    Indices may be any mutually comparable keys.  Pivots are
    lead-normalised: each pivot row is stored under its lead, its
    smallest index, where its entry is exactly 1, and all its other
    entries sit at larger indices.  Reducing a vector subtracts a * row
    for each pivot lead it meets, with one normalisation per entry
    update (`cyclotomic._sub_mul`), and an admitted remainder is divided
    by its lead.  The echelon keeps the inverse of each lead value it has
    met, so it pays one field inversion per distinct lead value.  Each
    entry of a pivot row is then a ratio of two minors of the admitted
    vectors, so on a dense basis the entries stay near minor size.
    Back-substitution is a single descending pass over the leads.
    """

    def __init__(self, conductor: int):
        self.conductor = conductor
        self.pivots: dict = {}
        self._inverses: dict = {}

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
        a = rem[lead]
        if a != CycNumber.one(self.conductor):
            inv = self._inverses.get(a)
            if inv is None:
                inv = self._inverses[a] = a.inverse()
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


def spin(gens: list, seed: dict, full: int, ech) -> int:
    """Dimension of the spin of seed under d x d generators, up to full.

    The spin is the span of seed times every word in the generators.
    gens are the generators' sparse rows ({col: value} per row) over the
    field of ech: an empty `SparseEchelon`, or the F_P echelon of
    `modular.reduced`.  Key r*d + c is entry c of row r, so a row vector
    has keys below d and a d x d matrix has d^2 keys.  The walk is depth
    first: each row ech admits, lead-normalised, is multiplied by each
    generator, until full rows are admitted.  Values are only multiplied
    and added here; ech drops zeros and, over F_P, reduces.
    """
    d = len(gens[0])
    pending = [ech.insert(dict(seed))]
    while pending:
        vec = pending.pop()
        for g in gens:
            image: dict = {}
            for key, v in vec.items():
                base = key - key % d
                for j, w in g[key - base].items():
                    cur = image.get(base + j)
                    image[base + j] = v * w if cur is None else cur + v * w
            admitted = ech.insert(image)
            if admitted is not None:
                if ech.rank == full:
                    return full
                pending.append(admitted)
    return ech.rank


def _spin_mod_p(gens: list[FieldMatrix], seed: dict, full: int) -> int | None:
    # The `spin` of seed mod P, up to full, or None without a reduction: a
    # full spin mod P proves a full exact spin, a short one proves nothing.
    reduced = modular.reduced(gens)
    if reduced is None:
        return None
    return spin(reduced[0], seed, full, reduced[1])


def _norton(gens: list[FieldMatrix], weights: list[tuple]) -> bool | None:
    """Norton's irreducibility test on a standard basis vector, mod P.

    gens are d x d generators, and weights[i] is the joint weight of e_i
    under some diagonal elements of the unital algebra they generate
    (`_refined_weights`).  None is returned when the weights do not tell
    any two basis vectors apart.

    Suppose e_i has a weight that no other e_j shares.  A generic
    rational combination of the diagonal elements minus its i-th entry
    is then an element theta' of the algebra with ker theta' =
    ker theta'^T = K e_i.  Norton's criterion (Parker 1984; Holt and Rees
    1994): if e_i spins to the whole space under gens, and also under
    their transposes, the module is simple, and since ker theta' is
    one-dimensional it is absolutely simple, so gens span all d^2
    matrices.  Both spins are needed: a module can have a full forward
    spin and a proper submodule.  True is returned when both spins are
    full mod P, which makes them full exactly (`_spin_mod_p`); False when
    no weight is unique or a spin mod P falls short, which proves nothing.
    """
    d = gens[0].shape[0]
    counts = Counter(weights)
    if len(counts) == 1:
        return None
    i = next((i for i, w in enumerate(weights) if counts[w] == 1), None)
    return (i is not None and _spin_mod_p(gens, {i: 1}, d) == d
            and _spin_mod_p([g.transpose() for g in gens], {i: 1}, d) == d)


def _refined_weights(sides: list[list[FieldMatrix]]) -> list[list[tuple]]:
    # The joint weight of each basis vector of each side (lists of square
    # generators, one length for all) under the generators diagonal on
    # every side.  When a weight repeats on some side, each two-letter
    # word of the others whose pattern is diagonal on every side (for z on
    # a weight basis: xy and yx) joins them, the same word on every side.
    zero = CycNumber.zero(sides[0][0].conductor)
    gens = range(len(sides[0]))
    diagonal = [g for g in gens if all(side[g].is_diagonal() for side in sides)]
    mats = [[side[g] for g in diagonal] for side in sides]

    def weights() -> list[list[tuple]]:
        return [[tuple(m._rows[i].get(i, zero) for m in ms)
                 for i in range(side[0].shape[0])]
                for side, ms in zip(sides, mats)]

    out = weights()
    if any(len(set(w)) < len(w) for w in out):
        others = [g for g in gens if g not in diagonal]
        for g, h in product(others, repeat=2):
            words = _diagonal_words([(side[g], side[h]) for side in sides])
            for ms, word in zip(mats, words or ()):
                ms.append(word)
        out = weights()
    return out


def _diagonal_words(pairs) -> list[FieldMatrix] | None:
    # [a * b for each pair] when the pattern of every product is diagonal,
    # else None.  A pattern is diagonal when each path i -> t -> j through
    # the nonzeros of a and b ends at j = i; the check is O(nonzeros) and
    # stops at the first path off the diagonal, so no product is formed
    # only to be thrown away.  A product that is diagonal only because
    # entries cancel is left out.
    if any(j != i for a, b in pairs for i, row in enumerate(a._rows)
           for t in row for j in b._rows[t]):
        return None
    return [a * b for a, b in pairs]


def _certify_simple(gens: list[FieldMatrix],
                    extra: list[FieldMatrix]) -> bool | None:
    """Do the d x d gens span all d^2 matrices?  Each rung is a `spin`.

    True proves it, None means the exact spin of some e_i is a proper
    submodule, and False proves nothing.  extra (theta for a module) are
    further elements of the algebra whose diagonals join the weights.

    1. `_norton` on the `_refined_weights` of gens + extra: True proves
       the span, and a result other than None marks a weight basis.
    2. In a weight basis, the exact spin of each e_i.
    3. The spin of the identity mod P, full only if the exact one is.
    4. In any other basis, the exact spin of each e_i.
    """
    d, conductor = gens[0].shape[0], gens[0].conductor
    weights, = _refined_weights([gens + extra])
    certified = _norton(gens, weights)
    if certified:
        return True
    rows = [g._rows for g in gens]
    one = CycNumber.one(conductor)

    def submodule() -> bool:
        # the exact spin of e_i is invariant: one short of d is a submodule
        return any(spin(rows, {i: one}, d, SparseEchelon(conductor)) < d
                   for i in range(d))

    weighted = certified is not None
    if weighted and submodule():
        return None
    if _spin_mod_p(gens, {i * d + i: 1 for i in range(d)}, d * d) == d * d:
        return True
    if not weighted and submodule():
        return None
    return False


def algebra_span_dim(mats: list[FieldMatrix]) -> int:
    """Dimension of the unital algebra generated by the given matrices.

    The matrices are block diagonal on the connected components of the
    graph with an edge i - j per nonzero (i, j) entry.  With several, a
    block joins the class of an earlier one of its size with a nonzero
    `matrix_hom_space` to it, or else `_certify_simple` must prove that
    it spans all b x b matrices.  The value is then the sum of b^2 over
    the classes (Schur, Wedderburn).  Otherwise, or if some block is not
    proven, it is the exact `spin` of the identity as d^2 entries.
    """
    d, conductor = _generator_size(mats)
    rows = [g._rows for g in mats]
    one = CycNumber.one(conductor)
    return _block_span(rows, d, conductor) or spin(
        rows, {i * d + i: one for i in range(d)}, d * d, SparseEchelon(conductor))


def _block_span(rows: list, d: int, conductor: int) -> int | None:
    # algebra_span_dim's sum over classes, or None; blocks by union-find
    root = list(range(d))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = i = root[root[i]]
        return i

    for g in rows:
        for i, row in enumerate(g):
            for j in row:
                root[find(i)] = find(j)
    blocks: dict = {}
    for i in range(d):
        blocks.setdefault(find(i), []).append(i)
    if len(blocks) == 1:
        return None
    classes: list[list[FieldMatrix]] = []
    for idx in blocks.values():
        b = len(idx)
        at = {i: k for k, i in enumerate(idx)}
        block = [_make((b, b), [{at[j]: v for j, v in g[i].items()}
                                for i in idx], conductor) for g in rows]
        if any(matrix_hom_space(c, block) for c in classes if c[0].shape == (b, b)):
            continue
        if _certify_simple(block, []) is not True:
            return None
        classes.append(block)
    return sum(c[0].shape[0] ** 2 for c in classes)


def matrix_hom_space(mats_a: list[FieldMatrix],
                     mats_b: list[FieldMatrix]) -> list[FieldMatrix]:
    """Basis of {P : A_g P = P B_g for all g}, exact.

    A_g are d_a x d_a, B_g are d_b x d_b; P runs over d_a x d_b matrices.
    Equation (g, i, j) says that entry (i, j) of A_g P - P B_g vanishes.

    For g with A_g and B_g both diagonal, equation (g, r, c) reads
    (a_r - b_c) P[r][c] = 0, so P vanishes off the support: the (r, c)
    where e_r and e_c have equal `_refined_weights`.  A word leaves the
    hom space as it is (every solution has A_g A_h P = P B_g B_h).  One
    builder forms the equations that touch the support, restricted to it,
    in (g, i, j) order; it skips each g diagonal on both sides, whose
    equations vanish there.  The kernel of the whole system is that of
    the restricted one padded with zeros, so the basis is the same list
    over any support off which every solution vanishes.  An empty support
    gives [], and one that leaves out some unknown is solved exactly, all
    its equations into one echelon, with no modular step.

    When the support is every unknown (no diagonal pair, or weights that
    rule out none, as for a dense basis with z = 0), `modular.independent`
    picks the equations independent mod a prime.  If d_a * d_b are, only
    P = 0 solves the system and [] is returned without exact elimination.
    Otherwise only the picked equations go into the exact echelon; with
    an unlucky prime they span less than the whole system, so each kernel
    matrix is checked exactly against A_g P = P B_g, and if a check fails,
    or no reduction mod the prime exists, every equation is inserted.
    The kernel basis depends only on the row space of the inserted
    equations, so the answer does not depend on the prime.
    """
    if len(mats_a) != len(mats_b):
        raise ValueError("generator lists differ in length")
    da, conductor = _generator_size(mats_a)
    db, conductor_b = _generator_size(mats_b)
    if conductor_b != conductor:
        raise ValueError("generator conductor mismatch")
    weights_a, weights_b = _refined_weights([mats_a, mats_b])
    columns: dict = {}
    for c, w in enumerate(weights_b):
        columns.setdefault(w, []).append(c)
    support = [(r, c) for r, w in enumerate(weights_a)
               for c in columns.get(w, ())]
    if not support:
        return []
    inside = set(support)
    # P[r][c] enters equation (g, i, c) through A_g[i][r] and equation
    # (g, r, j) through B_g[c][j]
    b_cols, touched = {}, set()
    for g, (a, b) in enumerate(zip(mats_a, mats_b)):
        if a.is_diagonal() and b.is_diagonal():
            continue
        b_cols[g] = b.transpose()._rows
        a_cols, b_rows = a.transpose()._rows, b._rows
        for r, c in support:
            touched.update((g, i, c) for i in a_cols[r])
            touched.update((g, r, j) for j in b_rows[c])
    positions = sorted(touched)

    def equation(g: int, i: int, j: int) -> dict:
        # (A P)[i][j] - (P B)[i][j] = 0 in the unknowns P[t][s] of the support
        eq = {(t, j): v for t, v in mats_a[g]._rows[i].items()
              if (t, j) in inside}
        for t, v in b_cols[g][j].items():
            if (i, t) in inside:
                cur = eq.get((i, t))
                eq[(i, t)] = -v if cur is None else cur - v
        return eq

    ech = SparseEchelon(conductor)

    def kernel() -> list[FieldMatrix]:
        return [FieldMatrix.from_entries(da, db, sol, conductor)
                for sol in ech.kernel_basis(support)]

    if len(support) == da * db:
        picked = modular.independent((equation(*pos) for pos in positions),
                                     conductor, da * db)
        if picked is not None and len(picked) == da * db:
            return []
        if picked is not None:
            for k in picked:
                ech.insert(equation(*positions[k]))
            basis = kernel()
            if all(a * x == x * b for x in basis
                   for a, b in zip(mats_a, mats_b)):
                return basis
    for pos in positions:
        ech.insert(equation(*pos))
    return kernel()
