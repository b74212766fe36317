"""Exact matrix layer: arithmetic, reduction, span and hom-space solvers."""

import functools
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from qheisenberg.cyclotomic import CycNumber, zeta_power
from qheisenberg.linalg import (FieldMatrix, SparseEchelon, algebra_span_dim,
                                is_invertible, matrix_hom_space, row_reduce)

from matrix_helpers import is_scalar, matrix_power


def cyc(n, v):
    return CycNumber.from_rational(n, v)


def kernel_vector(mat):
    """Some nonzero row vector v with v*mat = 0, or None.

    Row convention: left kernel, matching the row-module action.
    """
    _, _, null = row_reduce(mat.transpose())
    return null[0] if null else None


class TestFieldMatrix:
    def test_construction_and_shape(self):
        m = FieldMatrix([[cyc(4, 1), cyc(4, 2)], [cyc(4, 0), cyc(4, 3)]])
        assert m.shape == (2, 2)
        assert m.conductor == 4
        assert m[0][1] == cyc(4, 2)

    def test_scalar_entries_coerced(self):
        m = FieldMatrix([[1, Fraction(1, 2)], [0, 2]], conductor=6)
        assert m[0][1] == cyc(6, Fraction(1, 2))

    def test_inexact_entries_raise_type_error(self):
        for entry in (0.1, True, 2.0):
            with pytest.raises(TypeError):
                FieldMatrix([[entry]], 6)
            with pytest.raises(TypeError):
                FieldMatrix.from_entries(1, 1, {(0, 0): entry}, 6)
            with pytest.raises(TypeError):
                FieldMatrix.identity(2, 6).scale(entry)

    @pytest.mark.parametrize("conductor", [6.0, True, "6"])
    def test_conductor_must_be_an_int(self, conductor):
        builds = (lambda: FieldMatrix.from_entries(2, 2, {(0, 0): 1}, conductor),
                  lambda: FieldMatrix([[1, 0], [0, 1]], conductor),
                  lambda: FieldMatrix.identity(2, conductor),
                  lambda: FieldMatrix.zeros(2, 2, conductor),
                  lambda: FieldMatrix.diagonal([1, 2], conductor))
        for build in builds:
            with pytest.raises(TypeError, match="conductor must be an int, got "
                                                f"{conductor!r}"):
                build()

    @pytest.mark.parametrize("conductor", [0, -6])
    def test_conductor_below_one_raises_value_error(self, conductor):
        for build in (lambda: FieldMatrix.from_entries(1, 1, {}, conductor),
                      lambda: FieldMatrix([[1]], conductor),
                      lambda: FieldMatrix.identity(1, conductor)):
            with pytest.raises(ValueError, match=f"conductor must be >= 1, got {conductor}"):
                build()

    def test_conductor_required_for_scalar_entries(self):
        with pytest.raises(ValueError):
            FieldMatrix([[1, 2], [3, 4]])

    def test_mixed_conductor_rejected(self):
        with pytest.raises(ValueError):
            FieldMatrix([[cyc(4, 1), cyc(6, 1)]])

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            FieldMatrix([[cyc(4, 1)], [cyc(4, 1), cyc(4, 2)]])

    def test_json_work_is_per_nonzero(self, monkeypatch):
        m = FieldMatrix.diagonal([cyc(4, 2), zeta_power(4, 1), cyc(4, 0)], 4)
        data = m.to_json()
        parsed = []
        real = CycNumber.from_json.__func__
        monkeypatch.setattr(CycNumber, "from_json", classmethod(
            lambda cls, e: parsed.append(e) or real(cls, e)))
        monkeypatch.setattr(FieldMatrix, "rows", property(
            lambda self: pytest.fail("to_json read the dense view")))
        assert FieldMatrix.from_json(data) == m
        assert parsed == [data[0][0], data[1][1]]
        assert m.to_json() == data

    def test_from_json_zero_spellings_are_not_stored(self):
        zero = {"conductor": 4, "coeffs": ["-0", "0/5"]}
        m = FieldMatrix.from_json([[zero, {"conductor": 4, "coeffs": ["2/4", "0"]}]])
        assert m._rows == ({1: cyc(4, Fraction(1, 2))},)

    @pytest.mark.parametrize("data, message", [
        ([], "matrix needs at least one entry"),
        ([[]], "matrix needs at least one entry"),
        ([[{"conductor": 4, "coeffs": ["0", "0"]}], []], "ragged rows"),
        ([[{"conductor": 4, "coeffs": ["1", "0"]},
           {"conductor": 6, "coeffs": ["0", "0"]}]], "mixed conductors"),
        ([[{"conductor": 4, "coeffs": ["0"]}]], "need exactly 2 coordinates"),
        ([[{"conductor": 4, "coeffs": ["0", "0", "0"]}]],
         "need exactly 2 coordinates"),
        ([[{"conductor": 4, "coeffs": ["1/0", "0"]}]], "Fraction"),
    ], ids=["empty", "empty_row", "ragged", "zero_at_other_conductor",
            "short_zero", "long_zero", "zero_denominator"])
    def test_from_json_rejects(self, data, message):
        with pytest.raises((ValueError, ZeroDivisionError), match=message):
            FieldMatrix.from_json(data)

    def test_immutable(self):
        m = FieldMatrix.identity(2, 4)
        with pytest.raises(AttributeError):
            m.conductor = 8

    def test_identity_zeros_diagonal(self):
        i2 = FieldMatrix.identity(2, 6)
        assert i2[0][0] == cyc(6, 1) and i2[0][1].is_zero()
        z = FieldMatrix.zeros(2, 3, 6)
        assert z.shape == (2, 3) and z.is_zero()
        d = FieldMatrix.diagonal([cyc(6, 2), cyc(6, 3)], 6)
        assert d[1][1] == cyc(6, 3) and d[1][0].is_zero()

    def test_add_sub_neg_scale(self):
        a = FieldMatrix([[1, 2], [3, 4]], conductor=4)
        b = FieldMatrix([[4, 3], [2, 1]], conductor=4)
        assert (a + b) == FieldMatrix([[5, 5], [5, 5]], conductor=4)
        assert (a - a).is_zero()
        assert (-a + a).is_zero()
        assert a.scale(2) == FieldMatrix([[2, 4], [6, 8]], conductor=4)
        assert 2 * a == a * 2

    def test_matmul_anchor(self):
        i = zeta_power(4, 1)
        a = FieldMatrix([[cyc(4, 1), i], [cyc(4, 0), cyc(4, 1)]])
        b = FieldMatrix([[cyc(4, 1), cyc(4, 0)], [i, cyc(4, 1)]])
        prod = a * b
        # top-left entry is 1 + i*i = 0
        assert prod[0][0].is_zero()
        assert prod[0][1] == i
        assert prod[1][0] == i
        assert prod[1][1] == cyc(4, 1)

    def test_matmul_shape_mismatch(self):
        a = FieldMatrix.zeros(2, 3, 4)
        b = FieldMatrix.zeros(2, 3, 4)
        with pytest.raises(ValueError):
            a * b

    def test_pow(self):
        c = FieldMatrix([[0, 1], [1, 0]], conductor=4)
        assert matrix_power(c, 0) == FieldMatrix.identity(2, 4)
        assert matrix_power(c, 1) == c
        assert matrix_power(c, 2) == FieldMatrix.identity(2, 4)
        assert matrix_power(c, 5) == c
        with pytest.raises(ValueError):
            matrix_power(c, -1)

    def test_transpose(self):
        a = FieldMatrix([[1, 2], [3, 4]], conductor=4)
        assert a.transpose() == FieldMatrix([[1, 3], [2, 4]], conductor=4)

    def test_scalar_detection(self):
        s = FieldMatrix.identity(3, 6).scale(cyc(6, Fraction(2, 3)))
        assert is_scalar(s)
        assert s[0][0] == cyc(6, Fraction(2, 3))
        ns = FieldMatrix.diagonal([cyc(6, 1), cyc(6, 2)], 6)
        assert not is_scalar(ns)
        zeros = FieldMatrix.zeros(2, 2, 6)
        assert is_scalar(zeros) and zeros[0][0] == cyc(6, 0)

    def test_json_round_trip(self):
        a = FieldMatrix([[zeta_power(6, 1), cyc(6, Fraction(1, 2))],
                         [cyc(6, 0), cyc(6, -3)]])
        data = a.to_json()
        assert data[0][0] == {"conductor": 6, "coeffs": ["0", "1"]}
        assert FieldMatrix.from_json(data) == a


class TestRowReduce:
    def test_rank_one_anchor(self):
        i = zeta_power(4, 1)
        m = FieldMatrix([[cyc(4, 1), i], [i, cyc(4, -1)]])
        rref, rank, null = row_reduce(m)
        assert rank == 1
        assert len(null) == 1
        v = null[0]
        # column kernel: m . v = 0 entrywise
        for row in m.rows:
            acc = cyc(4, 0)
            for e, c in zip(row, v):
                acc = acc + e * c
            assert acc.is_zero()

    def test_full_rank(self):
        m = FieldMatrix([[1, 1], [0, 1]], conductor=4)
        rref, rank, null = row_reduce(m)
        assert rank == 2 and null == []
        assert rref == FieldMatrix.identity(2, 4)
        assert is_invertible(m)

    def test_random_consistency(self):
        rng = random.Random(20260823)
        g = zeta_power(6, 1)
        pool = [cyc(6, v) for v in (0, 0, 1, -1, 2, Fraction(1, 2))] + [g, g * g, -g]
        for _ in range(25):
            nrows = rng.randint(1, 5)
            ncols = rng.randint(1, 5)
            m = FieldMatrix([[rng.choice(pool) for _ in range(ncols)]
                             for _ in range(nrows)], 6)
            rref, rank, null = row_reduce(m)
            assert rank + len(null) == ncols
            for v in null:
                for row in m.rows:
                    acc = cyc(6, 0)
                    for e, c in zip(row, v):
                        acc = acc + e * c
                    assert acc.is_zero()
            rref2, rank2, _ = row_reduce(rref)
            assert rank2 == rank and rref2 == rref

    def test_kernel_vector_left(self):
        # rows of m are dependent: row1 = 2*row0
        m = FieldMatrix([[1, 2], [2, 4]], conductor=4)
        v = kernel_vector(m)
        assert v is not None
        acc0 = v[0] * m[0][0] + v[1] * m[1][0]
        acc1 = v[0] * m[0][1] + v[1] * m[1][1]
        assert acc0.is_zero() and acc1.is_zero()
        assert kernel_vector(FieldMatrix.identity(2, 4)) is None


class TestSparseEchelon:
    def test_rank_and_duplicates(self):
        ech = SparseEchelon(4)
        one = cyc(4, 1)
        assert ech.insert({0: one, 1: one}) is not None
        assert ech.insert({1: one}) is not None
        assert ech.insert({0: one, 1: one + one}) is None
        assert ech.rank == 2

    def test_kernel_matches_dense(self):
        rng = random.Random(7)
        pool = [cyc(6, v) for v in (0, 1, -1, 2)] + [zeta_power(6, 1)]
        for _ in range(10):
            nrows, ncols = rng.randint(1, 4), rng.randint(2, 5)
            rows = [[rng.choice(pool) for _ in range(ncols)]
                    for _ in range(nrows)]
            ech = SparseEchelon(6)
            for r in rows:
                ech.insert({j: e for j, e in enumerate(r) if not e.is_zero()})
            basis = ech.kernel_basis(range(ncols))
            _, rank, null = row_reduce(FieldMatrix(rows, 6))
            assert len(basis) == len(null)
            for sol in basis:
                for r in rows:
                    acc = cyc(6, 0)
                    for j, e in enumerate(r):
                        if j in sol:
                            acc = acc + e * sol[j]
                    assert acc.is_zero()

    def test_pivot_rows_are_lead_normalised(self):
        # random sparse and dense rows with rational and cyclotomic
        # entries: every pivot row is stored under its lead, has lead
        # entry exactly one, stores no zero and nothing below its lead,
        # and the inserted rows stay in the echelon's span
        rng = random.Random(11)
        for n in (3, 8, 12, 15):
            phi = len(CycNumber.zero(n).num)
            for _ in range(20):
                ncols = rng.randint(1, 6)
                ech = SparseEchelon(n)
                rows = []
                for _ in range(rng.randint(1, 8)):
                    density = rng.choice((0.3, 1.0))
                    vec = {}
                    for j in range(ncols):
                        coords = [Fraction(rng.choice((0, 1, -2, 6, 9, -15)),
                                           rng.choice((1, 2, 3, 4, 9)))
                                  for _ in range(phi)]
                        if rng.random() < density and any(coords):
                            vec[j] = CycNumber(n, coords)
                    rows.append(vec)
                    admitted = ech.insert(vec)
                    if admitted is not None:
                        assert ech.pivots[min(admitted)] is admitted
                for lead, row in ech.pivots.items():
                    assert min(row) == lead
                    assert row[lead] == CycNumber.one(n)
                    assert not any(v.is_zero() for v in row.values())
                assert all(ech.reduce(vec) == {} for vec in rows)

    def test_one_inverse_per_distinct_lead(self, monkeypatch):
        # rows g e_i + e_{i+1} are admitted as they are, so the leads are
        # g, g, g, 2g, 2g and 3, 3: three distinct values, three inverses
        calls = []
        inverse = CycNumber.inverse

        def counted(self):
            calls.append(self)
            return inverse(self)

        monkeypatch.setattr(CycNumber, "inverse", counted)
        g, one = zeta_power(12, 1), cyc(12, 1)
        leads = [g, g, g, 2 * g, 2 * g, cyc(12, 3), cyc(12, 3)]
        ech = SparseEchelon(12)
        for i, a in enumerate(leads):
            row = ech.insert({i: a, i + 1: one})
            assert row == {i: one, i + 1: inverse(a)}
        assert sorted(map(str, calls)) == sorted(map(str, {g, 2 * g, cyc(12, 3)}))
        # the memo belongs to one echelon: a new one pays again
        calls.clear()
        SparseEchelon(12).insert({0: g, 1: one})
        assert calls == [g]


class TestAlgebraSpan:
    def test_identity_only(self):
        assert algebra_span_dim([FieldMatrix.identity(3, 4)]) == 1

    def test_diagonal_generator(self):
        d = FieldMatrix.diagonal([cyc(4, 1), cyc(4, -1)], 4)
        assert algebra_span_dim([d]) == 2

    def test_cyclic_shift_alone(self):
        zero, one = cyc(3, 0), cyc(3, 1)
        c = FieldMatrix([[zero, one, zero], [zero, zero, one],
                         [one, zero, zero]])
        assert algebra_span_dim([c]) == 3

    def test_weyl_pair_generates_full_algebra(self):
        # shift and clock matrices generate all of M_3
        w = zeta_power(3, 1)
        zero, one = cyc(3, 0), cyc(3, 1)
        c = FieldMatrix([[zero, one, zero], [zero, zero, one],
                         [one, zero, zero]])
        d = FieldMatrix.diagonal([one, w, w * w], 3)
        assert algebra_span_dim([c, d]) == 9
        assert algebra_span_dim([d, c]) == 9

    def test_block_scalars(self):
        # two equal blocks: the commutant is 2x2, the algebra is 4-dim
        zero, one = cyc(4, 0), cyc(4, 1)
        a = FieldMatrix([[zero, one], [one, zero]])
        blk = FieldMatrix([[zero, one, zero, zero], [one, zero, zero, zero],
                           [zero, zero, zero, one], [zero, zero, one, zero]])
        assert algebra_span_dim([a]) == 2
        assert algebra_span_dim([blk]) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            algebra_span_dim([])
        with pytest.raises(ValueError):
            algebra_span_dim([FieldMatrix.zeros(2, 3, 4)])
        with pytest.raises(ValueError):
            algebra_span_dim([FieldMatrix.identity(2, 4),
                              FieldMatrix.identity(3, 4)])


class TestHomSpace:
    def test_commutant_of_distinct_diagonal(self):
        d = FieldMatrix.diagonal([cyc(4, 1), cyc(4, 2)], 4)
        basis = matrix_hom_space([d], [d])
        assert len(basis) == 2
        for p in basis:
            assert d * p == p * d

    def test_swapped_diagonal(self):
        a = FieldMatrix.diagonal([cyc(4, 1), cyc(4, 2)], 4)
        b = FieldMatrix.diagonal([cyc(4, 2), cyc(4, 1)], 4)
        basis = matrix_hom_space([a], [b])
        assert len(basis) == 2
        for p in basis:
            assert a * p == p * b
            # supported on the antidiagonal only
            assert p[0][0].is_zero() and p[1][1].is_zero()

    def test_empty_hom_space(self):
        a = FieldMatrix.diagonal([cyc(4, 1), cyc(4, 2)], 4)
        b = FieldMatrix.diagonal([cyc(4, 3), cyc(4, 5)], 4)
        assert matrix_hom_space([a], [b]) == []

    def test_rectangular(self):
        a = FieldMatrix.diagonal([cyc(4, 1), cyc(4, 2)], 4)
        b = FieldMatrix([[cyc(4, 2)]])
        basis = matrix_hom_space([a], [b])
        assert len(basis) == 1
        p = basis[0]
        assert p.shape == (2, 1)
        assert a * p == p * b

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one generator"):
            matrix_hom_space([], [])

    def test_non_square_generator_rejected(self):
        bad, i3 = FieldMatrix.zeros(2, 3, 4), FieldMatrix.identity(3, 4)
        for mats_a, mats_b in (([bad], [i3]), ([i3], [bad])):
            with pytest.raises(ValueError, match="generators must be square"):
                matrix_hom_space(mats_a, mats_b)

    def test_two_sizes_in_one_list_rejected(self):
        i2, i3 = FieldMatrix.identity(2, 4), FieldMatrix.identity(3, 4)
        for mats_a, mats_b in (([i2, i3], [i2, i2]), ([i2, i2], [i2, i3])):
            with pytest.raises(ValueError, match="generator size mismatch"):
                matrix_hom_space(mats_a, mats_b)

    def test_lists_over_different_fields_rejected(self):
        with pytest.raises(ValueError, match="generator conductor mismatch"):
            matrix_hom_space([FieldMatrix.identity(2, 4)],
                             [FieldMatrix.identity(2, 6)])


# --- the sparse layout against schoolbook dense arithmetic over .rows ------

def scalars(conductor):
    # half of the draws are +-1 or +-zeta, so that sums of products cancel
    phi = len(CycNumber.zero(conductor).num)
    coord = st.sampled_from((0, 1, -1, 2, Fraction(1, 2)))
    g = zeta_power(conductor, 1)
    return st.one_of(
        st.sampled_from((cyc(conductor, 1), cyc(conductor, -1), g, -g)),
        st.lists(coord, min_size=phi, max_size=phi).map(
            lambda coords: CycNumber(conductor, coords)))


@st.composite
def matrices(draw, conductor, nrows, ncols):
    # density 0 gives the zero matrix and 4 a full one
    density = draw(st.integers(0, 4))
    zero = CycNumber.zero(conductor)
    return FieldMatrix([[draw(scalars(conductor))
                         if draw(st.integers(0, 3)) < density else zero
                         for _ in range(ncols)] for _ in range(nrows)],
                       conductor)


def dense_mul(a, b):
    zero = a[0][0] - a[0][0]
    return [[sum((x * y for x, y in zip(row, col)), zero) for col in zip(*b)]
            for row in a]


def dense_pow(a, e):
    zero = a[0][0] - a[0][0]
    out = [[zero + 1 if i == j else zero for j in range(len(a))]
           for i in range(len(a))]
    for _ in range(e):
        out = dense_mul(out, a)
    return out


def same(mat, dense):
    # the dense view and the stored entries: no zero may be stored
    return ([list(row) for row in mat.rows] == dense
            and mat == FieldMatrix(dense, mat.conductor))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), conductor=st.sampled_from((4, 6, 12)),
       n=st.integers(1, 4), k=st.integers(1, 4), m=st.integers(1, 4),
       e=st.integers(0, 3))
def test_property_sparse_ops_match_dense(data, conductor, n, k, m, e):
    a = data.draw(matrices(conductor, n, k))
    a2 = data.draw(matrices(conductor, n, k))
    b = data.draw(matrices(conductor, k, m))
    sq = data.draw(matrices(conductor, n, n))
    c = data.draw(scalars(conductor))
    ra, ra2 = a.rows, a2.rows
    assert same(a * b, dense_mul(ra, b.rows))
    assert same(a + a2, [[x + y for x, y in zip(r, r2)]
                         for r, r2 in zip(ra, ra2)])
    assert same(a - a2, [[x - y for x, y in zip(r, r2)]
                         for r, r2 in zip(ra, ra2)])
    assert same(a.scale(c), [[x * c for x in r] for r in ra])
    assert same(a.transpose(), [list(col) for col in zip(*ra)])
    assert same(matrix_power(sq, e), dense_pow(sq.rows, e))
    assert a.is_zero() == all(x.is_zero() for r in ra for x in r)
    assert FieldMatrix(ra, conductor) == a
    assert FieldMatrix.from_json(a.to_json()) == a
    # a matrix reached another way holds its row dicts in another order
    again = (a - a2) + a2
    assert again == a and hash(again) == hash(a)
    dense = {(i, j): x for i, r in enumerate(ra) for j, x in enumerate(r)}
    nonzero = {key: x for key, x in dense.items() if not x.is_zero()}
    assert (FieldMatrix.from_entries(n, k, dense, conductor)
            == FieldMatrix.from_entries(n, k, nonzero, conductor) == a)


# --- row_reduce against sympy's rref over the same field --------------------

@functools.lru_cache(maxsize=None)
def sympy_field(conductor):
    # sympy picks zeta_N itself as the generator, with minimal polynomial
    # Phi_N, so a power-basis coordinate list is an element of this field
    return sympy.QQ.algebraic_field(sympy.exp(2 * sympy.pi * sympy.I / conductor))


def to_sympy(field, x):
    return field.new([sympy.QQ(c, x.den) for c in reversed(x.num)])


def dense_conjugate(mat, entries):
    """S mat adj(S) for the integer matrix S with the given rows, or None
    when S is singular: a nonzero multiple of S mat S^-1, in a dense basis."""
    s = sympy.Matrix(entries)
    if s.det() == 0:
        return None
    cond = mat.conductor
    return (FieldMatrix(entries, cond) * mat
            * FieldMatrix(s.adjugate().tolist(), cond))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), conductor=st.sampled_from((1, 4, 6, 12)),
       n=st.integers(1, 6), m=st.integers(1, 6))
def test_property_row_reduce_matches_sympy(data, conductor, n, m):
    mat = data.draw(matrices(conductor, n, m))
    if data.draw(st.booleans()):
        # a square matrix conjugated by a random integer matrix: the dense
        # bases on which the entries of an elimination can blow up
        d = data.draw(st.integers(1, 8))
        s = data.draw(st.lists(st.lists(st.integers(-3, 3), min_size=d,
                                        max_size=d), min_size=d, max_size=d))
        dense = dense_conjugate(data.draw(matrices(conductor, d, d)), s)
        if dense is not None:
            mat, n, m = dense, d, d
    field = sympy_field(conductor)
    want, pivots = DomainMatrix([[to_sympy(field, x) for x in row]
                                 for row in mat.rows], (n, m), field).rref()
    want = want.to_list()
    rref, rank, null = row_reduce(mat)
    assert rref.shape == (n, m)
    assert [[to_sympy(field, x) for x in row] for row in rref.rows] == want
    assert rank == len(pivots)
    # the nullspace is one-hot on the free columns and solves the rref
    expect = []
    for f in (c for c in range(m) if c not in pivots):
        vec = [field.zero] * m
        vec[f] = field.one
        for t, c in enumerate(pivots):
            vec[c] = -want[t][f]
        expect.append(vec)
    assert [[to_sympy(field, x) for x in v] for v in null] == expect


# --- module-file JSON against the dense formulas it replaced ---------------

# coordinate texts as a module file may spell them: canonical, and not
# ("-0" and "0/5" are zero, "2/4" and "007" are not in lowest terms)
COORD_TEXTS = ("0", "0", "0", "-0", "0/5", "1", "-1", "3", "2/4", "-7/3",
               "007", "10/1")


@st.composite
def json_matrices(draw, conductor, nrows, ncols):
    # density 0 gives only all-"0" entries and 4 draws every entry's texts
    density = draw(st.integers(0, 4))
    phi = len(CycNumber.zero(conductor).num)
    coords = st.lists(st.sampled_from(COORD_TEXTS), min_size=phi, max_size=phi)
    return [[{"conductor": conductor,
              "coeffs": draw(coords) if draw(st.integers(0, 3)) < density
              else ["0"] * phi}
             for _ in range(ncols)] for _ in range(nrows)]


@settings(max_examples=150, deadline=None)
@given(data=st.data(), conductor=st.sampled_from((1, 4, 6, 12)),
       n=st.integers(1, 4), m=st.integers(1, 4))
def test_property_json_matches_dense(data, conductor, n, m):
    a = data.draw(matrices(conductor, n, m))
    assert a.to_json() == [[e.to_json() for e in row] for row in a.rows]
    d = data.draw(json_matrices(conductor, n, m))
    dense = FieldMatrix([[CycNumber(e["conductor"], [Fraction(s) for s in e["coeffs"]])
                          for e in row] for row in d])
    assert FieldMatrix.from_json(d) == dense
