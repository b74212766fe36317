"""Module builders, simplicity, classification, and isomorphism tests."""

import dataclasses
import functools
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qheisenberg import linalg, modular, reps
from qheisenberg.arith import derive_params, ord_formula, pi_degree, valid_pairs
from qheisenberg.cyclotomic import (CycNumber, cyclotomic_polynomial,
                                    nth_root_in_field, roots_of_unity,
                                    zeta_power)
from qheisenberg.pbw import pq_number
from qheisenberg.linalg import (FieldMatrix, SparseEchelon, algebra_span_dim,
                                is_invertible, left_kernel, matrix_hom_space,
                                row_reduce, spin)
from qheisenberg.reps import (KIND_ONE_DIM, KIND_QPLANE_THETA, KIND_QPLANE_Z,
                              KIND_SCALARS, KIND_V1, KIND_V2, KIND_V3,
                              THETA_TORSION, Z_TORSION, MatrixRep,
                              ModuleDescriptor, build_from_descriptor,
                              build_one_dim,
                              build_qplane, build_v1, build_v2, build_v3,
                              classify, direct_sum, find_intertwiner,
                              intertwiner, is_simple, iso_test,
                              module_dimension, span_dim, theta_matrix,
                              verify_relations)
from qheisenberg.linalg import (_certify_simple, _norton, _refined_weights,
                                _spin_mod_p)

from matrix_helpers import is_scalar, joint_weights, matrix_power

P23 = derive_params(2, 3, 1, 1)
P44 = derive_params(4, 4, 1, 1)
P24 = derive_params(2, 4, 1, 1)
P13 = derive_params(1, 3)


def all_params(max_l):
    out = []
    for m in range(1, max_l + 1):
        for n in range(1, max_l + 1):
            for k1, k2 in valid_pairs(m, n):
                params = derive_params(m, n, k1, k2)
                if params.l <= max_l:
                    out.append(params)
    return out


def scalar_pool(params):
    g = zeta_power(params.conductor, 1)
    return [CycNumber.from_rational(params.conductor, v)
            for v in (1, 2, 3, Fraction(1, 2), Fraction(3, 2), -1)] + \
           [g ** j for j in range(1, params.l)] + \
           [CycNumber.from_rational(params.conductor, 2) * g]


def sample_scalars(params, rng, count):
    pool = scalar_pool(params)
    return [rng.choice(pool) for _ in range(count)]


def families(params, rng):
    """One canonical build of each family, with sampled scalars."""
    mu, lam, gam, a, b = sample_scalars(params, rng, 5)
    return [build_v1(params, mu, lam, gam), build_v2(params, mu, lam),
            build_v3(params, lam), build_qplane(params, Z_TORSION, a, b),
            build_qplane(params, THETA_TORSION, a, b)]


def spin_span(mats):
    """The oracle for `algebra_span_dim`: the exact spin of the whole
    identity over a `SparseEchelon`, with no block split."""
    d, cond = mats[0].shape[0], mats[0].conductor
    one = CycNumber.one(cond)
    return spin([g._rows for g in mats], {i * d + i: one for i in range(d)},
                d * d, SparseEchelon(cond))


def exact_simple(rep):
    ident = FieldMatrix.identity(rep.d, rep.params.conductor)
    return spin_span([rep.Mx, rep.My, rep.Mz, ident]) == rep.d ** 2


def gens(rep):
    return [rep.Mx, rep.My, rep.Mz]


def identity_seed(d):
    """The d x d identity mod P as the seed of `linalg.spin`: key r*d + c."""
    return {i * d + i: 1 for i in range(d)}


class TestBuilders:
    def test_relations_sweep(self):
        rng = random.Random(20260823)
        for params in all_params(12):
            d_v3 = ord_formula(params.m, params.n, params.k1, params.k2)
            for _ in range(3):
                mu, lam, gam, a, b = sample_scalars(params, rng, 5)
                reps = [
                    (build_v1(params, mu, lam, gam), params.l),
                    (build_v2(params, mu, lam), params.l),
                    (build_v3(params, lam), d_v3),
                    (build_qplane(params, Z_TORSION, a, b), params.n),
                    (build_qplane(params, THETA_TORSION, a, b), params.m),
                ]
                for rep, d in reps:
                    assert rep.d == d
                    assert verify_relations(rep).ok, \
                        (params.m, params.n, params.k1, params.k2, rep.d)

    def test_theta_action_v1(self):
        for params in (P23, P44, P24):
            gam = zeta_power(params.conductor, 1)
            rep = build_v1(params, 2, 3, gam)
            qinv = params.q.inverse()
            want = FieldMatrix.diagonal([qinv ** k * gam
                                         for k in range(params.l)],
                                        params.conductor)
            assert theta_matrix(rep) == want

    def test_theta_action_v2(self):
        for params in (P23, P44, P24):
            lam = CycNumber.from_rational(params.conductor, Fraction(3, 2))
            rep = build_v2(params, 2, lam)
            want = FieldMatrix.diagonal([lam * params.q ** k
                                         for k in range(params.l)],
                                        params.conductor)
            assert theta_matrix(rep) == want

    def test_theta_action_qplane(self):
        rep = build_qplane(P23, THETA_TORSION, 2, 3)
        assert theta_matrix(rep).is_zero()
        rep = build_qplane(P23, Z_TORSION, 2, 3)
        assert not theta_matrix(rep).is_zero()
        assert rep.Mz.is_zero()

    def test_cycle_powers(self):
        mu = zeta_power(6, 1)
        rep = build_v1(P23, mu, 2, 3)
        power = matrix_power(rep.Mx, 6)
        assert is_scalar(power) and power[0][0] == mu ** 6
        rep = build_v2(P23, mu, 2)
        assert matrix_power(rep.Mx, 6).is_zero()
        power = matrix_power(rep.My, 6)
        assert is_scalar(power) and power[0][0] == mu ** 6

    def test_scalar_validation(self):
        with pytest.raises(ValueError):
            build_v1(P23, 0, 1, 1)
        with pytest.raises(ValueError):
            build_v2(P23, 1, CycNumber.zero(6))
        with pytest.raises(ValueError):
            build_v3(P23, CycNumber.one(5))
        with pytest.raises(TypeError):
            build_v3(P23, 0.5)
        with pytest.raises(ValueError):
            build_qplane(P23, "SIDEWAYS", 1, 1)

    def test_bad_rep_residuals(self):
        rep = build_v1(P44, 1, 1, 2)
        rows = [list(r) for r in rep.Mx.rows]
        rows[0][0] = rows[0][0] + CycNumber.one(4)
        broken = MatrixRep(P44, rep.d, FieldMatrix(rows, 4), rep.My, rep.Mz)
        check = verify_relations(broken)
        assert not check.ok
        assert set(check.residuals) == {"zx", "zy", "yx"}
        assert not check.residuals["yx"].is_zero()
        good = verify_relations(rep)
        assert good.ok
        assert all(r.is_zero() for r in good.residuals.values())

    def test_direct_sum_params_mismatch(self):
        with pytest.raises(ValueError):
            direct_sum(build_v3(P44, 1), build_v3(P24, 1))


def count_products(monkeypatch, keep=lambda a, b: True):
    """Record the matrix products a * b that pass keep."""
    calls = []
    inner = FieldMatrix._matmul

    def counted(a, b):
        if keep(a, b):
            calls.append((a, b))
        return inner(a, b)

    monkeypatch.setattr(FieldMatrix, "_matmul", counted)
    return calls


def perturbed(rep):
    """rep with Mx[0][0] raised by one: the "yx" relation fails."""
    return MatrixRep(rep.params, rep.d,
                     rep.Mx + FieldMatrix.from_entries(
                         rep.d, rep.d, {(0, 0): 1}, rep.params.conductor),
                     rep.My, rep.Mz)


def fresh(rep):
    return MatrixRep(rep.params, rep.d, rep.Mx, rep.My, rep.Mz)


def module_answers(rep):
    check = verify_relations(rep)
    try:
        simple = is_simple(rep)
    except ValueError as exc:
        simple = str(exc)
    return (check.ok, check.residuals, theta_matrix(rep), simple,
            span_dim(rep))


class TestModuleMemo:
    """Theta, a passing relation check and the certified span, per object."""

    def test_theta_is_formed_once(self):
        rep = build_v1(P23, 2, 3, 5)
        assert theta_matrix(rep) is theta_matrix(rep)

    def test_relations_and_theta_share_products(self, monkeypatch):
        v1 = build_v1(P44, 2, 3, 5)
        products = count_products(monkeypatch)
        assert verify_relations(v1).ok
        theta_matrix(v1)
        assert len(products) <= 6
        del products[:]
        check = verify_relations(v1)
        assert products == []
        assert check.ok and set(check.residuals) == {"zx", "zy", "yx"}
        assert all(r.is_zero() and r.shape == (v1.d, v1.d)
                   for r in check.residuals.values())

    def test_failing_check_is_recomputed(self):
        broken = perturbed(build_v1(P44, 1, 1, 2))
        first = verify_relations(broken)
        second = verify_relations(broken)
        assert not first.ok and not second.ok
        assert not first.residuals["yx"].is_zero()
        assert first.residuals["yx"] == second.residuals["yx"]
        first.residuals.clear()
        assert not verify_relations(broken).residuals["yx"].is_zero()
        assert set(second.residuals) == {"zx", "zy", "yx"}

    def test_replace_starts_without_memo(self):
        rep = build_v1(P44, 1, 1, 2)
        assert verify_relations(rep).ok
        assert is_simple(rep)
        other = dataclasses.replace(rep, Mx=perturbed(rep).Mx)
        assert not verify_relations(other).ok
        assert theta_matrix(other) != theta_matrix(rep)
        with pytest.raises(ValueError, match="relation check failed"):
            is_simple(other)

    def test_memo_is_invisible(self):
        rep = build_v2(P23, 2, 3)
        before = (repr(rep), hash(rep), rep.to_json())
        classify(rep)
        span_dim(rep)
        assert (repr(rep), hash(rep), rep.to_json()) == before
        assert rep == fresh(rep) and hash(rep) == hash(fresh(rep))

    def test_classify_forms_theta_once(self, monkeypatch):
        # theta of the input is My Mx minus a multiple of Mx My, and every
        # path that forms it multiplies My by Mx
        rep = build_v1(P23, 2, 3, 5)
        products = count_products(monkeypatch,
                                  lambda a, b: a is rep.My and b is rep.Mx)
        assert classify(rep).kind == KIND_V1
        assert len(products) == 1

    def test_certificate_runs_once_per_module(self, monkeypatch):
        rep = build_v1(P23, 2, 3, 5)
        calls = []

        def counted(gens, extra):
            calls.append(gens)
            return _certify_simple(gens, extra)

        monkeypatch.setattr("qheisenberg.reps._certify_simple", counted)
        assert is_simple(rep)
        classify(rep)
        assert span_dim(rep) == rep.d ** 2
        assert len(calls) == 1
        classify(fresh(rep))
        assert len(calls) == 2

    def test_span_after_a_submodule_is_kept(self, monkeypatch):
        # V3 + V3 and a sum of two OneDim modules in the builders' basis:
        # the spin of e_0 finds a submodule, so the ladder gives no value
        # and the first span_dim takes the exact span; later calls, and
        # is_simple on the sum with d <= l, read it back
        calls = []
        exact_span = algebra_span_dim

        def counted(mats):
            calls.append(len(mats))
            return exact_span(mats)

        monkeypatch.setattr(reps, "algebra_span_dim", counted)
        for rep, span in ((direct_sum(build_v3(P23, 1), build_v3(P23, 1)), 36),
                          (direct_sum(build_one_dim(P23, 1, 0, 0),
                                      build_one_dim(P23, 2, 0, 0)), 2)):
            del calls[:]
            assert span_dim(rep) == span
            assert calls == [3]
            assert span_dim(rep) == span
            assert not is_simple(rep)
            assert calls == [3]

    def test_warm_answers_match_fresh_object(self):
        # builders of every kind with l <= 8, integer conjugates with
        # d <= 8 and perturbed modules: the answers on an object whose
        # memo is warm (theta, the span or the relation check asked
        # first) are the answers on a fresh object with the same matrices
        rng = random.Random(14)
        cases = []
        for params in rng.sample(all_params(8), 12):
            mods = families(params, rng)
            mods.append(build_one_dim(params, *sample_scalars(params, rng, 1),
                                      0, 0))
            cases += mods + [perturbed(mods[0]), perturbed(mods[1])]
        assert sum(not verify_relations(fresh(rep)).ok for rep in cases) == 24
        cases += [integer_conjugate(build_v1(params, 2, 3, 5), rng)
                  for params in (P23, P24, derive_params(2, 8))]
        cases.append(integer_conjugate(build_v3(P44, 3), rng))
        for i, rep in enumerate(cases):
            (theta_matrix, span_dim, verify_relations)[i % 3](rep)
            warm = module_answers(rep)
            assert module_answers(rep) == warm
            assert module_answers(fresh(rep)) == warm


def dense_product(a, b):
    """a * b written out entry by entry over the dense rows."""
    cond = a.conductor
    cols = list(zip(*b.rows))
    rows = [[sum((x * y for x, y in zip(row, col)), CycNumber.zero(cond))
             for col in cols] for row in a.rows]
    return FieldMatrix(rows, cond)


def reference_residuals(rep):
    """The three residuals from the products of both sides of each relation."""
    params = rep.params
    mx, my, mz = rep.Mx, rep.My, rep.Mz
    return {
        "zx": dense_product(mz, mx) - dense_product(mx, mz).scale(
            params.power(-1, 0)),
        "zy": dense_product(mz, my) - dense_product(my, mz).scale(params.p),
        "yx": dense_product(my, mx) - dense_product(mx, my).scale(params.q)
        - mz,
    }


def one_entry_changes(rep, rng):
    """rep with one entry of Mx, of My, of the diagonal of Mz and (for
    d > 1) off the diagonal of Mz raised by a nonzero scalar."""
    d, cond = rep.d, rep.params.conductor
    bump = sample_scalars(rep.params, rng, 1)[0]
    k = rng.randrange(d)
    places = [("Mx", rng.randrange(d), rng.randrange(d)),
              ("My", rng.randrange(d), rng.randrange(d)), ("Mz", k, k)]
    if d > 1:
        places.append(("Mz", k, (k + 1 + rng.randrange(d - 1)) % d))
    return [dataclasses.replace(rep, **{name: getattr(rep, name)
                                        + FieldMatrix.from_entries(
                                            d, d, {(i, j): bump}, cond)})
            for name, i, j in places]


class TestWeightResiduals:
    """verify_relations reads the z relations entry by entry on a diagonal
    Mz; its verdict and residuals are the written-out products' either way."""

    def assert_matches_reference(self, rep):
        check = verify_relations(fresh(rep))
        want = reference_residuals(rep)
        assert check.residuals == want, (rep.params.m, rep.params.n, rep.d)
        assert check.ok == all(r.is_zero() for r in want.values())
        return check.ok

    def test_property_residuals_match_products(self):
        rng = random.Random(22)
        seen = Counter()
        for params in all_params(6):
            cond = params.conductor
            mods = families(params, rng)
            x, y = sample_scalars(params, rng, 2)
            mods += [build_one_dim(params, x, 0, y),
                     build_qplane(params, Z_TORSION, x, y),
                     direct_sum(mods[0], mods[2]), direct_sum(mods[1], mods[4])]
            # V1's Mx and My under a diagonal Mz with every other weight
            # zero, and under Mz = 0
            v1 = mods[0]
            mods.append(dataclasses.replace(v1, Mz=FieldMatrix.diagonal(
                [v1.Mz[i][i] if i % 2 else 0 for i in range(v1.d)], cond)))
            mods.append(dataclasses.replace(v1, Mz=FieldMatrix.zeros(
                v1.d, v1.d, cond)))
            for rep in list(mods):
                mods += one_entry_changes(rep, rng)
            mods += [integer_conjugate(rep, rng) for rep in mods[:2]]
            for rep in mods:
                ok = self.assert_matches_reference(rep)
                seen[ok, rep.Mz.is_diagonal()] += 1
        # both verdicts on both paths
        assert len(seen) == 4, seen

    def test_weight_module_forms_only_the_theta_products(self, monkeypatch):
        # QPlaneTheta's Mz is a multiple of Mx My, a shift, so it alone
        # takes the four products of the z relations
        products = count_products(monkeypatch)
        for rep in families(P44, random.Random(5)):
            del products[:]
            assert verify_relations(fresh(rep)).ok
            theta = [(rep.My, rep.Mx), (rep.Mx, rep.My)]
            if rep.Mz.is_diagonal():
                assert products == theta
            else:
                assert products[:2] == theta and len(products) == 6


class TestSimplicity:
    def test_simple_sweep(self):
        rng = random.Random(11)
        for params in all_params(8):
            mu, lam, gam, a, b = sample_scalars(params, rng, 5)
            d_v3 = ord_formula(params.m, params.n, params.k1, params.k2)
            cases = [
                (build_v1(params, mu, lam, gam), params.l),
                (build_v2(params, mu, lam), params.l),
                (build_v3(params, lam), d_v3),
                (build_qplane(params, Z_TORSION, a, b), params.n),
                (build_qplane(params, THETA_TORSION, a, b), params.m),
            ]
            for rep, d in cases:
                assert rep.d == d
                assert is_simple(rep), (params.m, params.n, d)
                # the exact span agrees, and reduction mod P can only
                # lower its rank
                ident = FieldMatrix.identity(d, params.conductor)
                exact = algebra_span_dim(gens(rep) + [ident])
                assert exact == d * d
                assert _spin_mod_p(gens(rep), identity_seed(d), d * d) <= exact

    def test_span_anchor_v1(self):
        rep = build_v1(P23, zeta_power(6, 1), 2, 3)
        ident = FieldMatrix.identity(6, 6)
        assert algebra_span_dim([rep.Mx, rep.My, rep.Mz, ident]) == 36

    def test_v3_dimension_two(self):
        rep = build_v3(P44, zeta_power(4, 1))
        assert rep.d == 2
        assert is_simple(rep)

    def test_direct_sum_not_simple(self):
        rep = build_v3(P44, 1)
        assert not is_simple(direct_sum(rep, rep))
        v2 = build_v2(P23, 1, 2)
        assert not is_simple(direct_sum(v2, v2))

    def test_broken_rep_raises(self):
        rep = build_v2(P23, 1, 2)
        rows = [list(r) for r in rep.Mx.rows]
        rows[0][3] = CycNumber.one(6)
        broken = MatrixRep(P23, rep.d, FieldMatrix(rows, 6), rep.My, rep.Mz)
        with pytest.raises(ValueError):
            is_simple(broken)

    def test_kaplansky_bound_and_attainment(self):
        rng = random.Random(12)
        for params in all_params(8):
            bound = pi_degree(params.m, params.n)
            mu, lam, gam, a, b = sample_scalars(params, rng, 5)
            dims = []
            for rep in (build_v1(params, mu, lam, gam),
                        build_v2(params, mu, lam),
                        build_v3(params, lam),
                        build_qplane(params, Z_TORSION, a, b),
                        build_qplane(params, THETA_TORSION, a, b)):
                assert rep.d <= bound
                dims.append(rep.d)
            # the x-invertible family always attains the bound
            assert dims[0] == bound == params.l

    def test_maximality_dichotomy(self):
        seen_incomparable = 0
        seen_divides = 0
        for params in all_params(12):
            o = ord_formula(params.m, params.n, params.k1, params.k2)
            m, n, l = params.m, params.n, params.l
            if o == l and n % m != 0 and m % n != 0:
                zt = build_qplane(params, Z_TORSION, 1, 2)
                tt = build_qplane(params, THETA_TORSION, 1, 2)
                assert zt.d < l and tt.d < l
                seen_incomparable += 1
            if n % m == 0:
                zt = build_qplane(params, Z_TORSION, 1, 2)
                assert zt.d == n == l
                seen_divides += 1
        assert seen_incomparable > 0 and seen_divides > 0

    def test_central_scalars(self):
        for params in (P23, P44, P24):
            l, m, n = params.l, params.m, params.n
            g = zeta_power(params.conductor, 1)
            reps = [build_v1(params, g, 2, 3), build_v2(params, 2, g),
                    build_v3(params, g), build_qplane(params, Z_TORSION, g, 2),
                    build_qplane(params, THETA_TORSION, 2, g)]
            for rep in reps:
                for mat, e in ((rep.Mx, l), (rep.My, l), (rep.Mz, m),
                               (theta_matrix(rep), n)):
                    assert is_scalar(matrix_power(mat, e))


def conjugators(params, d):
    """A permutation-diagonal and a shear change of basis with inverses."""
    cond = params.conductor
    one = CycNumber.one(cond)
    zero = CycNumber.zero(cond)
    g = zeta_power(cond, 1)
    perm = [(1 - i) % d for i in range(d)]
    diag = [g ** (i % 3) if i % 2 else one for i in range(d)]
    rows = [[diag[i] if perm[i] == j else zero for j in range(d)]
            for i in range(d)]
    mats = [FieldMatrix(rows, cond)]
    rows = [[one if i == j else zero for j in range(d)] for i in range(d)]
    rows[0][d - 1] = one
    mats.append(FieldMatrix(rows, cond))
    return [(u, inverse(u)) for u in mats]


def inverse(u):
    d, cond = u.shape[0], u.conductor
    aug = FieldMatrix([list(u.rows[i])
                       + list(FieldMatrix.identity(d, cond).rows[i])
                       for i in range(d)], cond)
    rref, rank, _ = row_reduce(aug)
    assert rank == d
    return FieldMatrix([list(rref.rows[i])[d:] for i in range(d)], cond)


def integer_conjugate(rep, rng):
    """rep in a dense basis: S M S^-1 for a random invertible integer S, entries in [-3, 3]."""
    d, cond = rep.d, rep.params.conductor
    while True:
        s = FieldMatrix([[rng.randint(-3, 3) for _ in range(d)]
                         for _ in range(d)], cond)
        if row_reduce(s)[1] == d:
            return conjugate(rep, inverse(s), s)


def conjugate(rep, u, ui):
    return MatrixRep(rep.params, rep.d, ui * rep.Mx * u, ui * rep.My * u,
                     ui * rep.Mz * u)


class TestClassify:
    def test_round_trip_five_per_kind(self):
        rng = random.Random(20260823)
        cases = {
            KIND_V1: [(p, ModuleDescriptor(KIND_V1, mu=mu, lam=lam, gamma=g))
                      for p in (P23, P44, P24, P13, P23)
                      for mu, lam, g in [tuple(sample_scalars(p, rng, 3))]],
            KIND_V2: [(p, ModuleDescriptor(KIND_V2, mu=mu, lam=lam))
                      for p in (P23, P44, P24, P13, P44)
                      for mu, lam in [tuple(sample_scalars(p, rng, 2))]],
            KIND_V3: [(p, ModuleDescriptor(KIND_V3, lam=lam))
                      for p in (P23, P44, P24, P13, P23)
                      for lam in [sample_scalars(p, rng, 1)[0]]],
            KIND_QPLANE_Z: [(p, ModuleDescriptor(KIND_QPLANE_Z, mu=b, gamma=a))
                            for p in (P23, P44, P24, P13, P24)
                            for a, b in [tuple(sample_scalars(p, rng, 2))]],
            # theta-torsion at m = 1 is one-dimensional, so every sample
            # here keeps m > 1
            KIND_QPLANE_THETA: [(p, ModuleDescriptor(KIND_QPLANE_THETA,
                                                     mu=a, lam=b))
                                for p in (P23, P44, P24, P23, P44)
                                for a, b in [tuple(sample_scalars(p, rng, 2))]],
        }
        for kind, entries in cases.items():
            assert len(entries) == 5
            for params, desc in entries:
                rep = build_from_descriptor(params, desc)
                got = classify(rep)
                assert got.kind == kind
                ok, k = iso_test(kind, got, desc, params)
                assert ok, (kind, params.m, params.n, desc, got)
                p_mat = intertwiner(kind, got, desc, k, params)
                assert is_invertible(p_mat)

    def test_classify_qplane_kinds(self):
        rep = build_qplane(P23, Z_TORSION, 2, 3)
        assert classify(rep).kind == KIND_QPLANE_Z
        rep = build_qplane(P23, THETA_TORSION, 2, 3)
        assert classify(rep).kind == KIND_QPLANE_THETA

    def test_classify_one_dim(self):
        rep = build_one_dim(P23, 3, 0, 0)
        assert verify_relations(rep).ok
        desc = classify(rep)
        assert desc.kind == KIND_ONE_DIM
        assert desc.mu == CycNumber.from_rational(6, 3)
        assert desc.lam.is_zero() and desc.gamma.is_zero()
        rep = build_one_dim(P23, 0, 0, zeta_power(6, 1))
        assert verify_relations(rep).ok
        assert classify(rep).kind == KIND_ONE_DIM

    def test_classify_scrambled_bases(self):
        descs = [ModuleDescriptor(KIND_V1, mu=zeta_power(6, 1),
                                  lam=CycNumber.from_rational(6, 2),
                                  gamma=CycNumber.from_rational(6, 3)),
                 ModuleDescriptor(KIND_V2, mu=CycNumber.from_rational(6, 3),
                                  lam=zeta_power(6, 1)),
                 ModuleDescriptor(KIND_V3, lam=zeta_power(6, 1) + 1)]
        for desc in descs:
            rep = build_from_descriptor(P23, desc)
            for u, ui in conjugators(P23, rep.d):
                scrambled = conjugate(rep, u, ui)
                assert verify_relations(scrambled).ok
                got = classify(scrambled)
                assert got.kind == desc.kind
                ok, _ = iso_test(desc.kind, got, desc, P23)
                assert ok
        # dense round trips of every family at l <= 6
        rng = random.Random(47)
        for params in all_params(6):
            for rep in families(params, rng):
                want = classify(rep)
                got = classify(integer_conjugate(rep, rng))
                assert got.kind == want.kind
                assert iso_test(want.kind, got, want, params)[0], \
                    (params, want, got)

    def test_classify_returns_builder_weights(self):
        # the representative rule: on a builder's own basis classify
        # returns the builder's weight slots, the weights of v_0
        rng = random.Random(46)
        checked = 0
        for params in all_params(8):
            mu, lam, gam, a, b = sample_scalars(params, rng, 5)
            cases = [
                (build_v1(params, mu, lam, gam), KIND_V1,
                 {"lam": lam, "gamma": gam}),
                (build_v2(params, mu, lam), KIND_V2, {"lam": lam}),
                (build_v3(params, lam), KIND_V3, {"lam": lam}),
                (build_qplane(params, Z_TORSION, a, b), KIND_QPLANE_Z,
                 {"gamma": a}),
                (build_qplane(params, THETA_TORSION, a, b), KIND_QPLANE_THETA,
                 {"lam": b}),
            ]
            for rep, kind, slots in cases:
                got = classify(rep)
                if rep.d == 1:
                    assert got.kind == KIND_ONE_DIM
                    continue
                assert got.kind == kind
                assert {slot: getattr(got, slot) for slot in slots} == slots, \
                    (params, kind)
                checked += 1
        assert checked == 688

    def test_classify_v2_short_orbit(self):
        # ord(pq) = 2 < l = 4: several weight scalars describe this module;
        # the canonical build must round-trip to its own lambda
        lam = CycNumber.from_rational(4, 2)
        rep = build_v2(P44, 1, lam)
        assert classify(rep).lam == lam

    def test_classify_rejects_non_simple(self):
        rep = build_v3(P44, 1)
        with pytest.raises(ValueError):
            classify(direct_sum(rep, rep))

    @pytest.mark.parametrize("kind, mu", [
        (KIND_V1, 10 ** 20 + 1), (KIND_V2, 10 ** 20 + 1),
        (KIND_V1, Fraction(10 ** 15 + 3, 7)), (KIND_V2, Fraction(10 ** 15 + 3, 7)),
        (KIND_V1, 10 ** 17 + 3), (KIND_V2, 10 ** 17 + 3)])
    def test_classify_large_cycle_scalar(self, kind, mu):
        # the cycle scalar is the exact l-th root of Mx^l or My^l; these
        # powers lie beyond the 53-bit precision of a float
        desc = ModuleDescriptor(kind, mu=CycNumber.from_rational(6, mu),
                                lam=CycNumber.from_rational(6, 2),
                                gamma=(CycNumber.from_rational(6, 3)
                                       if kind == KIND_V1 else None))
        got = classify(build_from_descriptor(P23, desc))
        assert got.kind == kind and got.mu == desc.mu
        assert iso_test(kind, got, desc, P23)[0]

    def test_classify_cycle_scalar_beyond_float_range(self):
        # My^6 = mu^6 is about 10^360, above the largest float
        mu = 10 ** 60 + 7
        got = classify(build_v2(P23, mu, 2))
        assert got.kind == KIND_V2
        assert got.mu == CycNumber.from_rational(6, mu)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_v1(P23, 2 * zeta_power(6, 1) + Fraction(1, 3), 2, 3),
         "classify V1: Mx^6 has no root in the working field"),
        (lambda: build_v2(P23, 2 * zeta_power(6, 1) + Fraction(1, 3), 2),
         "classify V2: My^6 has no root in the working field"),
    ], ids=["V1", "V2"])
    def test_classify_error_names_stage(self, build, message):
        with pytest.raises(ValueError) as err:
            classify(build())
        assert str(err.value) == message

    @pytest.mark.parametrize("rep, message", [
        (direct_sum(build_one_dim(P23, 2, 0, 0), build_one_dim(P23, 3, 0, 0)),
         "classify dimension 2: z and theta both vanish on a module of "
         "dimension > 1"),
        (direct_sum(build_v1(P23, 1, 2, 3), build_one_dim(P23, 2, 0, 0)),
         "classify torsionfree, dimension 7: z or theta acts neither by zero "
         "nor invertibly"),
        (direct_sum(build_qplane(P23, Z_TORSION, 2, 3),
                    build_qplane(P23, Z_TORSION, 2, 3)),
         "z-torsion module of dimension 6, expected 3"),
        (direct_sum(build_qplane(P23, THETA_TORSION, 2, 3),
                    build_qplane(P23, THETA_TORSION, 2, 3)),
         "theta-torsion module of dimension 4, expected 2"),
        (direct_sum(build_v1(P23, 2, 3, 5), build_v1(P23, 2, 3, 5)),
         "x-invertible module of dimension 12, expected 6"),
        (direct_sum(build_v2(P23, 2, 3), build_v2(P23, 2, 3)),
         "y-invertible module of dimension 12, expected 6"),
        (direct_sum(build_v3(P23, 3), build_v3(P23, 3)),
         "x,y-nilpotent module of dimension 12, expected 6"),
    ], ids=["both_vanish", "neither_zero_nor_invertible", "z_torsion",
            "theta_torsion", "x_invertible", "y_invertible", "nilpotent"])
    def test_classify_error_names_stage_past_span(self, monkeypatch, rep,
                                                  message):
        # these direct sums are not simple; a simplicity decision patched
        # to say "simple" lets classify reach the stage that must reject them
        monkeypatch.setattr("qheisenberg.reps.is_simple", lambda rep: True)
        with pytest.raises(ValueError) as err:
            classify(rep)
        assert str(err.value) == message

    def test_classify_error_names_failed_self_check(self, monkeypatch):
        monkeypatch.setattr("qheisenberg.reps._orbit",
                            lambda source, target, v0: None)
        with pytest.raises(ValueError) as err:
            classify(build_v3(P23, 1))
        assert str(err.value) == ("classify V3: the descriptor does not "
                                  "rebuild the input module")

    def test_self_check_rejects_a_wrong_weight_vector(self, monkeypatch):
        # e_1 of a V1 build has the weight (p lam, q^-1 gamma), not the
        # weight of v_0 in the canonical build of (mu, lam, gamma): its
        # orbit is an invertible matrix that does not intertwine
        rep = build_v1(P23, zeta_power(6, 1), 2, 3)
        one = CycNumber.one(6)
        assert reps._orbit(rep, rep, {0: one}) == FieldMatrix.identity(6, 6)
        assert reps._orbit(rep, rep, {1: one}) is None
        weight = reps._weight
        monkeypatch.setattr("qheisenberg.reps._weight",
                            lambda *args: (weight(*args)[0], {1: one}))
        with pytest.raises(ValueError) as err:
            classify(rep)
        assert str(err.value) == ("classify V1: the descriptor does not "
                                  "rebuild the input module")

    def test_classify_solves_no_hom_space(self, monkeypatch):
        # the self-check is the explicit orbit map, in the builder basis
        # and in a dense one; no intertwining equations are solved
        def refuse(*args):
            raise AssertionError("classify solved a hom space")

        monkeypatch.setattr("qheisenberg.reps.matrix_hom_space", refuse)
        monkeypatch.setattr("qheisenberg.linalg.matrix_hom_space", refuse)
        rng = random.Random(18)
        kinds = set()
        for params in (P23, P44, P24, P13):
            for rep in families(params, rng):
                want = classify(rep)
                got = classify(integer_conjugate(rep, rng))
                assert iso_test(want.kind, got, want, params)[0]
                kinds.add(want.kind)
        assert kinds == {KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z,
                         KIND_QPLANE_THETA, KIND_ONE_DIM}

    def test_classify_forms_no_matrix_power(self, monkeypatch):
        # the central scalars x^l, y^l, z^m and theta^n are read from e_0
        # by vector products, in the builder basis and in a dense one
        def refuse(self, e):
            raise AssertionError("classify formed a matrix power")

        monkeypatch.setattr(FieldMatrix, "__pow__", refuse, raising=False)
        rng = random.Random(20)
        for params in (P23, P44, P24, P13):
            for kind in (KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z,
                         KIND_QPLANE_THETA):
                desc = seeded_descriptor(kind, params, rng, (1, 2, Fraction(3, 2)))
                rep = build_from_descriptor(params, desc)
                if rep.d == 1:
                    # a one-dimensional module is of kind OneDim
                    continue
                for mod in (rep, integer_conjugate(rep, rng)):
                    assert iso_test(kind, classify(mod), desc, params)[0], \
                        (kind, params.m, params.n)

    def test_property_dense_round_trip(self, monkeypatch):
        # builder -> integer conjugate -> classify gives a descriptor that
        # iso_test matches to the builder's, over all five families with
        # cycle scalars c*g^r up to c = 10^20 + 1
        monkeypatch.setattr(FieldMatrix, "__pow__", lambda self, e: pytest.fail(
            "classify formed a matrix power"), raising=False)
        rng = random.Random(30)
        pool = all_params(6)
        kinds = (KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z, KIND_QPLANE_THETA)
        cycles = (1, 2, Fraction(3, 2), 7, 10 ** 20 + 1, Fraction(10 ** 20 + 1, 3))
        done = Counter()
        while sum(done.values()) < 30:
            kind = kinds[sum(done.values()) % 5]
            params = rng.choice(pool)
            desc = seeded_descriptor(kind, params, rng, cycles)
            rep = build_from_descriptor(params, desc)
            if rep.d == 1:
                # a one-dimensional module is of kind OneDim, not of this family
                continue
            got = classify(integer_conjugate(rep, rng))
            ok, k = iso_test(kind, got, desc, params)
            assert ok and k is not None, (kind, params.m, params.n,
                                          params.k1, params.k2, desc)
            done[kind] += 1
        assert done == {kind: 6 for kind in kinds}


def seeded_descriptor(kind, params, rng, cycles):
    """A descriptor of the given family: its cycle scalar is c*g^r for c in
    cycles, and each weight slot is c*g^r for a small rational c."""
    cond = params.conductor
    g = zeta_power(cond, 1)

    def scalar(values):
        return CycNumber.from_rational(cond, rng.choice(values)) * g ** rng.randrange(cond)

    weights = (1, 2, -3, Fraction(1, 2), Fraction(-5, 3))
    if kind == KIND_V1:
        return ModuleDescriptor(kind, mu=scalar(cycles), lam=scalar(weights),
                                gamma=scalar(weights))
    if kind == KIND_V2:
        return ModuleDescriptor(kind, mu=scalar(cycles), lam=scalar(weights))
    if kind == KIND_V3:
        return ModuleDescriptor(kind, lam=scalar(weights))
    if kind == KIND_QPLANE_Z:
        return ModuleDescriptor(kind, mu=scalar(cycles), gamma=scalar(weights))
    return ModuleDescriptor(kind, mu=scalar(cycles), lam=scalar(weights))


class TestIsoV1:
    MU = zeta_power(6, 1)
    LAM = CycNumber.from_rational(6, 2)
    GAM = CycNumber.from_rational(6, 3)

    def base(self):
        return ModuleDescriptor(KIND_V1, mu=self.MU, lam=self.LAM,
                                gamma=self.GAM)

    def test_root_of_unity_twist(self):
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=zeta_power(6, 1) * self.MU,
                             lam=self.LAM, gamma=self.GAM)
        ok, k = iso_test(KIND_V1, a, b, P23)
        assert ok and k == 0
        p = intertwiner(KIND_V1, a, b, 0, P23)
        # weight spaces are fixed, so the intertwiner is diagonal
        for i in range(6):
            for j in range(6):
                assert i == j or p[i][j].is_zero()

    def test_weight_shift(self):
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=self.MU, lam=P23.p * self.LAM,
                             gamma=P23.q.inverse() * self.GAM)
        ok, k = iso_test(KIND_V1, a, b, P23)
        assert ok and k == 1
        intertwiner(KIND_V1, a, b, 1, P23)

    def test_identity_pair(self):
        a = self.base()
        ok, k = iso_test(KIND_V1, a, a, P23)
        assert ok and k == 0
        assert intertwiner(KIND_V1, a, a, 0, P23) == \
            FieldMatrix.identity(6, 6)

    def test_negative_scalar_out_of_orbit(self):
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=self.MU, lam=2 * self.LAM,
                             gamma=self.GAM)
        ok, k = iso_test(KIND_V1, a, b, P23)
        assert not ok and k is None
        ra = build_from_descriptor(P23, a)
        rb = build_from_descriptor(P23, b)
        assert find_intertwiner(ra, rb) is None

    def test_negative_mu_power(self):
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=2 * self.MU, lam=self.LAM,
                             gamma=self.GAM)
        ok, _ = iso_test(KIND_V1, a, b, P23)
        assert not ok
        assert find_intertwiner(build_from_descriptor(P23, a),
                                build_from_descriptor(P23, b)) is None

    def test_shift_with_fixed_gamma(self):
        # p has order 2 and q has order 3 here, so k = 3 moves lam
        # without moving gamma: (p lam, gamma) is in the orbit after all
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=self.MU, lam=P23.p * self.LAM,
                             gamma=self.GAM)
        ok, k = iso_test(KIND_V1, a, b, P23)
        assert ok and k == 3
        intertwiner(KIND_V1, a, b, 3, P23)

    def test_negative_gamma_out_of_orbit(self):
        a = self.base()
        b = ModuleDescriptor(KIND_V1, mu=self.MU, lam=self.LAM,
                             gamma=2 * self.GAM)
        ok, _ = iso_test(KIND_V1, a, b, P23)
        assert not ok
        assert find_intertwiner(build_from_descriptor(P23, a),
                                build_from_descriptor(P23, b)) is None

    def test_block_span_witness(self):
        a = build_from_descriptor(P23, self.base())
        b = build_v1(P23, self.MU, 2 * self.LAM, self.GAM)
        blk = direct_sum(a, b)
        ident = FieldMatrix.identity(blk.d, 6)
        assert algebra_span_dim([blk.Mx, blk.My, blk.Mz, ident]) == 72 > 36


class TestIsoV2V3:
    def test_v2_positive_cases(self):
        lam = CycNumber.from_rational(6, 2)
        for mu_b in (zeta_power(6, 1), zeta_power(6, 5),
                     CycNumber.from_rational(6, 1)):
            a = ModuleDescriptor(KIND_V2, mu=CycNumber.one(6), lam=lam)
            b = ModuleDescriptor(KIND_V2, mu=mu_b, lam=lam)
            ok, k = iso_test(KIND_V2, a, b, P23)
            assert ok and k == 0
            p = intertwiner(KIND_V2, a, b, 0, P23)
            for i in range(6):
                for j in range(6):
                    assert i == j or p[i][j].is_zero()

    def test_v2_negative_cases(self):
        # ord(pq) = l here, where the scalar criterion is provably sound
        assert ord_formula(2, 3, 1, 1) == P23.l
        pairs = [(CycNumber.from_rational(6, 2), CycNumber.from_rational(6, 3)),
                 (CycNumber.from_rational(6, 2), zeta_power(6, 1)),
                 (CycNumber.one(6), CycNumber.from_rational(6, -1))]
        for lam_a, lam_b in pairs:
            a = ModuleDescriptor(KIND_V2, mu=CycNumber.one(6), lam=lam_a)
            b = ModuleDescriptor(KIND_V2, mu=CycNumber.one(6), lam=lam_b)
            ok, _ = iso_test(KIND_V2, a, b, P23)
            assert not ok
            assert find_intertwiner(build_from_descriptor(P23, a),
                                    build_from_descriptor(P23, b)) is None

    def test_v2_mu_power_negative(self):
        lam = CycNumber.from_rational(6, 2)
        a = ModuleDescriptor(KIND_V2, mu=CycNumber.one(6), lam=lam)
        b = ModuleDescriptor(KIND_V2, mu=CycNumber.from_rational(6, 2),
                             lam=lam)
        ok, _ = iso_test(KIND_V2, a, b, P23)
        assert not ok
        assert find_intertwiner(build_from_descriptor(P23, a),
                                build_from_descriptor(P23, b)) is None

    def test_v3_positive_and_negative(self):
        lam = zeta_power(6, 1) + 1
        a = ModuleDescriptor(KIND_V3, lam=lam)
        ok, k = iso_test(KIND_V3, a, a, P23)
        assert ok and k == 0
        assert intertwiner(KIND_V3, a, a, 0, P23) == \
            FieldMatrix.identity(6, 6)
        for lam_b in (2 * lam, -lam, CycNumber.from_rational(6, 5)):
            b = ModuleDescriptor(KIND_V3, lam=lam_b)
            ok, _ = iso_test(KIND_V3, a, b, P23)
            assert not ok
            assert find_intertwiner(build_from_descriptor(P23, a),
                                    build_from_descriptor(P23, b)) is None

    def test_v3_positive_more_params(self):
        for params in (P44, P24):
            lam = zeta_power(params.conductor, 1)
            a = ModuleDescriptor(KIND_V3, lam=lam)
            ok, k = iso_test(KIND_V3, a, a, params)
            assert ok and k == 0
            intertwiner(KIND_V3, a, a, 0, params)


class TestV2CriterionGap:
    """V2 modules shift by multiples of ord(pq), a gap in the quoted criterion.

    At (4,4,1,1), ord(pq) = 2 < l = 4 and the x-action coefficient
    vanishes at index 2, so the module has a second x-kernel weight
    vector.  An exact kernel solve produces an invertible intertwiner
    between the lambda and -lambda = p^-2 lambda builds, which a
    criterion comparing lambda alone separates.  `iso_test` shifts the
    V2 weight basis by multiples of ord(pq) and finds the witness k = 2.
    """

    def test_extra_isomorphism_exists(self):
        assert ord_formula(4, 4, 1, 1) == 2 < P44.l
        lam = CycNumber.from_rational(4, 2)
        shifted = P44.p ** (-2) * lam
        assert shifted == -lam
        rep_a = build_v2(P44, 1, lam)
        rep_b = build_v2(P44, 1, -lam)
        p = find_intertwiner(rep_a, rep_b)
        assert p is not None
        assert is_invertible(p)
        for ma, mb in ((rep_a.Mx, rep_b.Mx), (rep_a.My, rep_b.My),
                       (rep_a.Mz, rep_b.Mz)):
            assert ma * p == p * mb
        desc_a = ModuleDescriptor(KIND_V2, mu=CycNumber.one(4), lam=lam)
        desc_b = ModuleDescriptor(KIND_V2, mu=CycNumber.one(4), lam=-lam)
        ok, k = iso_test(KIND_V2, desc_a, desc_b, P44)
        assert ok and k == 2
        assert intertwiner(KIND_V2, desc_a, desc_b, k, P44) == p.scale(
            p[0][2].inverse())

    def test_no_such_pair_at_full_order(self):
        lam = CycNumber.from_rational(6, 2)
        rep_a = build_v2(P23, 1, lam)
        rep_b = build_v2(P23, 1, -lam)
        assert find_intertwiner(rep_a, rep_b) is None


class TestIsoQPlaneAndErrors:
    def test_qplane_z_iso(self):
        a_desc = ModuleDescriptor(KIND_QPLANE_Z,
                                  mu=CycNumber.from_rational(6, 2),
                                  gamma=zeta_power(6, 1))
        b_desc = ModuleDescriptor(KIND_QPLANE_Z,
                                  mu=CycNumber.from_rational(6, 2),
                                  gamma=P23.q * zeta_power(6, 1))
        ok, k = iso_test(KIND_QPLANE_Z, a_desc, b_desc, P23)
        assert ok and k == 1
        p = intertwiner(KIND_QPLANE_Z, a_desc, b_desc, 1, P23)
        assert is_invertible(p)
        c_desc = ModuleDescriptor(KIND_QPLANE_Z,
                                  mu=CycNumber.from_rational(6, 4),
                                  gamma=zeta_power(6, 1))
        ok, _ = iso_test(KIND_QPLANE_Z, a_desc, c_desc, P23)
        assert not ok
        assert find_intertwiner(build_from_descriptor(P23, a_desc),
                                build_from_descriptor(P23, c_desc)) is None

    def test_qplane_theta_iso(self):
        a_desc = ModuleDescriptor(KIND_QPLANE_THETA,
                                  mu=CycNumber.from_rational(6, 3),
                                  lam=CycNumber.from_rational(6, 2))
        b_desc = ModuleDescriptor(KIND_QPLANE_THETA,
                                  mu=CycNumber.from_rational(6, -3),
                                  lam=P23.p * CycNumber.from_rational(6, 2))
        ok, k = iso_test(KIND_QPLANE_THETA, a_desc, b_desc, P23)
        assert ok and k == 1
        p = intertwiner(KIND_QPLANE_THETA, a_desc, b_desc, 1, P23)
        assert is_invertible(p)

    def test_kind_mismatch(self):
        a = ModuleDescriptor(KIND_V2, mu=CycNumber.one(6),
                             lam=CycNumber.one(6))
        b = ModuleDescriptor(KIND_V3, lam=CycNumber.one(6))
        with pytest.raises(ValueError):
            iso_test(KIND_V2, a, b, P23)
        with pytest.raises(ValueError):
            iso_test("V9", a, a, P23)

    def test_intertwiner_on_non_isomorphic_pair(self):
        a = ModuleDescriptor(KIND_V3, lam=CycNumber.one(6))
        b = ModuleDescriptor(KIND_V3, lam=CycNumber.from_rational(6, 2))
        with pytest.raises(ValueError):
            intertwiner(KIND_V3, a, b, 0, P23)

    def test_schur_hom_dimension(self):
        rep = build_v1(P23, zeta_power(6, 1), 2, 3)
        basis = matrix_hom_space([rep.Mx, rep.My, rep.Mz],
                                 [rep.Mx, rep.My, rep.Mz])
        assert len(basis) == 1


def iso_cases(params, rng):
    """Per kind: a descriptor, an isomorphic twin and a pair that is not.

    The twin twists the cycle scalar by a root of unity whose order
    divides the exponent of its central power (l for V1 and V2, n for
    QPlaneZ, m for QPlaneTheta) and shifts the weights by a random k:
    V1 by (p^k, q^-k), QPlaneZ by q^k and QPlaneTheta by p^k, and V2 by
    p^-j for j the largest multiple of ord(pq) up to k (TestV2CriterionGap).
    The third descriptor doubles a weight (for OneDim the x scalar), which
    no shift or twist undoes.
    """
    cond = params.conductor
    mu, lam, gam = sample_scalars(params, rng, 3)
    k = rng.randrange(params.l)
    j = k - k % ord_formula(params.m, params.n, params.k1, params.k2)

    def twist(order):
        return mu * zeta_power(cond, cond // order * rng.randrange(order))

    zero = CycNumber.zero(cond)
    cases = [
        (ModuleDescriptor(KIND_V1, mu=mu, lam=lam, gamma=gam),
         ModuleDescriptor(KIND_V1, mu=twist(params.l),
                          lam=lam * params.power(k, 0),
                          gamma=gam * params.power(0, -k)),
         ModuleDescriptor(KIND_V1, mu=mu, lam=2 * lam, gamma=gam)),
        (ModuleDescriptor(KIND_V3, lam=lam), ModuleDescriptor(KIND_V3, lam=lam),
         ModuleDescriptor(KIND_V3, lam=2 * lam)),
        (ModuleDescriptor(KIND_QPLANE_Z, mu=mu, gamma=gam),
         ModuleDescriptor(KIND_QPLANE_Z, mu=twist(params.n),
                          gamma=gam * params.power(0, k)),
         ModuleDescriptor(KIND_QPLANE_Z, mu=mu, gamma=2 * gam)),
        (ModuleDescriptor(KIND_QPLANE_THETA, mu=mu, lam=lam),
         ModuleDescriptor(KIND_QPLANE_THETA, mu=twist(params.m),
                          lam=lam * params.power(k, 0)),
         ModuleDescriptor(KIND_QPLANE_THETA, mu=mu, lam=2 * lam)),
        (ModuleDescriptor(KIND_ONE_DIM, mu=mu, lam=zero, gamma=zero),
         ModuleDescriptor(KIND_ONE_DIM, mu=mu, lam=zero, gamma=zero),
         ModuleDescriptor(KIND_ONE_DIM, mu=2 * mu, lam=zero, gamma=zero)),
        (ModuleDescriptor(KIND_V2, mu=mu, lam=lam),
         ModuleDescriptor(KIND_V2, mu=twist(params.l),
                          lam=lam * params.power(-j, 0)),
         ModuleDescriptor(KIND_V2, mu=mu, lam=2 * lam)),
    ]
    return cases


class TestIsoProperty:
    def test_property_iso_test_matches_exact_solver(self):
        # iso_test decides from scalars alone; the exact hom solve of the
        # two canonical builds must agree, the witness k must give the
        # verified intertwiner, and no smaller shift may
        rng = random.Random(43)
        seen = set()
        for params in all_params(8):
            for a, twin_b, other in iso_cases(params, rng):
                kind = a.kind
                rep_a = build_from_descriptor(params, a)
                for b, want in ((twin_b, True), (other, False)):
                    where = (params.m, params.n, params.k1, params.k2, kind)
                    ok, k = iso_test(kind, a, b, params)
                    exact = find_intertwiner(
                        rep_a, build_from_descriptor(params, b))
                    assert ok == (exact is not None) == want, where
                    if not ok:
                        assert k is None, where
                        continue
                    seen.add((kind, k > 0))
                    assert is_invertible(intertwiner(kind, a, b, k, params))
                    for smaller in range(k):
                        with pytest.raises(ValueError):
                            intertwiner(kind, a, b, smaller, params)
        # every shifting kind met a witness above 0
        assert {(KIND_V1, True), (KIND_V2, True), (KIND_QPLANE_Z, True),
                (KIND_QPLANE_THETA, True)} <= seen

    def test_intertwiner_is_the_closed_form(self):
        # psi(v_i) = (mu^-1 mu')^i v_{i-k}, the ratio 1 without a cycle
        # slot, on every isomorphic pair of iso_cases with l <= 8
        rng = random.Random(44)
        count = 0
        for params in all_params(8):
            cond = params.conductor
            for a, twin_b, _ in iso_cases(params, rng):
                kind = a.kind
                for b in (a, twin_b):
                    ok, k = iso_test(kind, a, b, params)
                    assert ok
                    d = build_from_descriptor(params, a).d
                    ratio = (CycNumber.one(cond)
                             if kind in (KIND_V3, KIND_ONE_DIM)
                             else b.mu * a.mu.inverse())
                    want = FieldMatrix.from_entries(
                        d, d, {(i, (i - k) % d): ratio ** i for i in range(d)},
                        cond)
                    assert intertwiner(kind, a, b, k, params) == want, \
                        (params, kind, k)
                    count += 1
        assert count == 12 * len(all_params(8))


class TestSerialization:
    def test_matrix_rep_round_trip(self):
        rep = build_v2(P44, zeta_power(4, 1), 2)
        data = rep.to_json()
        assert sorted(data) == ["Mx", "My", "Mz", "d", "params"]
        assert data["d"] == 4
        back = MatrixRep.from_json(data)
        assert back == rep

    def test_module_dimension_is_the_built_dimension(self):
        seen = 0
        for params in all_params(12):
            two, three, five = (CycNumber.from_rational(params.conductor, v)
                                for v in (2, 3, 5))
            for kind in KIND_SCALARS:
                desc = ModuleDescriptor(kind, mu=two, lam=three, gamma=five)
                assert (module_dimension(params, kind)
                        == build_from_descriptor(params, desc).d), \
                    (params.m, params.n, params.k1, params.k2, kind)
                seen += 1
        assert seen > 500
        with pytest.raises(ValueError, match="unknown descriptor kind"):
            module_dimension(P23, "V4")

    def test_descriptor_round_trip(self):
        desc = ModuleDescriptor(KIND_V2, mu=zeta_power(6, 1),
                                lam=CycNumber.from_rational(6, 2))
        data = desc.to_json()
        assert list(data) == ["kind", "mu", "lambda"]
        assert ModuleDescriptor.from_json(data) == desc
        lone = ModuleDescriptor(KIND_V3, lam=CycNumber.one(6))
        data = lone.to_json()
        assert list(data) == ["kind", "lambda"]
        assert ModuleDescriptor.from_json(data) == lone


class TestCertificates:
    """The mod-P certificates and the spin witness against the exact answers."""

    def test_decision_matches_exact_span_on_direct_sums(self):
        rng = random.Random(32)
        for params in all_params(6):
            v1, v2, v3, qz, qt = families(params, rng)
            # the exact span of a sum with a theta-torsion summand and a
            # summand of another family does not finish at d = 8, (m, n) = (2, 3)
            for a, b in ((v1, v2), (v3, qz), (qt, qt), (v2, v2)):
                rep = direct_sum(a, b)
                assert not exact_simple(rep)
                # the spin of e_0 stays inside the first summand
                assert _certify_simple(gens(rep), []) is None
                assert not is_simple(rep)

    def test_decision_matches_exact_span_on_dense_conjugates(self):
        rng = random.Random(33)
        for params in all_params(6):
            cases = families(params, rng)
            mu = sample_scalars(params, rng, 1)[0]
            # in a dense basis no standard basis vector spins to a proper
            # submodule, so a non-simple input reaches the exact span,
            # which finishes up to d = 4
            cases.append(direct_sum(build_one_dim(params, mu, 0, 0),
                                    build_one_dim(params, 2 * mu, 0, 0)))
            if params.m + params.n <= 4:
                cases.append(direct_sum(cases[3], cases[4]))
            for rep in cases:
                dense = integer_conjugate(rep, rng)
                assert verify_relations(dense).ok
                # the exact span of a dense basis finishes up to d = 4
                # (at d = 5 and 6 it ran past 15 s); conjugation keeps the
                # span's dimension, so larger cases read it off rep
                want = exact_simple(dense if rep.d <= 4 else rep)
                assert is_simple(dense) == want, \
                    (params.m, params.n, params.k1, params.k2, rep.d)

    def test_property_spin_matches_stacked_images_on_both_fields(self):
        # seeds e_i and the identity, in the builder basis and in a dense
        # one; the spin of the identity in a dense basis finishes up to
        # d = 4 (at d = 5 it ran past 20 s)
        rng = random.Random(41)
        for params in all_params(6):
            cond = params.conductor
            one = CycNumber.one(cond)
            for rep in families(params, rng):
                for mod in (rep, integer_conjugate(rep, rng)):
                    d, mats = mod.d, gens(mod)
                    seeds = [({i: 1}, FieldMatrix.from_entries(
                                 1, d, {(0, i): 1}, cond), d)
                             for i in range(d)]
                    if mod is rep or d <= 4:
                        seeds.append((identity_seed(d),
                                      FieldMatrix.identity(d, cond), d * d))
                    for seed, stacked, full in seeds:
                        where = (params.m, params.n, d, mod is rep, len(seed))
                        exact = spin([g._rows for g in mats],
                                     {k: one for k in seed}, full,
                                     SparseEchelon(cond))
                        assert exact == spin_by_stacking(mats, stacked), where
                        modp = _spin_mod_p(mats, seed, full)
                        assert modp is not None and modp <= exact, where

    def test_echelon_mod_p_takes_the_exact_contract(self):
        # insert returns the admitted row divided by its lead, or None, and
        # entries need not be reduced mod P: P and -P are zero, P + 1 is 1
        prime = modular._field(6)[0]
        ech = modular.reduced([FieldMatrix.identity(2, 6)])[1]
        assert ech.rank == 0
        assert ech.insert({0: prime, 1: 2 * prime + 3, 2: 6}) == {1: 1, 2: 2}
        assert ech.insert({1: prime + 1, 2: 2 - prime}) is None
        assert ech.insert({0: -prime, 2: -prime}) is None
        assert ech.insert({0: 2, 2: 3 * prime + 4}) == {0: 1, 2: 2}
        assert ech.rank == 2
        # a sum that cancels mod P leaves no lead: e_0 + e_1 times
        # [[1], [-1]] is P, and only the seed is admitted
        rows, spinner = modular.reduced([FieldMatrix([[1, 0], [-1, 0]], 6)])
        assert spin(rows, {0: 1, 1: 1}, 2, spinner) == 1

    def test_zero_hom_certificate_matches_exact(self):
        rng = random.Random(34)
        for params in all_params(6):
            mods = families(params, rng) + families(params, rng)[:1]
            mods.append(direct_sum(mods[0], mods[5]))
            for a in mods:
                for b in mods:
                    full = a.d * b.d
                    picked = modular.independent(
                        hom_equations(gens(a), gens(b)), params.conductor, full)
                    certified = len(picked) == full
                    exact = matrix_hom_space(gens(a), gens(b))
                    assert certified == (exact == []), \
                        (params.m, params.n, a.d, b.d)
                    if exact == []:
                        assert find_intertwiner(a, b) is None

    def test_rank_certificate_matches_row_reduce(self):
        rng = random.Random(35)
        for params in all_params(6):
            for rep in families(params, rng):
                ident = FieldMatrix.identity(rep.d, params.conductor)
                lam = rep.Mz[0][0]
                for mat in (rep.Mx, rep.My, rep.Mz, theta_matrix(rep),
                            rep.Mz - ident.scale(lam),
                            integer_conjugate(rep, rng).Mx):
                    exact = row_reduce(mat)[1]
                    assert len(modular.independent(
                        mat._rows, params.conductor)) == exact
                    assert is_invertible(mat) == (exact == rep.d)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.lists(st.dictionaries(
               st.integers(0, 5),
               st.tuples(st.integers(-2, 2), st.integers(0, 5),
                         st.sampled_from([1, 2, 3]))), max_size=9),
           full=st.none() | st.integers(1, 6),
           bad=st.tuples(st.integers(0, 8), st.integers(0, 5)))
    def test_property_independent_admits_exactly_independent_rows(self, rows,
                                                                  full, bad):
        # entries c/den * zeta_6^e, zeros included
        rows = [{k: zeta_power(6, e) * Fraction(c, den)
                 for k, (c, e, den) in row.items()} for row in rows]
        assert_admits_like_exact(rows, 6, full)
        if rows:
            # an entry with no reduction mod P, met on a walk over every row
            i = bad[0] % len(rows)
            prime = modular._field(6)[0]
            rows[i] = {**rows[i], bad[1]: CycNumber.from_rational(
                6, Fraction(1, prime))}
            assert modular.independent(rows, 6) is None

    def test_independent_on_dense_conjugates(self):
        rng = random.Random(39)
        for params in all_params(4):
            for rep in families(params, rng):
                dense = integer_conjugate(rep, rng)
                for mat in gens(dense) + [theta_matrix(dense)]:
                    assert_admits_like_exact(mat._rows, params.conductor)
                    assert len(modular.independent(
                        mat._rows, params.conductor)) <= row_reduce(mat)[1]
                assert_admits_like_exact(hom_equations(gens(dense), gens(rep)),
                                         params.conductor, rep.d ** 2)

    def test_independent_may_keep_other_rows_than_exact(self):
        # r2 = r1 + P * r3: mod P the walk drops r2 and keeps r3, while
        # the exact walk keeps r2 and drops r3; both sets are independent
        prime = modular._field(6)[0]
        one = CycNumber.one(6)
        rows = [{0: one}, {0: one, 1: CycNumber.from_rational(6, prime)},
                {1: one}]
        assert modular.independent(rows, 6) == [0, 2]
        exact = SparseEchelon(6)
        assert [exact.insert(row) is not None for row in rows] == \
            [True, True, False]
        assert_admits_like_exact(rows, 6)

    def test_short_modular_rank_falls_back_to_exact(self, monkeypatch):
        calls = []
        exact_span = algebra_span_dim

        def counted(mats):
            calls.append(len(mats))
            return exact_span(mats)

        monkeypatch.setattr("qheisenberg.reps.algebra_span_dim", counted)
        # the ladder of the module and of each block reads linalg's
        monkeypatch.setattr("qheisenberg.linalg._spin_mod_p",
                            lambda gens, seed, full: 0)
        monkeypatch.setattr(modular, "independent",
                            lambda rows, conductor, full=None: [])
        v1 = build_v1(P23, zeta_power(6, 1), 2, 3)
        other = build_v1(P23, zeta_power(6, 1), 3, 3)
        assert is_simple(v1) and calls == [3]
        assert not is_simple(direct_sum(v1, v1))
        assert is_invertible(v1.Mx) and not is_invertible(v1.Mx - v1.Mx)
        assert find_intertwiner(v1, other) is None
        assert is_invertible(find_intertwiner(v1, v1))
        assert classify(v1).kind == KIND_V1

    def test_prime_dividing_a_denominator_falls_back_to_exact(self):
        prime = modular._field(6)[0]
        v1 = build_v1(P23, Fraction(1, prime), 2, 3)
        other = build_v1(P23, Fraction(1, prime), 3, 3)
        assert modular.reduced(gens(v1)) is None
        assert modular.independent(hom_equations(gens(v1), gens(other)), 6) is None
        assert modular.independent(v1.Mx._rows, 6) is None
        assert is_simple(v1)
        assert is_invertible(v1.Mx)
        assert find_intertwiner(v1, other) is None
        assert is_invertible(find_intertwiner(v1, v1))

    def test_field_is_a_prime_with_a_primitive_root(self):
        for conductor in (1, 2, 4, 6, 12, 30, 56):
            prime, powers = modular._field(conductor)
            assert (prime - 1) % conductor == 0 and sympy.isprime(prime)
            if len(powers) == 1:
                continue    # Q(zeta_1) = Q(zeta_2) = Q: no power of w is used
            w = powers[1]
            assert powers == tuple(pow(w, i, prime) for i in range(len(powers)))
            # w is a root of Phi_N mod P, so zeta -> w is a ring map
            phi = cyclotomic_polynomial(conductor)
            assert sum(c * pow(w, i, prime) for i, c in enumerate(phi)) % prime == 0

    def test_is_prime_matches_sympy(self):
        assert ([n for n in range(5000) if modular._is_prime(n)]
                == list(sympy.primerange(5000)))
        # strong pseudoprimes to the first four and first nine prime bases,
        # and a Carmichael number
        for n in (3215031751, 3825123056546413051, 561):
            assert not modular._is_prime(n)
        for n in (2 ** 31 - 1, 2 ** 61 - 1, 2147483659):
            assert modular._is_prime(n) == sympy.isprime(n)

    def test_certificates_survive_optimize_flag(self):
        # the certificates are read through comparisons and branches, not
        # assert statements, so python -O still takes the exact path
        code = textwrap.dedent("""
            from fractions import Fraction
            import qheisenberg.reps as reps
            from qheisenberg import linalg, modular
            from qheisenberg.arith import derive_params
            assert False, "asserts are active"
            calls = []
            exact = reps.algebra_span_dim
            reps.algebra_span_dim = lambda mats: calls.append(1) or exact(mats)
            params = derive_params(2, 3, 1, 1)
            prime = modular._field(6)[0]
            no_reduction = reps.build_v1(params, Fraction(1, prime), 2, 3)
            print(reps.is_simple(no_reduction), len(calls))
            linalg._spin_mod_p = lambda gens, seed, full: 0
            modular.independent = lambda rows, conductor, full=None: []
            v1 = reps.build_v1(params, 1, 2, 3)
            other = reps.build_v1(params, 1, 3, 3)
            print(reps.is_simple(v1), len(calls),
                  reps.find_intertwiner(v1, other))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == ["True 1", "True 2 None", ""]


def assert_admits_like_exact(rows, conductor, full=None):
    """modular.independent admits, in order, rows independent exactly.

    The admitted set need not be the one the exact echelon keeps on the
    same walk (see test_independent_may_keep_other_rows_than_exact).
    """
    rows = list(rows)
    picked = modular.independent(rows, conductor, full)
    assert picked is not None
    assert picked == sorted(set(picked))
    kept = SparseEchelon(conductor)
    assert all(kept.insert(rows[pos]) is not None for pos in picked)
    exact = SparseEchelon(conductor)
    for row in rows:
        exact.insert(row)
    assert len(picked) <= exact.rank
    assert full is None or len(picked) <= full


def spin_by_stacking(mats, seed):
    """The dimension of the spin of seed, by row_reduce on stacked images.

    seed is a FieldMatrix with d columns, and each element of the spin is
    flattened into one row of the stack.  The stack holds a basis of the
    span so far and its images under every generator, and the rank is
    taken again until it stops growing.
    """
    nrows, ncols = seed.shape
    cond = seed.conductor
    basis, rank = [seed], 0
    while True:
        stack = basis + [x * g for x in basis for g in mats]
        rref, grown, _ = row_reduce(FieldMatrix.from_entries(
            len(stack), nrows * ncols,
            {(t, r * ncols + c): v for t, x in enumerate(stack)
             for r, row in enumerate(x._rows) for c, v in row.items()}, cond))
        if grown == rank:
            return rank
        rank = grown
        basis = [FieldMatrix.from_entries(
                     nrows, ncols, {divmod(k, ncols): v
                                    for k, v in rref._rows[t].items()}, cond)
                 for t in range(rank)]


def hom_equations(mats_a, mats_b):
    """Each equation (g, i, j) of A_g P = P B_g in that order, read densely."""
    da, db = mats_a[0].shape[0], mats_b[0].shape[0]
    for a_mat, b_mat in zip(mats_a, mats_b):
        a_rows, b_rows = a_mat.rows, b_mat.rows
        for i in range(da):
            for j in range(db):
                eq = {}
                for t in range(da):
                    eq[(t, j)] = eq.get((t, j), 0) + a_rows[i][t]
                for t in range(db):
                    eq[(i, t)] = eq.get((i, t), 0) - b_rows[t][j]
                yield eq


def reference_hom_space(mats_a, mats_b):
    """Every equation (g, i, j) of A_g P = P B_g into one echelon."""
    da, db = mats_a[0].shape[0], mats_b[0].shape[0]
    cond = mats_a[0].conductor
    ech = SparseEchelon(cond)
    for eq in hom_equations(mats_a, mats_b):
        ech.insert(eq)
    unknowns = [(r, c) for r in range(da) for c in range(db)]
    return [FieldMatrix.from_entries(da, db, sol, cond)
            for sol in ech.kernel_basis(unknowns)]


@functools.lru_cache(maxsize=1)
def hom_space_cases():
    """(A, B, reference basis) for l <= 6: every family, sums, dense conjugates."""
    rng = random.Random(36)
    cases = []
    dense_done = set()
    for params in all_params(6):
        v1, v2, v3, qz, qt = mods = families(params, rng)
        pairs = [(m, m) for m in mods] + [(v1, v2), (v3, qz), (qt, qz)]
        pairs += [(direct_sum(v1, v1), v1), (v2, direct_sum(v2, v3))]
        # the dense solves dominate; the first parameter set of each
        # conductor takes them
        if params.conductor not in dense_done:
            dense_done.add(params.conductor)
            pairs += [(integer_conjugate(m, rng), m) for m in (v1, qt)]
        for a, b in pairs:
            cases.append((a, b, reference_hom_space(gens(a), gens(b))))
    return cases


def count_inserts(monkeypatch):
    """A list that gets one entry per SparseEchelon.insert call."""
    calls = []
    insert = SparseEchelon.insert

    def counted(self, vec):
        calls.append(1)
        return insert(self, vec)

    monkeypatch.setattr(SparseEchelon, "insert", counted)
    return calls


def _drop_first(pivots):
    return None if pivots is None else pivots[1:]


def _drop_last(pivots):
    return None if pivots is None else pivots[:-1]


class TestHomSpace:
    """matrix_hom_space: equations picked mod P, kernels checked exactly."""

    @pytest.mark.parametrize("stub", [None, _drop_first, _drop_last,
                                      lambda pivots: []],
                             ids=["pivots", "drop_first", "drop_last", "none"])
    def test_matches_reference_solve(self, stub, monkeypatch):
        cases = hom_space_cases()
        if stub is not None:
            real = modular.independent
            monkeypatch.setattr(modular, "independent",
                                lambda rows, conductor, full=None:
                                stub(real(rows, conductor, full)))
        for a, b, want in cases:
            got = matrix_hom_space(gens(a), gens(b))
            where = (a.params.m, a.params.n, a.d, b.d)
            assert len(got) == len(want), where
            for x, y in zip(got, want):
                assert x == y, where

    def test_isomorphic_pair_inserts_only_admitted_equations(self, monkeypatch):
        # a simple pair has a one-dimensional hom space, so d^2 - 1 of the
        # 3 d^2 equations are independent; only those reach the exact
        # echelon.  No generator is diagonal on both sides of these pairs,
        # so the weight support does not apply.
        calls = count_inserts(monkeypatch)
        v1 = build_v1(P23, zeta_power(6, 1), 2, 3)
        dense = integer_conjugate(v1, random.Random(37))
        dense2 = integer_conjugate(v1, random.Random(38))
        for a, b in ((v1, dense), (dense, dense2)):
            calls.clear()
            assert len(matrix_hom_space(gens(a), gens(b))) == 1
            assert len(calls) == v1.d ** 2 - 1

    def test_dense_pair_without_weight_support(self):
        # two integer conjugates of QPlaneZ at d = 5: only z = 0 is
        # diagonal, so the modular.independent path solves it.  Conjugation does
        # not change the hom space's dimension, 1 as for the pair
        # (QPlaneZ, QPlaneZ).
        qz = build_qplane(derive_params(1, 5), Z_TORSION, 2, 3)
        rng = random.Random(41)
        a, b = integer_conjugate(qz, rng), integer_conjugate(qz, rng)
        assert a.d == 5 and not a.Mx.is_diagonal()
        want = len(matrix_hom_space(gens(qz), gens(qz)))
        assert want == 1
        basis = matrix_hom_space(gens(a), gens(b))
        assert len(basis) == want
        for x in basis:
            assert all(ma * x == x * mb for ma, mb in zip(gens(a), gens(b)))

    def test_weight_support_inserts_only_equations_on_it(self, monkeypatch):
        # Mz and theta are diagonal on V1 with distinct joint weights, so an
        # intertwiner to a weight-shifted twin is supported on d unknowns.
        # Each of them enters two equations of Mx and two of My, and these
        # coincide in pairs: 2d equations, rank d - 1, against the d^2 - 1
        # equations the modular pivots would insert.
        calls = count_inserts(monkeypatch)

        def no_modular_step(rows, conductor, full=None):
            pytest.fail("the weight support needs no modular step")

        v1 = build_v1(P23, zeta_power(6, 1), 2, 3)
        twin = build_v1(P23, zeta_power(6, 1), 2 * P23.p ** 2, 3 * P23.q ** -2)
        full = [gens(v) + [theta_matrix(v)] for v in (v1, twin)]
        # is_invertible reads modular.independent too, so the stub covers
        # the solves only
        with monkeypatch.context() as patch:
            patch.setattr(modular, "independent", no_modular_step)
            basis = matrix_hom_space(*full)
        assert len(basis) == 1 and is_invertible(basis[0])
        assert len(calls) == 2 * v1.d
        assert basis == reference_hom_space(gens(v1), gens(twin))
        # unequal weights on every pair: an empty support, no equation
        calls.clear()
        other = build_v1(P23, zeta_power(6, 1), 5, 3)
        with monkeypatch.context() as patch:
            patch.setattr(modular, "independent", no_modular_step)
            assert matrix_hom_space(full[0], gens(other) + [theta_matrix(other)]) == []
        assert calls == []

    def test_find_intertwiner_forms_no_theta(self, monkeypatch):
        # the support comes from z, joined by xy and yx where z repeats a
        # weight, so no theta matrix is formed, for pairs isomorphic or not
        monkeypatch.setattr(reps, "_theta",
                            lambda *args: pytest.fail("theta formed"))
        w = zeta_power(6, 1)
        pairs = [(build_v1(P23, w, 2, 3),
                  build_v1(P23, w, 2 * P23.p ** 2, 3 * P23.q ** -2)),
                 (build_v1(P23, w, 2, 3), build_v1(P23, w, 5, 3)),
                 (build_v2(P23, 2, 3), build_v2(P23, 2 * w, 3)),
                 (build_v2(P23, 2, 3), build_v2(P23, 2, 5)),
                 (build_v3(P23, 3), build_v3(P23, 3)),
                 (build_v3(P23, 3), build_v3(P23, 5))]
        for k, (a, b) in enumerate(pairs):
            want = reference_hom_space(gens(a), gens(b))
            assert len(want) == (k + 1) % 2, k
            got = find_intertwiner(a, b)
            if want:
                assert got == want[0] and is_invertible(got), k
            else:
                assert got is None, k

    def test_full_support_offers_no_diagonal_equation(self, monkeypatch):
        # two dense conjugates of one QPlaneZ build: Mz = 0 is diagonal on
        # both sides and rules out no unknown, so the support is every
        # unknown and only the 2 d^2 equations of Mx and My reach the pick
        qz = build_qplane(derive_params(1, 5), Z_TORSION, 2, 3)
        rng = random.Random(41)
        a, b = integer_conjugate(qz, rng), integer_conjugate(qz, rng)
        offered = []
        real = modular.independent

        def counted(rows, conductor, full=None):
            rows = list(rows)
            offered.append(len(rows))
            return real(rows, conductor, full)

        monkeypatch.setattr(modular, "independent", counted)
        assert len(matrix_hom_space(gens(a), gens(b))) == 1
        assert offered == [2 * a.d ** 2]

    def test_theta_changes_no_hom_space(self):
        # theta lies in the span of xy and yx, so appending both theta
        # matrices where they are diagonal gives the same basis
        for a, b, want in hom_space_cases():
            where = (a.params.m, a.params.n, a.d, b.d)
            got = matrix_hom_space(gens(a), gens(b))
            assert got == want, where
            th_a, th_b = theta_matrix(a), theta_matrix(b)
            if th_a.is_diagonal() and th_b.is_diagonal():
                assert matrix_hom_space(gens(a) + [th_a],
                                        gens(b) + [th_b]) == got, where


class TestDenseBasis:
    """Inputs whose exact span does not finish on the exact path alone."""

    def test_is_simple_on_dense_l12_conjugate(self):
        rep = integer_conjugate(build_v1(derive_params(3, 4), 2, 3, 5),
                                random.Random(12))
        assert rep.d == 12 and len(rep.Mx._rows[0]) > 6
        assert is_simple(rep)

    def test_is_simple_on_sum_with_theta_torsion_summand(self):
        rep = direct_sum(build_qplane(P23, THETA_TORSION, 2, 3),
                         build_v1(P23, 2, 3, 5))
        assert not is_simple(rep)

    def test_is_simple_on_d40_direct_sum(self):
        params = derive_params(4, 5)
        rep = direct_sum(build_v1(params, 2, 3, 5), build_v1(params, 3, 5, 7))
        assert rep.d == 40
        assert not is_simple(rep)

    @pytest.mark.parametrize("build", [lambda p: build_v1(p, 2, 3, 5),
                                       lambda p: build_v2(p, 2, 3)],
                             ids=["V1", "V2"])
    def test_classify_on_dense_l12_conjugate(self, build):
        params = derive_params(4, 3)
        rep = build(params)
        want = classify(rep)
        dense = integer_conjugate(rep, random.Random(1))
        assert dense.d == 12 and len(dense.Mx._rows[0]) > 6
        got = classify(dense)
        assert got.kind == want.kind
        assert iso_test(want.kind, got, want, params)[0]

    @staticmethod
    def weight_kernel_input(m, n):
        # (Mz - 3)^T for a dense V1 with lam = 3, the weight of e_0: the
        # left kernel of Mz - 3 is a weight space that classify reads
        rep = integer_conjugate(build_v1(derive_params(m, n), 2, 3, 5),
                                random.Random(1))
        ident = FieldMatrix.identity(rep.d, rep.params.conductor)
        return rep.Mz - ident.scale(3)

    def test_pivot_entries_stay_small_on_dense_l12_kernel(self, monkeypatch):
        # every coordinate of every pivot row, numerators and denominators;
        # the pivot entries are ratios of minors of about 50 bits here
        bits = []
        insert = SparseEchelon.insert

        def measured(self, vec):
            row = insert(self, vec)
            if row is not None:
                bits.extend(max(v.den.bit_length(),
                                *(abs(x).bit_length() for x in v.num))
                            for v in row.values())
            return row

        monkeypatch.setattr(SparseEchelon, "insert", measured)
        mat = self.weight_kernel_input(3, 4)
        _, rank, _ = row_reduce(mat.transpose())
        assert rank == 8 and bits
        assert max(bits) < 500

    def test_weight_kernel_on_dense_l20(self):
        mat = self.weight_kernel_input(4, 5)
        assert mat.shape == (20, 20)
        _, rank, null = row_reduce(mat.transpose())
        assert rank == 15 and len(null) == 5
        for v in null:
            assert (FieldMatrix([v], mat.conductor) * mat).is_zero()


def ladder(params, lam):
    """A y-ladder like V3 but of length 2 ord(pq): a module that is not simple.

    x lowers by lam [k]_{p,q}, which vanishes at k = ord(pq), so e_0
    spins to the whole space under y but the top half is a submodule.
    """
    cond = params.conductor
    d = 2 * ord_formula(params.m, params.n, params.k1, params.k2)
    mz = FieldMatrix.diagonal([params.power(-k, 0) * lam for k in range(d)], cond)
    mx = FieldMatrix.from_entries(d, d, {(k, k - 1): pq_number(params, k) * lam
                                         for k in range(1, d)}, cond)
    my = FieldMatrix.from_entries(d, d, {(k, k + 1): 1 for k in range(d - 1)},
                                  cond)
    return MatrixRep(params, d, mx, my, mz)


def twin(params, rep_kind, scalars, rng):
    """An isomorphic build with other scalars: a root-of-unity twist of the
    cycle scalar and a weight shift, as `iso_test` describes."""
    mu, lam, gam, a, b = scalars
    w = zeta_power(params.conductor,
                   params.conductor // params.l * rng.randrange(params.l))
    k = rng.randrange(params.l)
    if rep_kind == KIND_V1:
        return build_v1(params, mu * w, lam * params.power(k, 0),
                        gam * params.power(0, -k))
    if rep_kind == KIND_V2:
        return build_v2(params, mu * w, lam)
    if rep_kind == KIND_V3:
        return build_v3(params, lam)
    if rep_kind == KIND_QPLANE_Z:
        return build_qplane(params, Z_TORSION, a * params.power(0, k), b)
    return build_qplane(params, THETA_TORSION, a, b * params.power(k, 0))


@functools.lru_cache(maxsize=1)
def weight_basis_cases():
    """Per parameter set with l <= 8: the five canonical builds, a twin of
    each, the sums A+B and A+A', and integer conjugates."""
    rng = random.Random(39)
    kinds = (KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z, KIND_QPLANE_THETA)
    out = []
    dense_done = set()
    for params in all_params(8):
        scalars = sample_scalars(params, rng, 5)
        mu, lam, gam, a, b = scalars
        mods = [build_v1(params, mu, lam, gam), build_v2(params, mu, lam),
                build_v3(params, lam), build_qplane(params, Z_TORSION, a, b),
                build_qplane(params, THETA_TORSION, a, b)]
        twins = [twin(params, kind, scalars, rng) for kind in kinds]
        v1, v2, v3, qz, qt = mods
        # A+B pairs avoid a theta-torsion summand beside another family,
        # whose exact span does not finish at d = 8
        sums = [direct_sum(v1, v2), direct_sum(v3, qz),
                direct_sum(v1, twins[0]), direct_sum(v2, twins[1]),
                direct_sum(qt, twins[4])]
        # the dense solves dominate; the first parameter set of each
        # conductor takes them: V1, QPlaneTheta and QPlaneZ (whose z = 0
        # stays diagonal) conjugated, and a small sum
        dense = []
        if params.conductor not in dense_done:
            dense_done.add(params.conductor)
            dense = [integer_conjugate(m, rng) for m in (v1, qt, qz)]
            if v3.d + qz.d <= 4:
                dense.append(integer_conjugate(sums[1], rng))
        out.append((params, mods, twins, sums, dense))
    return out


class TestWeightCertificates:
    """The weight certificate and the weight support against the exact answers."""

    def test_ladder_needs_both_spins(self):
        params = derive_params(2, 6, 1, 1)
        rep = ladder(params, CycNumber.from_rational(params.conductor, 2))
        assert rep.d == 6 and verify_relations(rep).ok
        weights = joint_weights(gens(rep) + [theta_matrix(rep)])
        assert weights.count(weights[0]) == 1
        assert _spin_mod_p(gens(rep), {0: 1}, 6) == 6
        assert _spin_mod_p([g.transpose() for g in gens(rep)], {0: 1}, 6) == 3
        assert algebra_span_dim(gens(rep)) == 27
        weights, = _refined_weights([gens(rep) + [theta_matrix(rep)]])
        assert _norton(gens(rep), weights) is False
        # the exact spin of e_0 is the ladder's top half
        assert _certify_simple(gens(rep), [theta_matrix(rep)]) is None
        assert not is_simple(rep)

    def test_certificate_needs_a_diagonal_matrix(self):
        # a dense basis tells no two basis vectors apart and forms no
        # theta; V1 in its weight basis passes Norton's test with theta
        rep = integer_conjugate(build_v1(P23, 2, 3, 5), random.Random(40))
        weights, = _refined_weights([gens(rep)])
        assert _norton(gens(rep), weights) is None
        assert span_dim(rep) == 36 and "_theta" not in rep.__dict__
        v1 = build_v1(P23, 2, 3, 5)
        weights, = _refined_weights([gens(v1) + [theta_matrix(v1)]])
        assert _norton(gens(v1), weights) is True

    def test_property_is_simple_matches_exact_span(self):
        # The canonical builds are checked by test_simple_sweep.  Twins are
        # canonical builds and so simple, and a direct sum is never simple;
        # the exact span confirms both up to l = 6 and is skipped above,
        # where it takes most of a minute over these cases.  Wherever the
        # exact span runs, span_dim must give the same value.
        for params, mods, twins, sums, dense in weight_basis_cases():
            known_cases = [(t, True) for t in twins] + [(s, False) for s in sums]
            for rep, known in known_cases:
                if params.l <= 6:
                    exact = spin_span(gens(rep))
                    assert (exact == rep.d ** 2) == known
                    assert span_dim(rep) == exact, (params.m, params.n, rep.d)
                assert is_simple(rep) == known, (params.m, params.n, rep.d)
            for rep in dense:
                # the exact span of a dense basis finishes up to d = 4;
                # the simple ones keep the span of their canonical build
                exact = True
                if rep.d <= 4:
                    span = spin_span(gens(rep))
                    assert span_dim(rep) == span, (params.m, params.n, rep.d)
                    exact = span == rep.d ** 2
                assert is_simple(rep) == exact, (params.m, params.n, rep.d)

    def test_property_hom_space_matches_reference(self):
        # (A, A) for every family is in hom_space_cases up to l = 6
        for params, mods, twins, sums, dense in weight_basis_cases():
            pairs = list(zip(mods, twins))
            pairs += [(mods[0], mods[1]), (mods[2], mods[3]),
                      (sums[0], mods[0]), (mods[1], sums[3])]
            if params.l <= 6:
                pairs.append((sums[2], sums[2]))
            # the dense conjugates take the modular.independent path, the QPlaneZ one
            # with a diagonal z = 0 that tells no unknown apart; above l = 6
            # the exact solve of a dense V1 takes seconds
            if dense:
                pairs += [(dense[1], mods[4]), (dense[2], mods[3])]
                if params.l <= 6:
                    pairs.append((dense[0], mods[0]))
            for a, b in pairs:
                where = (params.m, params.n, a.d, b.d)
                want = reference_hom_space(gens(a), gens(b))
                assert matrix_hom_space(gens(a), gens(b)) == want, where
                th_a, th_b = theta_matrix(a), theta_matrix(b)
                if th_a.is_diagonal() and th_b.is_diagonal():
                    # theta lies in the algebra: the same hom space
                    assert matrix_hom_space(gens(a) + [th_a],
                                            gens(b) + [th_b]) == want, where


def stacked(mats):
    """The block row [M ...] as one FieldMatrix."""
    n, cond = mats[0].shape[0], mats[0].conductor
    entries, start = {}, 0
    for mat in mats:
        entries.update(((i, start + j), v) for i, row in enumerate(mat._rows)
                       for j, v in row.items())
        start += mat.shape[1]
    return FieldMatrix.from_entries(n, start, entries, cond)


def assert_left_kernel_like_row_reduce(mats):
    """left_kernel is row_reduce's nullspace of the stacked transpose."""
    block = stacked(mats)
    n, cond = block.shape[0], block.conductor
    _, rank, null = row_reduce(block.transpose())
    got = left_kernel(mats)
    zero, one = CycNumber.zero(cond), CycNumber.one(cond)
    assert [tuple(v.get(i, zero) for i in range(n)) for v in got] == null
    assert (got == []) == (rank == n)
    for v in got:
        top = max(v)
        assert v[top] == one
        assert all(top not in w for w in got if w is not v)


def eigenvalues(mat, exponent):
    """The eigenvalues of mat among its diagonal entries and the roots of
    the scalar mat^exponent, decided by row_reduce."""
    d, cond = mat.shape[0], mat.conductor
    cands = {mat[i][i] for i in range(d)}
    power = matrix_power(mat, exponent)
    power = power[0][0] if is_scalar(power) else None
    if power is not None and not power.is_zero():
        base = nth_root_in_field(power, exponent)
        if base is not None:
            cands.update(base * w for w in roots_of_unity(cond)
                         if (base * w) ** exponent == power)
    ident = FieldMatrix.identity(d, cond)
    return [t for t in cands if row_reduce(mat - ident.scale(t))[1] < d]


class TestLeftKernel:
    def test_property_left_kernel_matches_row_reduce(self):
        # Mx, My, Mz, theta and Mz - lam, and the stacked pairs that
        # classify solves, in the builder's basis and a dense one; lam and
        # gamma are the weights of v_0 in the builder's basis
        rng = random.Random(44)
        for params in all_params(6):
            for rep in families(params, rng):
                lam, gamma = rep.Mz[0][0], theta_matrix(rep)[0][0]
                for mod in (rep, integer_conjugate(rep, rng)):
                    ident = FieldMatrix.identity(mod.d, params.conductor)
                    mz_lam = mod.Mz - ident.scale(lam)
                    th = theta_matrix(mod)
                    for mats in ([mod.Mx], [mod.My], [mod.Mz], [th], [mz_lam],
                                 [mod.Mx, mz_lam],
                                 [mz_lam, th - ident.scale(gamma)]):
                        assert_left_kernel_like_row_reduce(mats)

    def test_left_kernel_without_reduction_is_exact(self):
        # lam = 1/P: Mx and Mz have no reduction mod P, so the kernel is
        # solved exactly
        prime = modular._field(6)[0]
        v2 = build_v2(P23, 2, Fraction(1, prime))
        assert modular.independent(v2.Mx._rows, 6) is None
        mz_lam = v2.Mz - FieldMatrix.identity(6, 6).scale(v2.Mz[0][0])
        assert left_kernel([v2.Mx, mz_lam])
        for mats in ([v2.Mx], [v2.Mz], [mz_lam], [v2.Mx, mz_lam]):
            assert_left_kernel_like_row_reduce(mats)

    def test_left_kernel_rejects_mixed_row_counts(self):
        with pytest.raises(ValueError, match="one row count"):
            left_kernel([FieldMatrix.identity(2, 6), FieldMatrix.identity(3, 6)])

    def test_weight_spaces_are_invariant(self):
        # why classify's _weight needs no restriction to a kernel: z
        # commutes with theta, so every left eigenspace of Mz is
        # theta-invariant, and zx = p^-1 xz, so ker Mx is Mz-invariant
        rng = random.Random(45)
        for params in all_params(6):
            cond = params.conductor
            for rep in families(params, rng):
                weights = eigenvalues(rep.Mz, params.m)
                # on QPlaneTheta theta is zero, and Mz may have no
                # eigenvalue in the working field
                assert weights or theta_matrix(rep).is_zero()
                for mod in (rep, integer_conjugate(rep, rng)):
                    ident = FieldMatrix.identity(mod.d, cond)
                    th = theta_matrix(mod)
                    for t in weights:
                        space = mod.Mz - ident.scale(t)
                        _, _, null = row_reduce(space.transpose())
                        assert null
                        for v in null:
                            row = FieldMatrix([v], cond)
                            assert (row * space).is_zero()
                            assert (row * th * space).is_zero()
                    _, _, null = row_reduce(mod.Mx.transpose())
                    for v in null:
                        row = FieldMatrix([v], cond)
                        assert (row * mod.Mx).is_zero()
                        assert (row * mod.Mz * mod.Mx).is_zero()


def interleaved(rep):
    """rep with its even basis vectors first: a permutation conjugate, so
    the blocks of a direct sum are no longer contiguous."""
    d, cond = rep.d, rep.params.conductor
    order = list(range(0, d, 2)) + list(range(1, d, 2))
    u = FieldMatrix.from_entries(d, d, {(i, k): 1 for i, k in enumerate(order)},
                                 cond)
    return conjugate(rep, u, u.transpose())


def summed(*parts):
    out = parts[0]
    for part in parts[1:]:
        out = direct_sum(out, part)
    return out


@functools.lru_cache(maxsize=1)
def split_cases():
    """(params, block-diagonal sum, its `spin_span`, whether every block
    is simple) for l <= 6."""
    rng = random.Random(19)
    kinds = (KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z, KIND_QPLANE_THETA)
    out = []
    for params in all_params(6):
        scalars = sample_scalars(params, rng, 5)
        mu, lam, gam, a, b = scalars
        v1, v2, v3, qz, qt = (
            build_v1(params, mu, lam, gam), build_v2(params, mu, lam),
            build_v3(params, lam), build_qplane(params, Z_TORSION, a, b),
            build_qplane(params, THETA_TORSION, a, b))
        tw = [twin(params, kind, scalars, rng) for kind in kinds]
        one_a = build_one_dim(params, mu, 0, 0)
        one_b = build_one_dim(params, 2 * mu, 0, 0)
        cases = [summed(v3, qz), summed(v2, tw[1], one_b),
                 summed(qt, tw[4]), summed(qz, tw[3], v3),
                 summed(one_a, one_b), summed(one_a, one_a),
                 summed(one_a, one_b, one_a), summed(v3, qz, one_a)]
        for pair in (summed(v1, v2), summed(v1, tw[0])):
            cases += [pair, interleaved(pair)]
        # a block that is not simple: the exact spin answers
        cases.append(summed(ladder(params, lam), one_a))
        out += [(params, rep, spin_span(gens(rep)), k < len(cases) - 1)
                for k, rep in enumerate(cases)]
    return out


# QPlaneTheta + V1 at (2, 3) as a module file ran `module-simple` past 90 s
FOUND_SUMS = [((m, n), kind) for m, n in ((2, 3), (3, 2), (3, 6), (5, 1), (5, 5))
              for kind in (KIND_V1, KIND_V2, KIND_V3)] + [((5, 5), KIND_QPLANE_Z)]


class TestBlockSplit:
    """algebra_span_dim on block-diagonal generators against the unsplit spin."""

    def test_property_split_matches_spin_oracle(self):
        for params, rep, span, _ in split_cases():
            assert algebra_span_dim(gens(rep)) == span, \
                (params.m, params.n, params.k1, params.k2, rep.d)

    @pytest.mark.parametrize("where,stub", [
        ("_norton", lambda gens, elements: False),
        ("_spin_mod_p", lambda gens, seed, full: 0)],
        ids=["norton_false", "spin_mod_p_zero"])
    def test_property_split_matches_spin_oracle_on_fallbacks(self, where,
                                                             stub, monkeypatch):
        # without Norton each class representative takes the b^2 spin mod
        # P; without any spin mod P the exact spin of the identity answers
        monkeypatch.setattr(linalg, where, stub)
        for params, rep, span, _ in split_cases():
            assert algebra_span_dim(gens(rep)) == span, \
                (params.m, params.n, params.k1, params.k2, rep.d)

    def test_norton_decides_the_simple_blocks(self, monkeypatch):
        # every simple block of these sums has a weight of its own under
        # its diagonal generators and words, so no b^2 spin mod P runs
        spin_mod_p = linalg._spin_mod_p

        def vectors_only(gens, seed, full):
            if full != gens[0].shape[0]:
                pytest.fail("span mod P computed")
            return spin_mod_p(gens, seed, full)

        monkeypatch.setattr(linalg, "_spin_mod_p", vectors_only)
        for params, rep, span, simple_blocks in split_cases():
            if simple_blocks:
                assert algebra_span_dim(gens(rep)) == span

    def test_reducible_block_is_spun_exactly_first(self, monkeypatch):
        # the ladder block is connected, in a weight basis, and not simple:
        # the exact spin of e_0 shows its submodule, so the block is given
        # up with no spin of its b x b identity mod P
        params = derive_params(2, 6, 1, 1)
        rep = summed(ladder(params, CycNumber.from_rational(params.conductor, 2)),
                     build_v1(params, 2, 3, 5))
        spin_mod_p = linalg._spin_mod_p
        fulls = []

        def counted(mats, seed, full):
            fulls.append((mats[0].shape[0], full))
            return spin_mod_p(mats, seed, full)

        monkeypatch.setattr(linalg, "_spin_mod_p", counted)
        assert algebra_span_dim(gens(rep)) == spin_span(gens(rep))
        assert fulls and all(full == b for b, full in fulls)

    def test_connected_input_solves_no_hom_space(self, monkeypatch):
        # one block: the exact spin of the identity runs as before
        monkeypatch.setattr(linalg, "matrix_hom_space", lambda a, b: pytest.fail(
            "hom space solved"))
        monkeypatch.setattr(linalg, "_spin_mod_p", lambda gens, seed, full:
                            pytest.fail("block spun mod P"))
        rng = random.Random(20)
        for params in all_params(5):
            for rep in families(params, rng):
                assert algebra_span_dim(gens(rep)) == rep.d ** 2
            mu = sample_scalars(params, rng, 1)[0]
            dense = integer_conjugate(summed(build_one_dim(params, mu, 0, 0),
                                             build_one_dim(params, 2 * mu, 0, 0)),
                                      rng)
            # only Mx is nonzero, and an off-diagonal entry joins 0 and 1
            assert not dense.Mx.is_diagonal()
            assert algebra_span_dim(gens(dense)) == spin_span(gens(dense)) == 2

    def test_no_reduction_takes_the_exact_spin(self, monkeypatch):
        monkeypatch.setattr(modular, "reduced", lambda mats: None)
        for rep in (summed(build_v1(P23, 2, 3, 5), build_v2(P23, 2, 3)),
                    summed(build_v3(P23, 1), build_v3(P23, 1))):
            assert algebra_span_dim(gens(rep)) == spin_span(gens(rep))

    @pytest.mark.parametrize("pair,kind", FOUND_SUMS,
                             ids=[f"{m},{n}-{kind}" for (m, n), kind in FOUND_SUMS])
    def test_theta_torsion_sum_span(self, pair, kind):
        params = derive_params(*pair)
        a = build_qplane(params, THETA_TORSION, 2, 3)
        b = build_from_descriptor(params, ModuleDescriptor(
            kind, mu=CycNumber.from_rational(params.conductor, 2),
            lam=CycNumber.from_rational(params.conductor, 3),
            gamma=CycNumber.from_rational(params.conductor, 5)))
        assert span_dim(direct_sum(a, b)) == a.d ** 2 + b.d ** 2


class TestPiDegreeRung:
    """is_simple answers False above the PI degree l, with no span."""

    def test_property_matches_spin_span(self, monkeypatch):
        # sums with d > l, where the rung decides, sums with d <= l, where
        # it must not fire, and simple builds with d = l; in the builders'
        # basis and as integer conjugates, whose span is the builder's
        rng = random.Random(21)
        spans = []
        certified = reps._certified_span
        monkeypatch.setattr(reps, "_certified_span",
                            lambda rep: spans.append(rep) or certified(rep))
        fired = kept = 0
        dense_done = set()
        for params in all_params(6):
            # the relation checks of the dense sums dominate; the first
            # parameter set of each conductor takes them
            dense = params.conductor not in dense_done
            dense_done.add(params.conductor)
            v1, v2, v3, qz, qt = families(params, rng)
            mu = sample_scalars(params, rng, 1)[0]
            one_a = build_one_dim(params, mu, 0, 0)
            one_b = build_one_dim(params, 2 * mu, 0, 0)
            for rep in (v1, v2, summed(v1, v2), summed(v2, v2), summed(v3, qz),
                        summed(qz, qt), summed(one_a, one_b),
                        summed(one_a, one_b, one_a)):
                exact = spin_span(gens(rep))
                mods = [rep]
                # a dense non-simple module with d <= l still reaches the
                # exact span, which finishes up to d = 4
                if dense and (rep.d > params.l or rep.d <= 4
                              or exact == rep.d ** 2):
                    mods.append(integer_conjugate(rep, rng))
                for mod in mods:
                    where = (params.m, params.n, params.k1, params.k2, mod.d,
                             mod is rep)
                    del spans[:]
                    assert is_simple(mod) == (exact == mod.d ** 2), where
                    assert (spans == []) == (mod.d > params.l), where
                    fired += mod.d > params.l
                    kept += mod.d <= params.l and exact < mod.d ** 2
        assert fired > 200 and kept > 100

    def test_rung_survives_optimize_flag(self):
        # the rung is a branch, not an assert: under python -O it still
        # answers a sum with d > l, with the span ladder stubbed to fail
        code = textwrap.dedent("""
            import qheisenberg.reps as reps
            from qheisenberg.arith import derive_params
            assert False, "asserts are active"
            params = derive_params(2, 3, 1, 1)
            v1 = reps.build_v1(params, 1, 2, 3)
            print(reps.is_simple(v1))
            reps._certified_span = lambda rep: 1 // 0
            print(reps.is_simple(reps.direct_sum(v1, v1)),
                  reps.is_simple(reps.direct_sum(
                      reps.build_v3(params, 1), reps.build_v3(params, 2))))
        """)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split("\n") == ["True", "False False", ""]


def sheared(a, b):
    """a + b conjugated by u = I + sum_i E_(i, d+i): with equal z weights on
    a and b, z stays diagonal, but xy and yx do not when theirs differ."""
    d, cond = a.d, a.params.conductor
    u = FieldMatrix.identity(2 * d, cond) + FieldMatrix.from_entries(
        2 * d, 2 * d, {(i, d + i): 1 for i in range(d)}, cond)
    return conjugate(direct_sum(a, b), u, inverse(u))


def pinned(rep):
    """rep + rep conjugated by u = I + E_(0, d).  u commutes with every
    diagonal D + D, so z, xy and yx keep their diagonal; x and y do not,
    and their product xy is diagonal only because entries cancel."""
    d, cond = rep.d, rep.params.conductor
    u = FieldMatrix.identity(2 * d, cond) + FieldMatrix.from_entries(
        2 * d, 2 * d, {(0, d): 1}, cond)
    return conjugate(direct_sum(rep, rep), u, inverse(u))


def generator_products(monkeypatch, mats):
    """A list that gets one entry per product of two of the given matrices."""
    ids = {id(m) for m in mats}
    products = []
    matmul = FieldMatrix._matmul

    def recorded(self, other):
        if id(self) in ids and id(other) in ids:
            products.append((self, other))
        return matmul(self, other)

    monkeypatch.setattr(FieldMatrix, "_matmul", recorded)
    return products


class TestWordSupport:
    """matrix_hom_space with the weights of diagonal words A_g A_h."""

    def test_property_matches_reference(self):
        # every order pair (m, n) with l <= 6, at a seeded (k1, k2), and (4, 6)
        rng = random.Random(20)
        kinds = (KIND_V1, KIND_V2, KIND_V3, KIND_QPLANE_Z, KIND_QPLANE_THETA)
        orders = sorted({(params.m, params.n) for params in all_params(6)})
        for m, n in orders + [(4, 6)]:
            params = derive_params(m, n, *rng.choice(valid_pairs(m, n)))
            scalars = sample_scalars(params, rng, 5)
            mu, lam, gam, a, b = scalars
            mods = [build_v1(params, mu, lam, gam), build_v2(params, mu, lam),
                    build_v3(params, lam), build_qplane(params, Z_TORSION, a, b),
                    build_qplane(params, THETA_TORSION, a, b)]
            pairs = []
            for mod, kind in zip(mods, kinds):
                tw = twin(params, kind, scalars, rng)
                pairs.append((mod, tw))
                if mod.d <= 6:
                    both = direct_sum(mod, tw)
                    pairs += [(both, both), (both, mod), (mod, both)]
            v1, other = mods[0], build_v1(params, mu, lam, 11 * gam)
            if v1.d <= 6:
                # z keeps its weights, xy and yx lose their diagonal on one side
                mixed = sheared(v1, other)
                both = interleaved(direct_sum(v1, other))
                pairs += [(v1, mixed), (mixed, v1), (mixed, mixed),
                          (both, both), (both, other)]
            for x, y in pairs:
                where = (params.m, params.n, params.k1, params.k2, x.d, y.d)
                assert matrix_hom_space(gens(x), gens(y)) == \
                    reference_hom_space(gens(x), gens(y)), where

    def test_dense_pair_forms_no_word(self, monkeypatch):
        # no generator is diagonal in a dense basis; with theta the weights
        # of a V1 build are distinct, so find_intertwiner forms none either
        v1 = build_v1(P23, zeta_power(6, 1), 2, 3)
        rng = random.Random(21)
        dense = [integer_conjugate(v1, rng) for _ in range(2)]
        tw = build_v1(P23, zeta_power(6, 1), 2 * P23.p, 3 * P23.q ** -1)
        cases = [(gens(dense[0]), gens(dense[1])),
                 (gens(v1) + [theta_matrix(v1)], gens(tw) + [theta_matrix(tw)])]
        for mats_a, mats_b in cases:
            products = generator_products(monkeypatch, mats_a + mats_b)
            assert len(matrix_hom_space(mats_a, mats_b)) == 1
            assert products == []
        # without theta, z repeats its weights (ord(p) = 2 < 6), so the
        # words xy and yx are formed
        products = generator_products(monkeypatch, gens(v1) + gens(tw))
        assert len(matrix_hom_space(gens(v1), gens(tw))) == 1
        assert len(products) > 0

    def test_word_diagonal_by_cancellation_gives_the_reference(self):
        # the pattern gate leaves out xy, which only cancellation makes
        # diagonal; the support is then larger, and the basis the same
        for params in (P23, P44, P24, derive_params(4, 6)):
            for rep in (build_v1(params, 2, 3, 5), build_v3(params, 3)):
                mod = pinned(rep)
                assert mod.Mz == direct_sum(rep, rep).Mz
                assert (mod.Mx * mod.My).is_diagonal()
                assert linalg._diagonal_words([(mod.Mx, mod.My)]) is None
                for x, y in ((mod, mod), (mod, rep), (rep, mod)):
                    where = (params.m, params.n, x.d, y.d)
                    assert matrix_hom_space(gens(x), gens(y)) == \
                        reference_hom_space(gens(x), gens(y)), where

    def test_only_diagonal_words_are_formed(self, monkeypatch):
        # z repeats its weights on V1 at (2, 3): of the words xx, xy, yx
        # and yy only xy and yx have a diagonal pattern, and only they are
        # multiplied out, once on each side
        v1 = build_v1(P23, zeta_power(6, 1), 2, 3)
        tw = build_v1(P23, zeta_power(6, 1), 2 * P23.p, 3 * P23.q ** -1)
        names = {id(m.Mx): "x" for m in (v1, tw)}
        names.update((id(m.My), "y") for m in (v1, tw))
        products = generator_products(monkeypatch, gens(v1) + gens(tw))
        assert len(matrix_hom_space(gens(v1), gens(tw))) == 1
        assert sorted(names[id(a)] + names[id(b)] for a, b in products) == \
            ["xy", "xy", "yx", "yx"]

    def test_end_of_v3_sum_inserts_few_equations(self, monkeypatch):
        # End(V3 + V3') at (4, 6): 144 unknowns and 280 touched equations
        # on the z weights alone, which repeat with period ord(p) = 4 < 6;
        # xy and yx tell apart the vectors that share one
        params = derive_params(4, 6)
        v3 = build_v3(params, Fraction(3, 2))
        both = direct_sum(v3, build_v3(params, Fraction(3, 2)))
        calls = count_inserts(monkeypatch)
        assert len(matrix_hom_space(gens(both), gens(both))) == 4
        assert len(calls) <= 100
