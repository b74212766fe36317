"""Integer layer: parameter admissibility, SNF, PI degree, ord(pq) classification."""

import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations

import pytest

from qheisenberg import arith
from qheisenberg.arith import (
    ALWAYS_MAX,
    ALWAYS_NONMAX,
    MAX_CONDUCTOR,
    MAX_SCAN_PAIRS,
    MIXED,
    InvalidParameters,
    classify_pair,
    derive_params,
    ord_formula,
    ord_pq,
    pair_rs,
    pi_degree,
    pi_degree_snf,
    relation_matrix,
    scan_orders,
    smith_normal_form,
    valid_pairs,
)
from qheisenberg.cyclotomic import order_of_unit, zeta_power


def all_params(max_l, **kw):
    for m in range(1, max_l + 1):
        for n in range(1, max_l + 1):
            if math.lcm(m, n) > max_l:
                continue
            for k1, k2 in valid_pairs(m, n):
                yield derive_params(m, n, k1, k2, **kw)


def test_derive_params_anchor_2_3():
    ps = derive_params(2, 3, 1, 1)
    assert (ps.s1, ps.s2, ps.l) == (3, 2, 6)
    assert ps.p == zeta_power(6, 3) == -1
    assert ps.q == zeta_power(6, 2)
    assert order_of_unit(ps.p) == 2 and order_of_unit(ps.q) == 3


def test_derive_params_equal_orders():
    ps = derive_params(4, 4, 1, 1)
    assert (ps.s1, ps.s2, ps.l) == (1, 1, 4)
    assert ps.p == ps.q == zeta_power(4, 1)


def test_derive_params_rejects_pq_one():
    with pytest.raises(InvalidParameters):
        derive_params(2, 2, 1, 1)  # s1k1+s2k2 = 2 = 0 mod 2
    with pytest.raises(InvalidParameters):
        derive_params(4, 4, 1, 3)
    with pytest.raises(InvalidParameters):
        derive_params(3, 3, 1, 2)


def test_derive_params_partner_of_a_given_index(monkeypatch):
    assert derive_params(2, 3, k1=1) == derive_params(2, 3, 1, 1)
    assert derive_params(4, 6, k2=5) == derive_params(4, 6, 1, 5)
    # a valid index always has a partner once (m, n) admits a pair, so
    # the message is reached only through a stubbed pair check
    monkeypatch.setattr("qheisenberg.arith.is_valid_pair",
                        lambda m, n, k1, k2: (k1, k2) == (1, 1))
    with pytest.raises(InvalidParameters) as err:
        derive_params(2, 3, k2=2)
    assert str(err.value) == ("k2 = 2 has no admissible partner index "
                              "for (m, n) = (2, 3)")


def test_derive_params_rejects_bad_gcd_and_range():
    with pytest.raises(InvalidParameters):
        derive_params(4, 4, 2, 1)
    with pytest.raises(InvalidParameters):
        derive_params(4, 4, 1, 4)
    with pytest.raises(InvalidParameters):
        derive_params(1, 1)
    with pytest.raises(InvalidParameters):
        derive_params(2, 2)
    with pytest.raises(InvalidParameters):
        derive_params(0, 3, 0, 1)


def test_derive_params_m_equals_one_boundary():
    ps = derive_params(1, 3, 0, 1)
    assert ps.p == 1 and order_of_unit(ps.q) == 3
    ps = derive_params(3, 1, 1, 0)
    assert ps.q == 1 and order_of_unit(ps.p) == 3
    # defaults pick the smallest admissible pair
    assert (derive_params(1, 3).k1, derive_params(1, 3).k2) == (0, 1)
    assert (derive_params(2, 3).k1, derive_params(2, 3).k2) == (1, 1)


def test_derive_params_larger_conductor():
    ps = derive_params(2, 3, 1, 1, conductor=12)
    assert ps.p == zeta_power(12, 6) and ps.q == zeta_power(12, 4)
    with pytest.raises(InvalidParameters):
        derive_params(2, 3, 1, 1, conductor=8)


def test_derive_params_conductor_limit(monkeypatch):
    assert derive_params(8, 125).conductor == MAX_CONDUCTOR == 1000
    assert derive_params(2, 3, 1, 1, conductor=996).conductor == 996
    # refused before any pair is listed or any table of the field is built
    for name in ("valid_pairs", "_admissible", "_derive"):
        monkeypatch.setattr(arith, name, lambda *args, name=name: pytest.fail(name))
    with pytest.raises(InvalidParameters, match="MAX_CONDUCTOR = 1000"):
        derive_params(1000003, 2)
    with pytest.raises(InvalidParameters, match="conductor 1002 exceeds"):
        derive_params(2, 3, 1, 1, conductor=1002)


@pytest.mark.parametrize("args,kwargs,name", [
    ((2, 3, True, 1), {}, "k1"),
    ((2, 3, 1, True), {}, "k2"),
    ((True, 2), {}, "m"),
    ((2, True), {}, "n"),
    ((2.0, 3), {}, "m"),
    ((2, 3), {"conductor": 6.0}, "conductor"),
    ((2, 3), {"conductor": True}, "conductor"),
], ids=["k1_bool", "k2_bool", "m_bool", "n_bool", "m_float",
        "conductor_float", "conductor_bool"])
def test_derive_params_arguments_must_be_ints(args, kwargs, name, monkeypatch):
    # refused before any arithmetic and before the cache of _derive
    monkeypatch.setattr(arith, "_derive", lambda *a: pytest.fail("_derive"))
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        derive_params(*args, **kwargs)


@pytest.mark.parametrize("fn", [arith.scan_orders, arith.valid_pairs,
                                arith.classify_pair, arith.pi_degree],
                         ids=["scan_orders", "valid_pairs", "classify_pair",
                              "pi_degree"])
@pytest.mark.parametrize("args,name", [
    ((True, 3), "m"), ((2, True), "n"), ((2.0, 3), "m"), ((2, 2.5), "n")],
    ids=["m_bool", "n_bool", "m_float", "n_float"])
def test_order_pair_arguments_must_be_ints(fn, args, name):
    # a bool would answer as 1 and a float end in an internal TypeError
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        fn(*args)


def test_refused_bool_leaves_the_cache_clean():
    # True == 1 in the cache of _derive, so a bool that got through would
    # hand every later clean call a params object with k1 = True
    arith._derive.cache_clear()
    with pytest.raises(TypeError):
        derive_params(2, 3, True, 1)
    data = derive_params(2, 3, 1, 1).to_json()
    assert data == {"m": 2, "n": 3, "k1": 1, "k2": 1}
    assert all(type(v) is int for v in data.values())


def test_admissibility_stops_at_the_first_pair(monkeypatch):
    # (1000, 1000) has 159,600 admissible pairs; each question needs one
    calls = []
    real = arith.is_valid_pair
    monkeypatch.setattr(arith, "is_valid_pair",
                        lambda *args: calls.append(args) or real(*args))
    assert pi_degree(1000, 1000) == 1000
    assert len(calls) < 10
    calls.clear()
    assert classify_pair(1000, 1000) == ALWAYS_NONMAX
    assert len(calls) < 10
    calls.clear()
    # the field tables of Q(zeta_1000) are not what this test measures
    monkeypatch.setattr(arith, "_derive", lambda *args: args)
    assert derive_params(1000, 1000) == (1000, 1000, 1, 1, 1000)
    assert len(calls) < 10


def test_default_indices_are_the_first_admissible_pair():
    for m in range(1, 25):
        for n in range(1, 25):
            if math.lcm(m, n) > 24:
                continue
            pairs = valid_pairs(m, n)
            if not pairs:
                with pytest.raises(InvalidParameters, match="no admissible|m = n = 1"):
                    derive_params(m, n)
                continue
            ps = derive_params(m, n)
            assert (ps.k1, ps.k2) == pairs[0], (m, n)
            # a given index takes its smallest partner
            for k1, k2 in pairs:
                assert derive_params(m, n, k1=k1).k2 == min(b for a, b in pairs if a == k1)
                assert derive_params(m, n, k2=k2).k1 == min(a for a, b in pairs if b == k2)


def test_relation_matrix_anchor():
    assert relation_matrix(derive_params(2, 3, 1, 1)) == [
        [0, -3, 3], [3, 0, -2], [-3, 2, 0]]
    assert relation_matrix(derive_params(1, 5, 0, 2)) == [
        [0, 0, 0], [0, 0, -2], [0, 2, 0]]
    for ps in all_params(10):
        h = relation_matrix(ps)
        for i in range(3):
            for j in range(3):
                assert h[i][j] == -h[j][i]


def test_snf_anchors():
    assert smith_normal_form([[0, -3, 3], [3, 0, -2], [-3, 2, 0]]) == [1, 1, 0]
    assert smith_normal_form([[0, 2], [-2, 0]]) == [2, 2]
    assert smith_normal_form([[0, 0], [0, 0]]) == [0, 0]


def int_det(mat):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in mat]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(mat, k):
    # gcd of all k x k minors: the k-th determinantal divisor
    rows, cols = len(mat), len(mat[0])
    g = 0
    for ri in combinations(range(rows), k):
        for ci in combinations(range(cols), k):
            sub = [[mat[i][j] for j in ci] for i in ri]
            g = math.gcd(g, int_det(sub))
    return g


@pytest.mark.parametrize("mat,error", [
    ([[1.5, 2]], TypeError),
    ([[True, 2]], TypeError),
    ([[Fraction(1), 2]], TypeError),
    ([(1, 2)], TypeError),
    (((1, 2),), TypeError),
    ([[1], [2, 3]], ValueError),
    ([[1, 2], [3]], ValueError),
    ([], ValueError),
    ([[]], ValueError),
], ids=["float", "bool", "fraction", "tuple_row", "tuple_matrix",
        "short_first_row", "short_last_row", "no_row", "empty_row"])
def test_snf_refuses_inexact_or_malformed_input(mat, error):
    with pytest.raises(error, match="matrix"):
        smith_normal_form(mat)


def test_snf_random_unimodular_and_divisor_chain():
    rng = random.Random(99)
    for _ in range(60):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        mat = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(rows)]
        diag = smith_normal_form(mat)
        assert len(diag) == min(rows, cols)
        for a, b in zip(diag, diag[1:]):
            assert a >= 0
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        # determinantal-divisor route: d_k = D_k / D_{k-1}
        prev = 1
        for k in range(1, min(rows, cols) + 1):
            dk = minor_gcd(mat, k)
            if prev == 0:
                assert dk == 0
            else:
                assert diag[k - 1] == (dk // prev if dk else 0)
            prev = dk


def test_pi_degree_snf_anchors():
    assert pi_degree_snf(derive_params(2, 3, 1, 1)) == 6
    assert pi_degree_snf(derive_params(1, 5, 0, 1)) == 5
    # (4,4,1,3) is rejected by validation (pq = 1), but its twist matrix
    # arithmetic is still well-defined: h1 = gcd(1,3) = 1, so l/gcd(h1,l) = 4
    diag = smith_normal_form([[0, -1, 1], [1, 0, -3], [-1, 3, 0]])
    assert 4 // math.gcd(diag[0], 4) == 4


def test_pi_degree_closed_form():
    assert pi_degree(2, 3) == 6
    assert pi_degree(1, 7) == 7
    assert pi_degree(12, 18) == 36
    with pytest.raises(InvalidParameters):
        pi_degree(2, 2)


def test_pi_degree_agreement_up_to_24():
    for ps in all_params(24):
        assert pi_degree_snf(ps) == pi_degree(ps.m, ps.n) == ps.l
        h1 = math.gcd(ps.s1 * ps.k1, ps.s2 * ps.k2)
        assert smith_normal_form(relation_matrix(ps))[0] == h1
        assert math.gcd(h1, ps.l) == 1


def test_pair_rs():
    assert pair_rs(derive_params(2, 3, 1, 1)) == (0, 0)  # coprime orders
    assert pair_rs(derive_params(3, 5, 2, 3)) == (0, 0)
    assert pair_rs(derive_params(4, 4, 1, 1)) == (1, 1)
    assert pair_rs(derive_params(2, 4, 1, 1)) == (1, 2)
    ps = derive_params(2, 4, 1, 1)
    assert ps.p ** 1 == ps.q ** 2 == -1
    for ps in all_params(12):
        r, s = pair_rs(ps)
        assert 0 <= r < ps.m and 0 <= s < ps.n
        assert ps.p ** r == ps.q ** s


def test_ord_pq_anchors():
    assert ord_pq(derive_params(2, 3, 1, 1)) == 6
    assert ord_pq(derive_params(4, 4, 1, 1)) == 2
    assert ord_formula(2, 3, 1, 1) == 6
    assert ord_formula(4, 4, 1, 1) == 2


def test_ord_pq_field_cross_check_up_to_24():
    for ps in all_params(24):
        value = ord_pq(ps)
        assert order_of_unit(ps.p * ps.q) == value
        assert ps.l % value == 0
        if math.gcd(ps.m, ps.n) == 1:
            assert value == ps.l


def test_invariant_checks_survive_optimize_flag():
    # the cross-check in ord_pq is an explicit raise, so it still runs
    # under python -O, which strips assert statements
    code = textwrap.dedent("""
        import qheisenberg.cyclotomic as cyclotomic
        from qheisenberg.arith import derive_params, ord_pq
        assert False, "asserts are active"
        cyclotomic.order_of_unit = lambda a: 5
        try:
            ord_pq(derive_params(2, 3, 1, 1))
        except ArithmeticError as exc:
            print(exc)
        else:
            print("no error")
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ("ord_pq(m=2, n=3, k1=1, k2=1): formula gives 6, "
                                  "the field element has order 5")


def test_ord_denominator_prime_structure():
    for ps in all_params(24):
        g = math.gcd(ps.m, ps.n)
        d = math.gcd(ps.m * ps.k2 + ps.n * ps.k1, ps.m * ps.n)
        assert d % g == 0
        assert _prime_set(d) == _prime_set(g)


def _prime_set(n):
    out = set()
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.add(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


def test_classification_anchors():
    assert classify_pair(3, 3) == ALWAYS_MAX
    assert classify_pair(4, 4) == ALWAYS_NONMAX
    assert classify_pair(9, 9) == MIXED
    assert classify_pair(2, 3) == ALWAYS_MAX
    assert classify_pair(6, 6) == ALWAYS_NONMAX
    assert classify_pair(3, 6) == MIXED
    assert classify_pair(4, 6) == ALWAYS_MAX
    with pytest.raises(InvalidParameters):
        classify_pair(2, 2)


def test_scan_anchors():
    rep = scan_orders(2, 3)
    assert rep.verdict == ALWAYS_MAX
    assert rep.entries == {(1, 1): 6, (1, 2): 6}
    rep = scan_orders(4, 4)
    assert rep.verdict == ALWAYS_NONMAX
    assert set(rep.entries.values()) <= {1, 2}
    rep = scan_orders(9, 9)
    assert rep.verdict == MIXED
    assert rep.entries[(1, 1)] == 9 and rep.entries[(1, 2)] == 3


def test_scan_pair_limit(monkeypatch):
    assert len(scan_orders(24, 24).entries) == 56
    assert len(scan_orders(50000, 2).entries) == 20000    # m * n at the limit
    # an order below 1 lists nothing, whatever the other order is
    assert valid_pairs(10 ** 12, 0) == valid_pairs(-1, 10 ** 12) == []
    with pytest.raises(InvalidParameters, match="no admissible parameters"):
        scan_orders(10 ** 12, 0)
    # refused before any pair is listed
    monkeypatch.setattr(arith, "valid_pairs", lambda m, n: pytest.fail("listed"))
    for m, n in ((1000003, 2), (MAX_SCAN_PAIRS + 1, 1), (317, 317)):
        with pytest.raises(InvalidParameters, match="MAX_SCAN_PAIRS = 100000"):
            scan_orders(m, n)


def test_scan_report_json_shape():
    data = scan_orders(2, 3).to_json()
    assert data == {"m": 2, "n": 3, "verdict": "ALWAYS_MAX",
                    "entries": [{"k1": 1, "k2": 1, "ord": 6},
                                {"k1": 1, "k2": 2, "ord": 6}]}


def test_classify_agrees_with_scan_up_to_24():
    for m in range(1, 25):
        for n in range(1, 25):
            if not valid_pairs(m, n):
                continue
            rep = scan_orders(m, n)
            assert classify_pair(m, n) == rep.verdict, (m, n)
            l = math.lcm(m, n)
            assert all(l % o == 0 for o in rep.entries.values())


def test_params_json_roundtrip():
    ps = derive_params(2, 3, 1, 1)
    assert ps.to_json() == {"m": 2, "n": 3, "k1": 1, "k2": 1}
    from qheisenberg.arith import AlgebraParams
    assert AlgebraParams.from_json(ps.to_json()) == ps
    ps = derive_params(2, 3, 1, 1, conductor=12)
    assert ps.to_json()["conductor"] == 12
    assert AlgebraParams.from_json(ps.to_json()) == ps
