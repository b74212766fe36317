"""Normal-form engine: products, rewriting, twisted integers, theta, center."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qheisenberg import pbw
from qheisenberg.arith import derive_params, ord_formula, valid_pairs
from qheisenberg.cyclotomic import CycNumber, zeta_power
from qheisenberg.pbw import (
    DEGREE_CAP,
    POWER_BITS_CAP,
    POWER_PAIR_CAP,
    PbwElement,
    center_generators,
    commutation_twist,
    generators,
    is_central,
    omega,
    pq_number,
    product,
    product_via_rewriting,
    theta,
)
from qheisenberg.pbw import _pq_numbers, _yk_xj

PS23 = derive_params(2, 3, 1, 1)
PS44 = derive_params(4, 4, 1, 1)
PS24 = derive_params(2, 4, 1, 1)
PS33 = derive_params(3, 3, 1, 1)


@dataclasses.dataclass(frozen=True, order=True)
class LexDegree:
    """An (x, y)-degree pair, ordered lexicographically: x first, then y."""

    u: int
    v: int


def xy_coefficient(a, u, v):
    """The z-polynomial coefficient of x^u y^v inside a."""
    return PbwElement(a.params, {(i, 0, 0): c for (i, j, k), c in a.terms.items()
                                 if (j, k) == (u, v)})


def lex_degree(a):
    """Largest (x, y)-exponent pair in lexicographic order, with its coefficient.

    The coefficient is returned as a polynomial in z (a PbwElement
    supported on x^0 y^0 monomials).
    """
    if a.is_zero():
        raise ValueError("zero element has no degree")
    u, v = max((j, k) for (_, j, k) in a.terms)
    return LexDegree(u, v), xy_coefficient(a, u, v)


def mono(ps, i, j, k, c=1):
    return PbwElement.monomial(ps, i, j, k, c)


def random_element(ps, rng, max_exp=3, max_terms=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        key = (rng.randint(0, max_exp), rng.randint(0, max_exp), rng.randint(0, max_exp))
        terms[key] = CycNumber.from_rational(ps.conductor,
                                             Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
    return PbwElement(ps, terms)


def test_defining_relations():
    for ps in (PS23, PS44, PS24):
        x, y, z = generators(ps)
        assert product(z, x) == ps.p.inverse() * product(x, z)
        assert product(z, y) == ps.p * product(y, z)
        assert product(y, x) - ps.q * product(x, y) == z


def test_product_examples():
    x, y, z = generators(PS23)
    q = PS23.q
    assert product(y, x) == q * mono(PS23, 0, 1, 1) + z
    assert product(x, z) == PS23.p * mono(PS23, 1, 1, 0)
    assert product(y, mono(PS23, 0, 2, 0)) == (
        q ** 2 * mono(PS23, 0, 2, 1)
        + pq_number(PS23, 2) * product(x, z))
    assert product(mono(PS23, 0, 0, 2), x) == (
        q ** 2 * mono(PS23, 0, 1, 2)
        + pq_number(PS23, 2) * mono(PS23, 1, 0, 1))


def test_lemma_identities_k_up_to_10():
    for ps in (PS23, PS44, PS24):
        x, y, z = generators(ps)
        for k in range(1, 11):
            qk = ps.q ** k
            ck = pq_number(ps, k)
            assert product(y, mono(ps, 0, k, 0)) == (
                qk * mono(ps, 0, k, 1) + ck * product(mono(ps, 0, k - 1, 0), z))
            assert product(mono(ps, 0, 0, k), x) == (
                qk * mono(ps, 0, 1, k) + ck * mono(ps, 1, 0, k - 1))


def test_pq_number():
    assert pq_number(PS23, 0) == CycNumber.zero(6)
    assert pq_number(PS23, 1) == CycNumber.one(6)
    assert pq_number(PS24, 4).is_zero()  # both orders divide 4
    for ps in (PS23, PS44, PS24, PS33):
        denom = ps.q - ps.p.inverse()
        o = ord_formula(ps.m, ps.n, ps.k1, ps.k2)
        for k in [*range(13), 10 ** 6 + 5]:
            quotient = (ps.q ** k - ps.p ** -k) * denom.inverse()
            assert pq_number(ps, k) == quotient
            assert pq_number(ps, k).is_zero() == (k % o == 0)


def test_running_pq_numbers_match_pq_number():
    # the builders' list [0], ..., [l], one from the last, and pq_number,
    # both against the defining sum of q^i p^-(k-1-i) over 0 <= i < k, at
    # every parameter set with l <= 24
    seen = 0
    for m in range(1, 25):
        for n in range(1, 25):
            if math.lcm(m, n) > 24:
                continue
            for k1, k2 in valid_pairs(m, n):
                ps = derive_params(m, n, k1, k2)
                assert ps.l <= 24
                sums = [sum((ps.power(-(k - 1 - i), i) for i in range(k)),
                            CycNumber.zero(ps.conductor))
                        for k in range(ps.l + 1)]
                numbers = _pq_numbers(ps, ps.l + 1)
                assert len(numbers) == ps.l + 1
                assert numbers == sums
                assert [pq_number(ps, k) for k in range(ps.l + 1)] == sums
                seen += 1
    assert seen > 1000


def test_reordering_reads_one_list_of_pq_numbers(monkeypatch):
    # y^k x^j needs [j], [j-1], ... only when a term z^t with t >= 1 occurs
    calls = []
    numbers = pbw._pq_numbers
    monkeypatch.setattr(pbw, "_pq_numbers",
                        lambda params, count: calls.append(count)
                        or numbers(params, count))
    ps = derive_params(4, 6, 1, 1)
    pbw._yk_xj.cache_clear()
    try:
        one = CycNumber.one(ps.conductor)
        assert pbw._yk_xj(ps, 0, 5) == (((0, 5, 0), one),)
        assert pbw._yk_xj(ps, 3, 0) == (((0, 0, 3), one),)
        assert calls == []
        pbw._yk_xj(ps, 3, 4)
        assert calls == [5]
        pbw._yk_xj(ps, 2, 30)
        assert calls == [5, ps.l]
    finally:
        pbw._yk_xj.cache_clear()


def test_product_canonical_no_zero_terms():
    rng = random.Random(11)
    for _ in range(50):
        a = random_element(PS44, rng)
        b = random_element(PS44, rng)
        for c in product(a, b).terms.values():
            assert not c.is_zero()


def test_associativity_random():
    rng = random.Random(17)
    for ps in (PS23, PS44, PS24):
        for _ in range(35):
            a, b, c = (random_element(ps, rng) for _ in range(3))
            assert product(product(a, b), c) == product(a, product(b, c))


def test_rewriting_agrees_with_closed_form():
    rng = random.Random(23)
    for ps in (PS23, PS44, PS24, PS33):
        for _ in range(25):
            a = random_element(ps, rng)
            b = random_element(ps, rng)
            assert product_via_rewriting(a, b) == product(a, b)


def test_params_mismatch():
    with pytest.raises(ValueError):
        product(generators(PS23)[0], generators(PS44)[0])


def test_degree_cap():
    with pytest.raises(OverflowError):
        PbwElement.monomial(PS23, DEGREE_CAP + 1, 0, 0)


def test_power_caps():
    one = CycNumber.one(PS23.conductor)
    # 257 terms without y: the square forms 257^2 pairs, one reordering term each
    wide = PbwElement(PS23, {(0, j, 0): one for j in range(257)})
    assert 257 ** 2 > POWER_PAIR_CAP >= 256 ** 2
    with pytest.raises(OverflowError, match="POWER_PAIR_CAP"):
        wide ** 2
    # y^5 x^5 at (2, 3) reorders into 1 + min(5 mod 6, 5) = 6 terms
    assert 6 * 110 ** 2 > POWER_PAIR_CAP
    y_side = PbwElement(PS23, {(0, j, 5): one for j in range(5, 115)})
    with pytest.raises(OverflowError, match="POWER_PAIR_CAP"):
        y_side ** 2
    # 3^(2^20) has about 1.66 million bits; the cap is read before the
    # product, so a scalar base is refused although it needs no reordering
    assert POWER_BITS_CAP < (1 << 20)
    with pytest.raises(OverflowError, match="POWER_BITS_CAP"):
        PbwElement.scalar(PS23, 3) ** (1 << 20)
    # roots of unity keep one bit however large the exponent
    g = PbwElement.scalar(PS23, zeta_power(PS23.conductor, 1))
    assert g ** 99999999 == g ** (99999999 % PS23.conductor)
    # zero has no coefficients to measure: its powers stay zero
    zero = PbwElement.zero(PS23)
    for e in (1, 2, 3, 99999999):
        assert (zero ** e).is_zero()
    assert zero ** 0 == PbwElement.one(PS23)


def test_theta_forms():
    for ps in (PS23, PS44, PS24):
        x, y, z = generators(ps)
        th = theta(ps)
        assert th == product(y, x) - ps.p.inverse() * product(x, y)
        assert th == (ps.q - ps.p.inverse()) * mono(ps, 0, 1, 1) + z
        c = ps.p.inverse() * ps.q.inverse()
        assert th == (1 - c) * product(y, x) + c * z
    ps = derive_params(1, 4, 0, 1)
    assert theta(ps) == (ps.q - 1) * mono(ps, 0, 1, 1) + mono(ps, 1, 0, 0)


def test_theta_twists():
    for ps in (PS23, PS44, PS24):
        th = theta(ps)
        x, y, z = generators(ps)
        assert product(th, x) == ps.q * product(x, th)
        assert product(th, z) == product(z, th)
        assert product(th, y) == ps.q.inverse() * product(y, th)


def test_commutation_twist():
    th = theta(PS44)
    assert commutation_twist(th, "x") == PS44.q.inverse()
    assert commutation_twist(th, "y") == PS44.q
    assert commutation_twist(th, "z") == CycNumber.one(4)
    x, y, z = generators(PS44)
    assert commutation_twist(x, "x") == CycNumber.one(4)
    # z(x+y) twists x by p^-1 and y by p: a common scalar needs p = p^-1
    assert commutation_twist(x + y, "z") is None  # p = zeta_4
    assert commutation_twist(generators(PS23)[0] + generators(PS23)[1], "z") == -1
    with pytest.raises(ValueError):
        commutation_twist(PbwElement.zero(PS44), "x")
    with pytest.raises(ValueError):
        commutation_twist(x, "w")


def test_theta_power_expansion():
    for ps in (PS23, PS44):
        q, p_inv = ps.q, ps.p.inverse()
        for k in range(1, 7):
            thk = theta(ps) ** k
            deg, coeff = lex_degree(thk)
            assert deg == LexDegree(k, k)
            assert coeff == PbwElement.scalar(
                ps, (q - p_inv) ** k * q ** (k * (k - 1) // 2))
            assert xy_coefficient(thk, 0, 0) == mono(ps, k, 0, 0)


def test_theta_power_at_p_one_collapses():
    # in H_{1,q} with n = ord(q) the n-th power has no middle terms
    for n in range(2, 7):
        ps = derive_params(1, n, 0, 1)
        q = ps.q
        expect = PbwElement(ps, {
            (0, n, n): (q - 1) ** n * q ** (n * (n - 1) // 2),
            (n, 0, 0): CycNumber.one(ps.conductor)})
        assert theta(ps) ** n == expect


def test_omega():
    assert omega(PS23) == 1
    assert omega(derive_params(3, 5, 1, 2)) == 1
    th44 = theta(PS44)
    assert omega(PS44) == product(mono(PS44, 1, 0, 0), th44)
    th24 = theta(PS24)
    assert omega(PS24) == product(mono(PS24, 1, 0, 0), th24 ** 2)


def test_center_generators():
    gens = center_generators(PS23)
    assert gens[0] == mono(PS23, 2, 0, 0)
    assert gens[1] == theta(PS23) ** 3
    assert gens[2] == mono(PS23, 0, 6, 0)
    assert gens[3] == mono(PS23, 0, 0, 6)
    assert gens[4] == 1
    for ps in (PS23, PS44, PS24, derive_params(1, 3, 0, 1)):
        for g in center_generators(ps):
            assert is_central(g)
    assert center_generators(derive_params(1, 3, 0, 1))[0] == mono(
        derive_params(1, 3, 0, 1), 1, 0, 0)  # z itself when m = 1


def test_non_central_generator():
    x, y, z = generators(PS23)
    assert not is_central(x)
    assert not is_central(theta(PS23))


def test_central_powers_when_m_equals_n():
    x, y, z = generators(PS33)
    l = PS33.l
    assert is_central(mono(PS33, l, 0, 0))
    assert is_central(mono(PS33, 0, l, 0))
    assert is_central(mono(PS33, 0, 0, l))


def test_relation_transport_to_inverse_parameter_algebra():
    # x -> x, y -> y, z -> theta' carries the H_{p,1} relations into H_{1,p^-1}
    source = derive_params(3, 1, 1, 0)      # p = zeta_3, q = 1
    target = derive_params(1, 3, 0, 2)      # p' = 1, q' = zeta_3^2 = p^-1
    assert target.q == source.p.embed(3) ** -1 if source.p.conductor == 3 else True
    x, y, z = generators(target)
    th = theta(target)
    p_inv = target.q  # the source p^-1, materialized in the target field
    assert (product(th, x) - p_inv * product(x, th)).is_zero()
    assert (product(th, y) - p_inv.inverse() * product(y, th)).is_zero()
    assert (product(y, x) - product(x, y) - th).is_zero()


def test_lex_degree():
    th = theta(PS23)
    deg, coeff = lex_degree(th)
    assert deg == LexDegree(1, 1)
    assert coeff == PbwElement.scalar(PS23, PS23.q - PS23.p.inverse())
    deg, coeff = lex_degree(mono(PS23, 5, 0, 0))
    assert deg == LexDegree(0, 0) and coeff == mono(PS23, 5, 0, 0)
    assert LexDegree(2, 0) > LexDegree(1, 5)
    assert LexDegree(1, 3) > LexDegree(1, 2)
    with pytest.raises(ValueError):
        lex_degree(PbwElement.zero(PS23))


def test_serialization():
    a = theta(PS23) + mono(PS23, 0, 2, 0, Fraction(1, 2))
    data = a.to_json()
    assert data["params"] == {"m": 2, "n": 3, "k1": 1, "k2": 1}
    keys = [(t["i"], t["j"], t["k"]) for t in data["terms"]]
    assert keys == sorted(keys)
    assert PbwElement.from_json(data) == a


def test_inexact_terms_raise_type_error():
    for c in (0.5, True, 1.0):
        with pytest.raises(TypeError):
            PbwElement(PS23, {(0, 0, 0): c})


def test_term_from_a_subfield_is_embedded():
    # Q(zeta_3) lies inside Q(zeta_6), the field of PS23
    c = zeta_power(3, 1)
    elem = PbwElement(PS23, {(0, 0, 0): c})
    assert elem == PbwElement.scalar(PS23, c)
    assert elem.terms[(0, 0, 0)] == c.embed(6)
    assert elem + elem == PbwElement.scalar(PS23, 2 * c)


def test_term_from_another_field_raises():
    # Q(zeta_4) is not a subfield of Q(zeta_6)
    with pytest.raises(ValueError, match="outside Q\\(zeta_6\\)"):
        PbwElement(PS23, {(0, 0, 0): zeta_power(4, 1)})


@pytest.mark.parametrize("field,value", [("i", 1.5), ("j", 1.0), ("k", True),
                                         ("i", "1"), ("k", None)])
def test_from_json_exponents_must_be_json_integers(field, value):
    data = mono(PS23, 1, 0, 1, 2).to_json()
    data["terms"][0][field] = value
    with pytest.raises(TypeError, match=f"{field} must be a JSON integer"):
        PbwElement.from_json(data)


def test_scalar_from_subfield_is_embedded():
    # zeta_3 = zeta_6^2 and -1 = zeta_2 lie in Q(zeta_6), the field of PS23
    x = generators(PS23)[0]
    assert (PbwElement.scalar(PS23, zeta_power(3, 1))
            == PbwElement.scalar(PS23, zeta_power(6, 2)))
    assert x * zeta_power(3, 1) == x.scale(zeta_power(6, 2))
    assert (x + zeta_power(2, 1)).coefficient(0, 0, 0) == -1
    with pytest.raises(ValueError) as err:
        PbwElement.scalar(PS23, zeta_power(4, 1))
    assert str(err.value) == "scalar lies outside Q(zeta_6)"


def test_scalar_coercion_and_power():
    a = 2 + theta(PS23) - Fraction(1, 2)
    assert a.coefficient(0, 0, 0) == Fraction(3, 2)
    assert (theta(PS23) ** 0) == 1
    b = theta(PS23)
    assert b ** 3 == product(product(b, b), b)


# --- property tests: the closed form against the rewriting oracle ---------

# every order pair with l <= 8 that has an admissible index pair
ORDER_PAIRS_L8 = [(m, n) for m in range(1, 9) for n in range(1, 9)
                  if math.lcm(m, n) <= 8 and valid_pairs(m, n)]


@st.composite
def _params(draw, m=None, n=None, scale=None):
    # a random admissible index pair at conductor l or 2l
    if m is None:
        m, n = draw(st.sampled_from(ORDER_PAIRS_L8))
    if scale is None:
        scale = draw(st.sampled_from((1, 2)))
    k1, k2 = draw(st.sampled_from(valid_pairs(m, n)))
    return derive_params(m, n, k1, k2, conductor=scale * math.lcm(m, n))


@st.composite
def _element(draw, ps, max_exp=3, max_terms=3):
    # up to max_terms monomials with small exponents and coefficients
    # c * zeta^e, c a small nonzero integer
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        key = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        c = draw(st.integers(-3, 3).filter(bool))
        e = draw(st.integers(0, ps.conductor - 1))
        terms[key] = c * zeta_power(ps.conductor, e)
    return PbwElement(ps, terms)


@pytest.mark.parametrize("scale", (1, 2))
@pytest.mark.parametrize("m,n", ORDER_PAIRS_L8)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_property_product_matches_rewriting_and_associates(m, n, scale, data):
    ps = data.draw(_params(m, n, scale))
    a, b, c = (data.draw(_element(ps)) for _ in range(3))
    assert product(a, b) == product_via_rewriting(a, b)
    assert product(product(a, b), c) == product(a, product(b, c))


def _mixed_rational(rng):
    # a nonzero rational whose denominator is drawn from coprime and shared ones
    return Fraction(rng.choice([-7, -3, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 9, 35]))


@pytest.mark.parametrize("scale", (1, 2))
@pytest.mark.parametrize("m,n", ORDER_PAIRS_L8)
def test_property_scalar_operand_scales(m, n, scale):
    # a scalar on either side, zero included, against the rewriting oracle
    # and against scaling each coefficient
    rng = random.Random(m * 100 + n * 10 + scale)
    k1, k2 = rng.choice(valid_pairs(m, n))
    ps = derive_params(m, n, k1, k2, conductor=scale * math.lcm(m, n))
    g = zeta_power(ps.conductor, 1)
    for _ in range(4):
        elem = PbwElement(ps, {(rng.randint(0, 3), rng.randint(0, 3), rng.randint(0, 3)):
                               _mixed_rational(rng) * g ** rng.randrange(ps.conductor)
                               for _ in range(rng.randint(1, 4))})
        for c in (CycNumber.zero(ps.conductor),
                  CycNumber.from_rational(ps.conductor, _mixed_rational(rng)),
                  _mixed_rational(rng) + _mixed_rational(rng) * g ** rng.randrange(ps.conductor)):
            s = PbwElement.scalar(ps, c)
            scaled = PbwElement(ps, {key: v * c for key, v in elem.terms.items()})
            for a, b in ((s, elem), (elem, s)):
                assert product(a, b) == scaled
                assert product(a, b) == product_via_rewriting(a, b)
        zero = PbwElement.zero(ps)
        assert product(zero, elem).is_zero() and product(elem, zero).is_zero()
        assert product(zero, zero).is_zero()


@settings(max_examples=150, deadline=None)
@given(data=st.data(), k=st.integers(0, 5), j=st.integers(0, 5))
def test_property_yk_xj_matches_rewriting(data, k, j):
    ps = data.draw(_params())
    y_k = PbwElement.monomial(ps, 0, 0, k)
    x_j = PbwElement.monomial(ps, 0, j, 0)
    assert (PbwElement(ps, dict(_yk_xj(ps, k, j)))
            == product_via_rewriting(y_k, x_j))


def test_yk_xj_long_y_run_matches_rewriting():
    # k = 200 is far past ord(pq) = 6, so the q-Lucas reduction is used
    y_k = PbwElement.monomial(PS23, 0, 0, 200)
    x = PbwElement.monomial(PS23, 0, 1, 0)
    assert product(y_k, x) == product_via_rewriting(y_k, x)


def test_yk_xj_satisfies_the_one_y_recursion():
    # y^k x^j = q^j (y^(k-1) x^j) y + [j] p^(j-k) z (y^(k-1) x^(j-1)),
    # the recursion the closed form replaces
    for m, n in ORDER_PAIRS_L8:
        ps = derive_params(m, n)
        x, y, z = generators(ps)
        for k in range(1, 11):
            for j in range(1, 11):
                lhs = product(y ** k, x ** j)
                rhs = (product(product(y ** (k - 1), x ** j), y).scale(ps.q ** j)
                       + product(z, product(y ** (k - 1), x ** (j - 1))).scale(
                           pq_number(ps, j) * ps.p ** (j - k)))
                assert lhs == rhs, (m, n, k, j)
