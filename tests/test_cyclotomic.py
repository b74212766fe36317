"""Exact-field layer: cyclotomic polynomials, arithmetic, embeddings.

The property tests check the integer num/den layout against sympy
polynomials over QQ reduced mod Phi_N, for every conductor up to 30.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from qheisenberg.cyclotomic import (
    CycNumber,
    ConductorMismatch,
    cyclotomic_polynomial,
    euler_phi,
    nth_root_in_field,
    order_of_unit,
    roots_of_unity,
    zeta_power,
)
from qheisenberg.cyclotomic import (_integer_nth_root, _prime_factorization,
                                    _ratio, _sub_mul)


def test_cyclotomic_polynomial_small_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_against_sympy():
    t = sympy.symbols("t")
    for n in range(1, 25):
        ours = cyclotomic_polynomial(n)
        theirs = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs]
        assert len(ours) - 1 == euler_phi(n)


def test_zeta_is_root_of_its_cyclotomic_polynomial():
    for n in range(1, 25):
        z = zeta_power(n, 1)
        acc = CycNumber.zero(n)
        for c in cyclotomic_polynomial(n)[::-1]:
            acc = acc * z + c
        assert acc.is_zero()


def test_zeta_relations():
    z6 = zeta_power(6, 1)
    assert z6 + z6 ** 5 == 1
    assert zeta_power(4, 2) == -1
    assert zeta_power(3, 1) * zeta_power(3, 2) == 1
    assert zeta_power(12, 6) == -1


def test_inverse_known_value():
    z4 = zeta_power(4, 1)
    inv = (1 + z4).inverse()
    assert inv == (1 - z4) * Fraction(1, 2)
    assert inv * (1 + z4) == 1


def test_field_axioms_random():
    rng = random.Random(20260823)
    for n in (3, 4, 6, 8, 12):
        elems = []
        while len(elems) < 12:
            a = CycNumber(n, [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                              for _ in range(euler_phi(n))])
            if not a.is_zero():
                elems.append(a)
        for _ in range(40):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a * b == b * a
            assert a * a.inverse() == 1
            assert (a / b) * b == a
            assert a - a == CycNumber.zero(n)


def test_pow_matches_repeated_multiplication():
    z = zeta_power(12, 1)
    a = 2 + z - z ** 3
    acc = CycNumber.one(12)
    for k in range(8):
        assert a ** k == acc
        acc = acc * a
    assert a ** -2 == (a * a).inverse()


def test_conductor_mismatch_raises():
    with pytest.raises(ConductorMismatch):
        zeta_power(3, 1) + zeta_power(4, 1)
    with pytest.raises(ConductorMismatch):
        zeta_power(3, 1) * zeta_power(6, 1)


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        CycNumber.zero(4).inverse()
    with pytest.raises(ZeroDivisionError):
        order_of_unit(CycNumber.zero(4))


def test_embedding():
    z3 = zeta_power(3, 1)
    assert z3.embed(12) == zeta_power(12, 4)
    assert zeta_power(6, 1).embed(12) == zeta_power(12, 2)
    # zeta_3 inside Q(zeta_6): zeta_6^2 reduces to zeta_6 - 1
    assert z3.embed(6) == zeta_power(6, 1) - 1
    rng = random.Random(7)
    for _ in range(20):
        a = CycNumber(6, [rng.randint(-4, 4), rng.randint(-4, 4)])
        b = CycNumber(6, [rng.randint(-4, 4), rng.randint(-4, 4)])
        assert (a * b).embed(12) == a.embed(12) * b.embed(12)
        assert (a + b).embed(12) == a.embed(12) + b.embed(12)
    with pytest.raises(ConductorMismatch):
        zeta_power(4, 1).embed(6)


def common_field(a, b):
    """Embed both elements into Q(zeta_lcm) so they can be combined."""
    m = math.lcm(a.conductor, b.conductor)
    return a.embed(m), b.embed(m)


def test_common_field():
    a, b = common_field(zeta_power(4, 1), zeta_power(6, 1))
    assert a.conductor == b.conductor == 12
    assert a == zeta_power(12, 3)


def test_order_of_unit():
    assert order_of_unit(CycNumber.one(5)) == 1
    assert order_of_unit(zeta_power(12, 1)) == 12
    assert order_of_unit(zeta_power(12, 8)) == 3
    assert order_of_unit(CycNumber.from_rational(3, -1)) == 2
    assert order_of_unit(-zeta_power(3, 1)) == 6
    assert order_of_unit(CycNumber.from_rational(3, 2)) is None
    assert order_of_unit(1 + zeta_power(4, 1)) is None


def test_roots_of_unity_group():
    ws = roots_of_unity(4)
    assert len(ws) == 4
    ws = roots_of_unity(3)
    assert len(ws) == 6  # generated by -1 and zeta_3
    for w in ws:
        assert order_of_unit(w) is not None


def test_nth_root_in_field():
    a = (Fraction(3, 2) * zeta_power(12, 5)) ** 4
    r = nth_root_in_field(a, 4)
    assert r is not None and r ** 4 == a
    b = (-2 * zeta_power(6, 1)) ** 3
    r = nth_root_in_field(b, 3)
    assert r is not None and r ** 3 == b
    # sqrt(2) exists in Q(zeta_8) but lies outside Q* x (roots of unity)
    assert nth_root_in_field(CycNumber.from_rational(8, 2), 2) is None
    assert nth_root_in_field(CycNumber.zero(6), 5) == CycNumber.zero(6)


@pytest.mark.parametrize("coeffs,n,error", [
    ([2, 0], 0, ValueError),
    ([2, 0], -1, ValueError),
    ([1, 0], -3, ValueError),
    ([0, 0], 0, ValueError),
    ([2, 0], True, TypeError),
    ([2, 0], 2.0, TypeError),
    ([2, 0], Fraction(2), TypeError),
], ids=["zero", "minus_one", "minus_three", "zero_of_zero", "bool", "float",
        "fraction"])
def test_nth_root_in_field_needs_an_int_n_from_one(coeffs, n, error):
    with pytest.raises(error, match="^n must be"):
        nth_root_in_field(CycNumber(6, coeffs), n)


# --- roots of unity by exponent, against the field-arithmetic construction --

def _roots_of_unity_by_field(conductor):
    # the group generated by -1 and zeta_N, deduplicated in scan order
    seen = {}
    for j in range(conductor):
        for sign in (1, -1):
            w = sign * zeta_power(conductor, j)
            seen.setdefault(w, w)
    return list(seen.values())


def _nth_root_by_field(a, n):
    # the first w in that order with a w^-n a positive rational n-th power,
    # with w^-n computed by powering and inverting in the field
    if a.is_zero():
        return CycNumber.zero(a.conductor)
    for w in _roots_of_unity_by_field(a.conductor):
        t = a * (w ** n).inverse()
        if t.is_rational() and t.num[0] > 0:
            num = _integer_nth_root(t.num[0], n)
            den = _integer_nth_root(t.den, n)
            if num is not None and den is not None:
                return CycNumber(a.conductor,
                                 [Fraction(num * x, den) for x in w.num])
    return None


@pytest.mark.parametrize("conductor", range(1, 41))
def test_roots_of_unity_match_field_construction(conductor):
    assert roots_of_unity(conductor) == _roots_of_unity_by_field(conductor)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), conductor=st.integers(1, 40), n=st.integers(1, 6))
def test_property_nth_root_matches_field_construction(data, conductor, n):
    # roots of c * (root of unity) for a rational c, which are found when
    # c is a positive rational n-th power, plus arbitrary elements
    if data.draw(st.booleans()):
        c = data.draw(st.fractions(min_value=-9, max_value=9,
                                   max_denominator=9).filter(bool))
        if data.draw(st.booleans()):
            c = abs(c) ** n
        sign = data.draw(st.sampled_from((1, -1)))
        a = c * sign * zeta_power(conductor, data.draw(st.integers(0, conductor)))
    else:
        a = data.draw(_element(conductor))
    assert nth_root_in_field(a, n) == _nth_root_by_field(a, n)


def test_rational_predicates():
    a = CycNumber.from_rational(12, Fraction(7, 3))
    assert a.is_rational()
    assert not zeta_power(12, 1).is_rational()


def test_serialization_roundtrip():
    a = CycNumber(12, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)])
    data = a.to_json()
    assert data == {"conductor": 12, "coeffs": ["1/2", "-3", "0", "5/7"]}
    assert CycNumber.from_json(data) == a


@pytest.mark.parametrize("data", [
    {"conductor": True, "coeffs": ["1"]},
    {"conductor": 6.0, "coeffs": ["1", "0"]},
    {"conductor": "6", "coeffs": ["1", "0"]},
    {"conductor": 6, "coeffs": "10"},
    {"conductor": 6, "coeffs": {"0": "1", "1": "0"}},
], ids=["bool_conductor", "float_conductor", "string_conductor",
        "string_coeffs", "object_coeffs"])
def test_from_json_rejects_wrong_json_types(data):
    with pytest.raises(TypeError):
        CycNumber.from_json(data)


def test_immutability_and_hash():
    a = zeta_power(6, 1)
    with pytest.raises(AttributeError):
        a.conductor = 12
    assert hash(a) == hash(zeta_power(6, 1))
    assert len({a, zeta_power(6, 1), zeta_power(6, 2)}) == 2


def test_coeffs_view_and_integer_layout():
    a = CycNumber(12, [Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7)])
    assert a.num == (7, -42, 0, 10) and a.den == 14
    assert a.coeffs == (Fraction(1, 2), Fraction(-3), Fraction(0), Fraction(5, 7))
    assert all(type(c) is Fraction for c in a.coeffs)
    with pytest.raises(AttributeError):
        a.coeffs = ()
    zero = CycNumber(6, [Fraction(0, 5), 0])
    assert zero.num == (0, 0) and zero.den == 1


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 20])
def test_integer_nth_root_exact(n):
    from qheisenberg.cyclotomic import _integer_nth_root
    for root in (0, 1, 2, 3, 10 ** 20 + 1, 10 ** 60 + 7, 2 ** 200 - 1):
        assert _integer_nth_root(root ** n, n) == root
        if root > 1 and n > 1:
            assert _integer_nth_root(root ** n + 1, n) is None
            assert _integer_nth_root(root ** n - 1, n) is None


# --- properties against sympy polynomials reduced mod Phi_N -----------------

_T = sympy.symbols("t")
_PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)
_COORD = st.one_of(st.just(Fraction(0)),
                   st.fractions(min_value=-40, max_value=40, max_denominator=12))


@st.composite
def _element(draw, conductor=None):
    n = draw(st.integers(1, 30)) if conductor is None else conductor
    k = euler_phi(n)
    return CycNumber(n, draw(st.lists(_COORD, min_size=k, max_size=k)))


@st.composite
def _pair(draw):
    a = draw(_element())
    return a, draw(_element(a.conductor))


def _phi(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, _T), _T, domain=sympy.QQ)


def _poly(x):
    coeffs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(x.coeffs)]
    return sympy.Poly(coeffs, _T, domain=sympy.QQ)


def _assert_normalised(x):
    assert len(x.num) == euler_phi(x.conductor)
    assert all(type(v) is int for v in x.num)
    assert type(x.den) is int and x.den >= 1
    assert math.gcd(x.den, *x.num) == 1


@_PROPERTY_SETTINGS
@given(_pair())
def test_property_ring_operations_match_sympy(pair):
    a, b = pair
    phi = _phi(a.conductor)
    pa, pb = _poly(a), _poly(b)
    for got, want in ((a + b, pa + pb), (a - b, pa - pb), (a * b, (pa * pb).rem(phi)),
                      (-a, -pa), (a * 3, pa * 3), (Fraction(2, 5) - a, Fraction(2, 5) - pa)):
        _assert_normalised(got)
        assert _poly(got) == want.rem(phi)


@_PROPERTY_SETTINGS
@given(_pair(), _COORD)
def test_property_sub_mul_matches_sympy(pair, rational):
    # the fused update c - a*b of exact elimination, with a rational
    # factor on either side and a zero c among the draws
    a, b = pair
    phi = _phi(a.conductor)
    r = CycNumber.from_rational(a.conductor, rational)
    for c, x, y in ((a, b, a), (b, a, r), (a, r, b), (r, a, b), (r, r, r)):
        got = _sub_mul(c, x, y)
        _assert_normalised(got)
        assert got == c - x * y
        assert _poly(got) == (_poly(c) - _poly(x) * _poly(y)).rem(phi)


@_PROPERTY_SETTINGS
@given(_element(), st.integers(-3, 6))
def test_property_inverse_and_pow_match_sympy(a, e):
    phi = _phi(a.conductor)
    pa = _poly(a)
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    inv = a.inverse()
    _assert_normalised(inv)
    assert _poly(inv) == pa.invert(phi)
    power = a ** e
    _assert_normalised(power)
    base = pa if e >= 0 else pa.invert(phi)
    want = sympy.Poly(1, _T, domain=sympy.QQ)
    for _ in range(abs(e)):
        want = (want * base).rem(phi)
    assert _poly(power) == want


@_PROPERTY_SETTINGS
@given(_element(), st.integers(1, 30))
def test_property_embed_matches_sympy(a, factor):
    target = a.conductor * factor
    if target > 30:
        target = a.conductor
    image = a.embed(target)
    _assert_normalised(image)
    scale = target // a.conductor
    want = _poly(a).compose(sympy.Poly(_T ** scale, _T, domain=sympy.QQ))
    assert _poly(image) == want.rem(_phi(target))


@_PROPERTY_SETTINGS
@given(_element())
def test_property_views_round_trip(a):
    _assert_normalised(a)
    assert CycNumber(a.conductor, a.coeffs) == a
    assert CycNumber.from_json(a.to_json()) == a
    assert a.to_json()["coeffs"] == [str(c) for c in a.coeffs]
    assert hash(CycNumber(a.conductor, a.coeffs)) == hash(a)


# "a", "-a" and "a/b" in ASCII digits take the int() path; everything else
# must reach Fraction, so signs, spaces, dots, exponents, underscores, a
# zero denominator and the Arabic-Indic digit one are in the alphabet;
# ints, Fractions, floats and bools are the values that are not text
_COORD_TEXT = st.one_of(
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.fractions().map(str),
    st.text(alphabet="0123456789-/+._e\u0661 ", max_size=8),
    st.integers(-10 ** 6, 10 ** 6),
    st.fractions(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)


def _outcome(parse, text):
    # the value, or the type of the exception raised in its place
    try:
        return parse(text)
    except (ArithmeticError, TypeError, ValueError) as exc:
        return type(exc)


def _exact_value(value):
    # the oracle: Fraction(value) for text, a non-bool int and any other
    # rational; a bool or a float is not an exact value
    if isinstance(value, (bool, float)):
        raise TypeError(f"not exact: {value!r}")
    return Fraction(value)


def _ratio_value(value):
    n, d = _ratio(value)
    assert type(n) is int and type(d) is int and d > 0
    return Fraction(n, d)


# _ratio took over the coordinate parse of module files; the two tests
# below keep their names from that parse
@settings(max_examples=400, deadline=None)
@given(_COORD_TEXT)
def test_property_parse_coord_matches_fraction(text):
    assert _outcome(_ratio_value, text) == _outcome(_exact_value, text)


@pytest.mark.parametrize("text", ["0", "-0", "007", "-12", "2/4", "-7/3", "0/5",
                                  "+1", " 1", "1.5", "1e3", "1_0", "1/0", "-",
                                  "/2", "1/-2", "1/2/3", "\u0661", "", "--1"])
def test_parse_coord_edge_texts(text):
    assert _outcome(_ratio_value, text) == _outcome(_exact_value, text)


@pytest.mark.parametrize("value", [True, False, 0.5, 2.0, 1j, Decimal("0.5"),
                                   None, [1], b"1"])
def test_ratio_refuses_inexact_and_foreign_values(value):
    with pytest.raises(TypeError, match="not an exact rational value"):
        _ratio(value)


def test_ratio_reads_any_rational():
    assert _ratio(sympy.Rational(-3, 4)) == (-3, 4)
    assert _ratio(sympy.Integer(5)) == (5, 1)
    assert all(type(x) is int for x in _ratio(sympy.Rational(7, 2)))
    assert _ratio(Fraction(6, 4)) == (3, 2)
    assert _ratio("6/4") == (6, 4)
    assert _ratio("-12") == (-12, 1)


def test_inexact_values_raise_type_error():
    with pytest.raises(TypeError):
        CycNumber.from_rational(6, 0.5)
    with pytest.raises(TypeError):
        CycNumber.from_rational(6, True)
    with pytest.raises(TypeError):
        CycNumber(6, [0.5, 0])
    with pytest.raises(TypeError):
        CycNumber(6, [1, False])
    for coeffs in ([2.0, False], [0.1, "0"], ["1", True]):
        with pytest.raises(TypeError):
            CycNumber.from_json({"conductor": 6, "coeffs": coeffs})
    # the exact spellings of the same values still load
    assert CycNumber(6, ["1/2", 0]) == CycNumber.from_rational(6, Fraction(1, 2))
    assert CycNumber.from_rational(6, sympy.Rational(1, 2)) == \
        CycNumber.from_rational(6, "1/2")


# a whole coordinate list: mostly to_json's spellings, with the edge texts,
# a bool and a float mixed in, and now and then a list of the wrong length
_EDGE_TEXTS = ("-0", "0/5", "2/4", "007", "+3", " 3", "1/-2", "1e3", "1/0",
               "\u0661", True, 2.5)


@st.composite
def _coeff_lists(draw):
    conductor = draw(st.sampled_from((1, 3, 4, 5, 6, 12)))
    size = euler_phi(conductor) + draw(st.sampled_from((0, 0, 0, 0, -1, 1)))
    coord = st.one_of(st.integers(-10 ** 30, 10 ** 30).map(str),
                      st.fractions().map(str), st.sampled_from(_EDGE_TEXTS),
                      _COORD_TEXT)
    return conductor, draw(st.lists(coord, min_size=max(size, 0),
                                    max_size=max(size, 0)))


def _from_json_by_fraction(data):
    return CycNumber(data["conductor"],
                     [_exact_value(t) for t in data["coeffs"]])


@settings(max_examples=400, deadline=None)
@given(_coeff_lists())
def test_property_from_json_matches_fraction(case):
    conductor, coeffs = case
    data = {"conductor": conductor, "coeffs": coeffs}
    got = _outcome(CycNumber.from_json, data)
    assert got == _outcome(_from_json_by_fraction, data)
    if isinstance(got, CycNumber):
        _assert_normalised(got)


@pytest.mark.parametrize("text", _EDGE_TEXTS)
def test_from_json_edge_texts(text):
    for coeffs in ([text, "1/3"], ["-5/6", text]):
        data = {"conductor": 6, "coeffs": coeffs}
        assert _outcome(CycNumber.from_json, data) == \
            _outcome(_from_json_by_fraction, data)


def test_factorization_and_totient_match_sympy():
    for n in range(1, 2001):
        assert _prime_factorization(n) == sympy.factorint(n), n
        assert euler_phi(n) == sympy.totient(n), n
    with pytest.raises(ValueError):
        euler_phi(0)


@pytest.mark.parametrize("conductor", [6.0, True, "6", None, Fraction(6)])
def test_conductor_must_be_an_int(conductor):
    with pytest.raises(TypeError) as err:
        CycNumber(conductor, [1, 2])
    assert str(err.value) == f"conductor must be an int, got {conductor!r}"


@pytest.mark.parametrize("conductor", [0, -6])
def test_conductor_below_one_raises_value_error(conductor):
    with pytest.raises(ValueError, match=f"conductor must be >= 1, got {conductor}"):
        CycNumber(conductor, [])
