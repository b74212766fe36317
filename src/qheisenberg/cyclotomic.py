"""Exact arithmetic in cyclotomic fields Q(zeta_N).

An element is stored in the usual number-field layout (Cohen, *A Course
in Computational Algebraic Number Theory*, GTM 138, section 4.2): a tuple
`num` of phi(N) integers over one positive integer `den`.  Coordinate i
is num[i]/den with respect to the power basis 1, zeta_N, ...,
zeta_N^(phi(N)-1), always reduced modulo the N-th cyclotomic polynomial
Phi_N.  The pair is kept normalised, gcd(num[0], ..., num[-1], den) = 1,
so zero is (0, ..., 0)/1 and equal elements have equal pairs.

Phi_N is monic with integer coefficients, so reducing an integer
polynomial modulo it stays in the integers: a product is an integer
convolution, a reduction and one gcd.  Inverses are products of Galois
conjugates over the rational norm.  All arithmetic is on Python ints;
`fractions.Fraction` appears only when parsing input and in the `coeffs`
view.  Every rational enters through one reader, `_ratio`, which refuses
floats and booleans, so no inexact value becomes an exact one.

Elements of different conductors are deliberately incomparable; use
`embed` to move both into Q(zeta_lcm) first.
"""

from __future__ import annotations

import functools
import math
import numbers
from fractions import Fraction
from math import gcd
from operator import neg


class ConductorMismatch(ValueError):
    """Raised when combining elements of different cyclotomic fields."""


def _prime_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@functools.lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Euler's totient.

    >>> [euler_phi(n) for n in (1, 2, 6, 12)]
    [1, 1, 2, 4]
    """
    if n < 1:
        raise ValueError("euler_phi needs n >= 1")
    for p in _prime_factorization(n):
        n -= n // p
    return n


def _int_poly_exact_div(a: list[int], b: tuple[int, ...]) -> list[int]:
    # exact division of integer polynomials, constant term first; b is monic
    a = a[:]
    out = [0] * (len(a) - len(b) + 1)
    for i in range(len(out) - 1, -1, -1):
        c = a[i + len(b) - 1]
        out[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a):
        raise ArithmeticError("division was not exact")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, constant term first.

    Start from t^n - 1 and divide out Phi_d for every proper divisor d;
    each division is exact over the integers.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("conductor must be >= 1")
    poly = [0] * (n + 1)
    poly[0] = -1
    poly[n] = 1
    for d in range(1, n):
        if n % d == 0:
            poly = _int_poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


# --- integer kernels --------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _taps(conductor: int) -> tuple[tuple[int, int], ...]:
    # t^phi = sum of c * t^i mod Phi_N, as the nonzero (i, c) pairs
    poly = cyclotomic_polynomial(conductor)
    return tuple((i, -c) for i, c in enumerate(poly[:-1]) if c)


def _reduce(conductor: int, vec: list[int]) -> list[int]:
    """Reduce an integer polynomial (constant term first) modulo Phi_N.

    Works in place on vec and returns exactly phi(N) coordinates.
    """
    k = euler_phi(conductor)
    if len(vec) < k:
        return vec + [0] * (k - len(vec))
    taps = _taps(conductor)
    for d in range(len(vec) - 1, k - 1, -1):
        c = vec[d]
        if c:
            base = d - k
            for i, t in taps:
                vec[base + i] += c * t
    del vec[k:]
    return vec


def _mul_reduced(conductor: int, a, b) -> list[int]:
    # (a * b) mod Phi_N on integer coordinate vectors of length phi(N)
    conv = [0] * (2 * len(a) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                if y:
                    conv[j] += x * y
    return _reduce(conductor, conv)


@functools.lru_cache(maxsize=None)
def _zeta_table(conductor: int) -> tuple[tuple[int, ...], ...]:
    # reduced integer coordinates of zeta_N^e for e = 0 .. N-1
    return tuple(tuple(_reduce(conductor, [0] * e + [1]))
                 for e in range(conductor))


@functools.lru_cache(maxsize=None)
def _conjugations(conductor: int) -> tuple:
    """The maps zeta -> zeta^u for the units u != 1 mod N.

    Each map is a tuple over the basis index i of the nonzero (r, c) with
    zeta^(i*u) = sum of c * zeta^r in reduced coordinates.
    """
    table = _zeta_table(conductor)
    k = euler_phi(conductor)
    return tuple(
        tuple(tuple((r, c) for r, c in enumerate(table[i * u % conductor]) if c)
              for i in range(k))
        for u in range(2, conductor) if gcd(u, conductor) == 1)


def _conjugate(images: tuple, num: tuple[int, ...]) -> list[int]:
    out = [0] * len(num)
    for x, image in zip(num, images):
        if x:
            for r, c in image:
                out[r] += x * c
    return out


def _ratio(value) -> tuple[int, int]:
    # one coordinate as (n, d), d > 0, not necessarily reduced, from a
    # non-bool int, a Fraction, another numbers.Rational or text: to_json's
    # "a", "-a" and "a/b" in ASCII digits are read with int(), any other
    # text by Fraction.  A bool, float or any other value raises TypeError.
    kind = type(value)
    if kind is int:
        return value, 1
    if kind is str:
        num, slash, den = value.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if digits.isascii() and digits.isdigit():
            if not slash:
                return int(num), 1
            if den.isascii() and den.isdigit() and int(den):
                return int(num), int(den)
        value = Fraction(value)
    elif kind is not Fraction:
        if kind is bool or not isinstance(value, numbers.Rational):
            raise TypeError(f"not an exact rational value: {value!r}")
        return int(value.numerator), int(value.denominator)
    return value.numerator, value.denominator


def _check_json_int(value, name: str = "conductor") -> None:
    # a JSON integer field must be an int; bool is an int subclass in Python
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {value!r}")


def _check_int(value, name: str) -> None:
    # an argument named by a caller must be a non-bool int
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")


def _check_conductor(conductor) -> None:
    # a conductor named by a caller must be a non-bool int >= 1
    _check_int(conductor, "conductor")
    if conductor < 1:
        raise ValueError(f"conductor must be >= 1, got {conductor}")


def _coord_str(x: int, den: int) -> str:
    # the text of the reduced fraction x/den, as str(Fraction(x, den))
    g = gcd(x, den)
    return str(x // g) if g == den else f"{x // g}/{den // g}"


class CycNumber:
    """An element num/den of Q(zeta_N) in reduced power-basis coordinates.

    `num` is a tuple of phi(N) ints and `den` a positive int, normalised
    so that gcd(content(num), den) = 1; zero is (0, ..., 0)/1.  `coeffs`
    gives the same coordinates as a tuple of Fractions.

    Supports field arithmetic through the usual operators; ints and
    Fractions coerce to the element's own field.  Equality and hashing use
    (conductor, num, den): same conductor, identical coordinates.

    >>> z = zeta_power(6, 1)
    >>> z + z**5     # zeta_6^5 = 1 - zeta_6
    CycNumber(6, ['1', '0'])
    >>> (1 + zeta_power(4, 1)).inverse()
    CycNumber(4, ['1/2', '-1/2'])
    >>> a = CycNumber(6, ['1/2', '-1/3'])
    >>> a.num, a.den
    ((3, -2), 6)
    """

    __slots__ = ("conductor", "num", "den")

    def __init__(self, conductor: int, coeffs) -> None:
        """phi(N) coordinates, each read by `_ratio` (a bool or float raises
        TypeError), over the lcm of their denominators, normalised once.
        A conductor that is not an int raises TypeError, one below 1
        ValueError."""
        _check_conductor(conductor)
        phi = euler_phi(conductor)
        pairs = [_ratio(c) for c in coeffs]
        if len(pairs) != phi:
            raise ValueError(f"need exactly {phi} coordinates for conductor {conductor}")
        den = math.lcm(*[d for _, d in pairs])
        num = [n * (den // d) for n, d in pairs]
        g = gcd(den, *num)
        _set_conductor(self, conductor)
        _set_num(self, tuple(x // g for x in num))
        _set_den(self, den // g)

    def __setattr__(self, name, value):
        raise AttributeError("CycNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coordinates num[i]/den as Fractions (a read-only view)."""
        den = self.den
        return tuple(Fraction(x, den) for x in self.num)

    @classmethod
    def from_rational(cls, conductor: int, value) -> CycNumber:
        """An int or Fraction as it is, anything else read by `_ratio`
        (a bool or float raises TypeError)."""
        if type(value) is not int and type(value) is not Fraction:
            value = Fraction(*_ratio(value))
        rest = (0,) * (euler_phi(conductor) - 1)
        return _raw(conductor, (value.numerator,) + rest, value.denominator)

    @classmethod
    def zero(cls, conductor: int) -> CycNumber:
        return _raw(conductor, (0,) * euler_phi(conductor), 1)

    @classmethod
    def one(cls, conductor: int) -> CycNumber:
        return cls.from_rational(conductor, 1)

    def _coerce(self, other):
        if isinstance(other, CycNumber):
            if other.conductor != self.conductor:
                raise ConductorMismatch(
                    f"conductor mismatch: {self.conductor} vs {other.conductor}")
            return other
        if isinstance(other, (int, Fraction)):
            return CycNumber.from_rational(self.conductor, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        if not any(b):
            return self
        if not any(a):
            return o
        da, db = self.den, o.den
        if da == db:
            return _normalised(self.conductor, [x + y for x, y in zip(a, b)], da)
        return _normalised(self.conductor,
                           [x * db + y * da for x, y in zip(a, b)], da * db)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.conductor, tuple(map(neg, self.num)), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + -o

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = self.num, o.num
        k = len(a)
        # zero and rational operands cover most matrix-entry products
        zb = b.count(0)
        if zb == k:
            return o
        za = a.count(0)
        if za == k:
            return self
        den = self.den * o.den
        if zb == k - 1 and b[0]:
            c = b[0]
            return _normalised(self.conductor, [c * x for x in a], den)
        if za == k - 1 and a[0]:
            c = a[0]
            return _normalised(self.conductor, [c * x for x in b], den)
        return _normalised(self.conductor, _mul_reduced(self.conductor, a, b), den)

    __rmul__ = __mul__

    def inverse(self) -> CycNumber:
        """Multiplicative inverse: the product of the other Galois conjugates over the norm.

        For a = num/den, P = prod of sigma_u(num) over the units u != 1 mod N
        satisfies num * P = Norm(num), a nonzero integer, so
        a^-1 = den * P / Norm(num).
        """
        num, den = self.num, self.den
        k = len(num)
        zeros = num.count(0)
        if zeros == k:
            raise ZeroDivisionError("inverse of zero")
        if zeros == k - 1 and num[0]:
            norm, prod = num[0], (1,) + (0,) * (k - 1)
        else:
            prod = None
            for images in _conjugations(self.conductor):
                conj = _conjugate(images, num)
                prod = conj if prod is None else _mul_reduced(self.conductor, prod, conj)
            check = _mul_reduced(self.conductor, num, prod)
            norm = check[0]
            if any(check[1:]) or not norm:
                raise ArithmeticError("norm of a nonzero element was not a nonzero rational")
        if norm < 0:
            norm, den = -norm, -den
        return _normalised(self.conductor, [den * x for x in prod], norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, e: int) -> CycNumber:
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        result = CycNumber.one(self.conductor)
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, CycNumber) else other
        if not isinstance(o, CycNumber):
            return NotImplemented
        return (self.conductor == o.conductor and self.den == o.den
                and self.num == o.num)

    def __hash__(self):
        return hash((self.conductor, self.num, self.den))

    def __bool__(self):
        return any(self.num)

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def embed(self, conductor: int) -> CycNumber:
        """Image under Q(zeta_N) -> Q(zeta_M), zeta_N -> zeta_M^(M/N); needs N | M."""
        if conductor % self.conductor != 0:
            raise ConductorMismatch(
                f"{self.conductor} does not divide {conductor}")
        scale = conductor // self.conductor
        vec = [0] * ((len(self.num) - 1) * scale + 1)
        for i, x in enumerate(self.num):
            vec[i * scale] = x
        return _normalised(conductor, _reduce(conductor, vec), self.den)

    def _coord_strs(self) -> list[str]:
        den = self.den
        if den == 1:
            return [str(x) for x in self.num]
        return [_coord_str(x, den) for x in self.num]

    def to_json(self) -> dict:
        return {"conductor": self.conductor, "coeffs": self._coord_strs()}

    @classmethod
    def from_json(cls, data: dict) -> CycNumber:
        """Read {"conductor": int, "coeffs": [coordinate, ...]}; other JSON types raise TypeError.

        The coordinates are read as the constructor reads them, so a JSON
        number is an int or raises TypeError, and a text is any spelling
        that `Fraction` accepts.
        """
        conductor, coeffs = data["conductor"], data["coeffs"]
        _check_json_int(conductor)
        if type(coeffs) is not list:
            raise TypeError(f"coeffs must be a JSON list, got {coeffs!r}")
        return cls(conductor, coeffs)

    def __str__(self) -> str:
        parts = []
        den = self.den
        for i, x in enumerate(self.num):
            if not x:
                continue
            c = _coord_str(x, den)
            if i == 0:
                parts.append(c)
                continue
            mon = f"z{self.conductor}" if i == 1 else f"z{self.conductor}^{i}"
            if x == den:
                parts.append(mon)
            elif x == -den:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
        if not parts:
            return "0"
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self) -> str:
        return f"CycNumber({self.conductor}, {self._coord_strs()})"


_set_conductor = CycNumber.conductor.__set__
_set_num = CycNumber.num.__set__
_set_den = CycNumber.den.__set__


def _raw(conductor: int, num: tuple[int, ...], den: int) -> CycNumber:
    # trusted constructor: num/den must already be normalised
    obj = object.__new__(CycNumber)
    _set_conductor(obj, conductor)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _normalised(conductor: int, num, den: int) -> CycNumber:
    # divide out gcd(content(num), den); den > 0
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            return _raw(conductor, tuple(x // g for x in num), den // g)
    return _raw(conductor, tuple(num), den)


def _sub_mul(c: CycNumber, a: CycNumber, b: CycNumber) -> CycNumber:
    # c - a*b over one conductor with a single normalisation, where
    # c - (a * b) would take one gcd for the product and one for the
    # difference; it is the update of exact elimination's inner loop
    an, bn = a.num, b.num
    k = len(an)
    za, zb = an.count(0), bn.count(0)
    if za == k or zb == k:
        return c
    conductor = c.conductor
    if zb == k - 1 and bn[0]:
        prod = [bn[0] * x for x in an]
    elif za == k - 1 and an[0]:
        prod = [an[0] * y for y in bn]
    else:
        prod = _mul_reduced(conductor, an, bn)
    cn, dc, dab = c.num, c.den, a.den * b.den
    if dc == dab:
        return _normalised(conductor, [x - y for x, y in zip(cn, prod)], dc)
    return _normalised(conductor, [x * dab - y * dc for x, y in zip(cn, prod)],
                       dc * dab)


def zeta_power(conductor: int, exponent: int) -> CycNumber:
    """zeta_N^j as a reduced element of Q(zeta_N).

    >>> zeta_power(4, 2)
    CycNumber(4, ['-1', '0'])
    """
    if conductor < 1:
        raise ValueError("conductor must be >= 1")
    return _raw(conductor, _zeta_table(conductor)[exponent % conductor], 1)


def order_of_unit(a: CycNumber) -> int | None:
    """Smallest k >= 1 with a^k = 1, or None if a is not a root of unity.

    Every root of unity in Q(zeta_N) has order dividing lcm(2, N), so the
    scan stops there.
    """
    if a.is_zero():
        raise ZeroDivisionError("zero is not a unit")
    bound = a.conductor if a.conductor % 2 == 0 else 2 * a.conductor
    one = CycNumber.one(a.conductor)
    acc = a
    for k in range(1, bound + 1):
        if acc == one:
            return k
        acc = acc * a
    return None


def _unit_exponents(conductor: int) -> list[tuple[int, int]]:
    # (sign, j) once for each root of unity sign * zeta_N^j in Q(zeta_N):
    # for even N, -zeta^j = zeta^(j + N/2), so j < N/2 lists each once
    half = conductor if conductor % 2 else conductor // 2
    return [(sign, j) for j in range(half) for sign in (1, -1)]


def roots_of_unity(conductor: int) -> list[CycNumber]:
    """All roots of unity in Q(zeta_N): the group generated by -1 and zeta_N.

    Listed as zeta^0, -zeta^0, zeta^1, -zeta^1, ...
    """
    return [sign * zeta_power(conductor, j)
            for sign, j in _unit_exponents(conductor)]


def _integer_nth_root(value: int, n: int) -> int | None:
    # exact n-th root of a nonnegative integer, or None.  Integer Newton
    # steps from 2^ceil(bits/n), an overestimate, fall strictly until they
    # reach floor(value^(1/n)).
    if value < 0:
        raise ValueError("negative value")
    if value in (0, 1):
        return value
    x = 1 << -(-value.bit_length() // n)
    while True:
        y = ((n - 1) * x + value // x ** (n - 1)) // n
        if y >= x:
            break
        x = y
    return x if x ** n == value else None


def nth_root_in_field(a: CycNumber, n: int) -> CycNumber | None:
    """Some b in Q(zeta_N) with b^n = a, searching b in Q_{>0} x (roots of unity).

    Covers every product of a positive rational and a root of unity; for
    values whose roots exist in the field but lie outside that set it
    returns None (full number-field factorization is out of scope here).
    n must be an int >= 1, else TypeError or ValueError.
    """
    _check_int(n, "n")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if a.is_zero():
        return CycNumber.zero(a.conductor)
    cond = a.conductor
    for sign, j in _unit_exponents(cond):
        # w = sign * zeta^j has w^-n = sign^n * zeta^(-jn)
        t = a * zeta_power(cond, -j * n)
        if sign < 0 and n % 2:
            t = -t
        if t.is_rational() and t.num[0] > 0:
            num = _integer_nth_root(t.num[0], n)
            den = _integer_nth_root(t.den, n)
            if num is not None and den is not None:
                # w, a root of unity, has integer coordinates over den 1
                w = zeta_power(cond, j)
                return _normalised(cond, [sign * num * x for x in w.num], den)
    return None
