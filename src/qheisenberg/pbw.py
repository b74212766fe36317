"""Normal forms in the quantum Heisenberg algebra H_{p,q}.

Generators x, y, z obey

    z x = p^-1 x z,    z y = p y z,    y x - q x y = z,

and the monomials z^i x^j y^k form a basis.  A PbwElement is a finite
rational-cyclotomic combination of such monomials, stored as a map from
exponent triples (i, j, k) to nonzero coefficients; equality is literal
map equality, so normal forms are canonical.

Products are computed two ways: a fast path built on the closed form of
y^k x^j (see `_yk_xj`; the default), and a literal rewriting engine
driven by the three relations (kept for cross-checking).  p and q are
roots of unity, so the fast path reads every power of p and q from the
zeta table by its exponent (`AlgebraParams.power`).  A scalar operand is
central, and the fast path scales the other operand by it.
"""

from __future__ import annotations

import functools
from collections import Counter
from fractions import Fraction

from .arith import AlgebraParams, ord_formula
from .cyclotomic import CycNumber, _check_json_int

DEGREE_CAP = 10 ** 6

# Limits on each product a power forms (PbwElement.__pow__), checked before
# the product is taken.  POWER_PAIR_CAP bounds its term pairs, each counted
# once per term its reordering y^k1 x^j2 can yield (1 + min(k1 mod ord(pq),
# j2), see `_yk_xj`); POWER_BITS_CAP bounds the bits of a coefficient,
# estimated as the sum of the operands' largest.  On a 2-vCPU x86-64 box a
# product at the pair cap takes about 1 s; (1+x)^500 reaches 62,965 pairs.
POWER_PAIR_CAP = 1 << 16
POWER_BITS_CAP = 1 << 16

_Triple = tuple[int, int, int]


def pq_number(params: AlgebraParams, k: int) -> CycNumber:
    """The twisted integer [k]_{p,q} = sum of q^i p^-(k-1-i) for 0 <= i < k.

    Equals (q^k - p^-k)/(q - p^-1); vanishes exactly when both ord(p) and
    ord(q) divide k, equivalently when ord(pq) divides k.  It has period
    l: [a+b] = q^a [b] + p^-b [a], p^l = 1 and [l] = 0 give [k+l] = [k].
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    return _pq_numbers(params, k % params.l + 1)[-1]


def _pq_numbers(params: AlgebraParams, count: int) -> list[CycNumber]:
    """[0]_{p,q}, ..., [count-1]_{p,q}, each from the last: [k+1] = q^k + p^-1 [k]."""
    p_inv = params.power(-1, 0)
    out = [CycNumber.zero(params.conductor)]
    for k in range(count - 1):
        out.append(params.power(0, k) + p_inv * out[k])
    return out


class PbwElement:
    """An element of H_{p,q} in the z-before-x-before-y normal form.

    A coefficient from a subfield of Q(zeta_conductor) is embedded; one
    from any other field raises ValueError.
    """

    __slots__ = ("params", "terms")

    def __init__(self, params: AlgebraParams, terms: dict[_Triple, CycNumber]):
        clean: dict[_Triple, CycNumber] = {}
        for (i, j, k), c in terms.items():
            if i < 0 or j < 0 or k < 0:
                raise ValueError("negative exponent")
            if i > DEGREE_CAP or j > DEGREE_CAP or k > DEGREE_CAP:
                raise OverflowError(f"exponent beyond the degree cap {DEGREE_CAP}")
            if not isinstance(c, CycNumber):
                c = CycNumber.from_rational(params.conductor, c)
            elif c.conductor != params.conductor:
                c = _coerce_scalar(params, c, nonzero=False)
            if not c.is_zero():
                clean[(i, j, k)] = c
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("PbwElement is immutable")

    # --- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, params: AlgebraParams) -> PbwElement:
        return cls(params, {})

    @classmethod
    def scalar(cls, params: AlgebraParams, c) -> PbwElement:
        return cls(params,
                   {(0, 0, 0): _coerce_scalar(params, c, nonzero=False)})

    @classmethod
    def one(cls, params: AlgebraParams) -> PbwElement:
        return cls.scalar(params, 1)

    @classmethod
    def monomial(cls, params: AlgebraParams, i: int, j: int, k: int,
                 coeff=1) -> PbwElement:
        return cls(params,
                   {(i, j, k): _coerce_scalar(params, coeff, nonzero=False)})

    # --- ring structure ----------------------------------------------------

    def _check(self, other: PbwElement) -> None:
        if self.params != other.params:
            raise ValueError("params mismatch between operands")

    def __add__(self, other):
        if isinstance(other, (CycNumber, int, Fraction)):
            other = PbwElement.scalar(self.params, other)
        if not isinstance(other, PbwElement):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        zero = CycNumber.zero(self.params.conductor)
        for key, c in other.terms.items():
            out[key] = out.get(key, zero) + c
        return PbwElement(self.params, out)

    __radd__ = __add__

    def __neg__(self):
        return PbwElement(self.params,
                          {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (CycNumber, int, Fraction)):
            other = PbwElement.scalar(self.params, other)
        if not isinstance(other, PbwElement):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> PbwElement:
        c = _coerce_scalar(self.params, c, nonzero=False)
        return PbwElement(self.params,
                          {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, PbwElement):
            return product(self, other)
        if isinstance(other, (CycNumber, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (CycNumber, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, e: int) -> PbwElement:
        if not isinstance(e, int) or e < 0:
            raise ValueError("powers must be non-negative integers")
        result = PbwElement.one(self.params)
        base = self
        while e:
            if e & 1:
                result = _power_step(result, base)
            base = _power_step(base, base) if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (CycNumber, int, Fraction)):
            other = PbwElement.scalar(self.params, other)
        if not isinstance(other, PbwElement):
            return NotImplemented
        return self.params == other.params and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    # --- inspection --------------------------------------------------------

    def coefficient(self, i: int, j: int, k: int) -> CycNumber:
        return self.terms.get((i, j, k), CycNumber.zero(self.params.conductor))

    def sorted_terms(self) -> list[tuple[_Triple, CycNumber]]:
        return sorted(self.terms.items())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j, k), c in self.sorted_terms():
            mon = "".join(f"{g}^{e}" if e > 1 else g
                          for g, e in (("z", i), ("x", j), ("y", k)) if e)
            cs = str(c)
            if mon:
                parts.append(mon if cs == "1" else f"({cs})*{mon}")
            else:
                parts.append(f"({cs})" if ("+" in cs or "-" in cs[1:]) else cs)
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PbwElement({self})"

    # --- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        return {"params": self.params.to_json(),
                "terms": [{"i": i, "j": j, "k": k, "c": c.to_json()}
                          for (i, j, k), c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data: dict) -> PbwElement:
        """Read `to_json`'s form; an exponent that is not a JSON integer raises TypeError."""
        params = AlgebraParams.from_json(data["params"])
        for t in data["terms"]:
            for name in "ijk":
                _check_json_int(t[name], name)
        return cls(params, {(t["i"], t["j"], t["k"]): CycNumber.from_json(t["c"])
                            for t in data["terms"]})


def _coerce_scalar(params: AlgebraParams, value, name: str = "scalar",
                   nonzero: bool = True) -> CycNumber:
    """value in Q(zeta_conductor); a CycNumber of a subfield is embedded."""
    if isinstance(value, CycNumber):
        if value.conductor != params.conductor:
            if params.conductor % value.conductor == 0:
                value = value.embed(params.conductor)
            else:
                raise ValueError(
                    f"{name} lies outside Q(zeta_{params.conductor})")
    elif isinstance(value, (int, Fraction)):
        value = CycNumber.from_rational(params.conductor, value)
    else:
        raise TypeError(f"{name} must be a CycNumber, int, or Fraction")
    if nonzero and value.is_zero():
        raise ValueError(f"{name} must be nonzero")
    return value


def generators(params: AlgebraParams) -> tuple[PbwElement, PbwElement, PbwElement]:
    """The generator triple (x, y, z)."""
    return (PbwElement.monomial(params, 0, 1, 0),
            PbwElement.monomial(params, 0, 0, 1),
            PbwElement.monomial(params, 1, 0, 0))


# --- products ---------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _yk_xj(params: AlgebraParams, k: int, j: int):
    """Normal form of y^k x^j as a tuple of ((i, j, k), coeff) items.

    Closed form, with u = (pq)^-1 and [i] from one `_pq_numbers` list:

        y^k x^j = sum over t of  q^(j(k-t)) p^(t(j-t)) B(k, t) [j][j-1]...[j-t+1]
                                 z^t x^(j-t) y^(k-t),

    where B(k, t) is the Gaussian binomial in u, from the u-Pascal rule
    B(k, t) = B(k-1, t-1) + u^t B(k-1, t) (Kassel, *Quantum Groups*, GTM
    155, section IV.2).  u has order o = ord(pq), so the product of t
    consecutive [i] vanishes once t >= o, and by the q-Lucas theorem
    B(k, t) = B(k mod o, t) for t < o, which is zero for t > k mod o.
    So t runs up to min(k mod o, j), and the Pascal table has k mod o rows.
    """
    cond = params.conductor
    rows = k % ord_formula(params.m, params.n, params.k1, params.k2)
    top = min(rows, j)
    binom = [CycNumber.one(cond)] + [CycNumber.zero(cond)] * top
    for row in range(1, rows + 1):
        for t in range(min(row, top), 0, -1):
            binom[t] = binom[t - 1] + params.power(-t, -t) * binom[t]
    out = []
    falling = CycNumber.one(cond)
    numbers = _pq_numbers(params, min(j + 1, params.l)) if top else ()
    for t in range(top + 1):
        if t:
            falling = falling * numbers[(j - t + 1) % params.l]
        cf = params.power(t * (j - t), j * (k - t)) * binom[t] * falling
        if not cf.is_zero():
            out.append(((t, j - t, k - t), cf))
    return tuple(out)


def product(a: PbwElement, b: PbwElement) -> PbwElement:
    """Normal form of a*b via the closed-form reordering identity.

    Scalars are central, so when either operand is a scalar (or zero) the
    product is the other operand's coefficients times it, with no
    reordering and no power of p or q.
    """
    a._check(b)
    for scalar, other in ((a, b), (b, a)):
        if scalar.terms.keys() <= {(0, 0, 0)}:
            return other.scale(scalar.coefficient(0, 0, 0))
    params = a.params
    zero = CycNumber.zero(params.conductor)
    out: dict[_Triple, CycNumber] = {}
    for (i1, j1, k1), c1 in a.terms.items():
        for (i2, j2, k2), c2 in b.terms.items():
            base = c1 * c2 * params.power((j1 - k1) * i2, 0)
            for (ai, bj, ck), cf in _yk_xj(params, k1, j2):
                key = (i1 + i2 + ai, j1 + bj, ck + k2)
                out[key] = out.get(key, zero) + base * cf * params.power(j1 * ai, 0)
    return PbwElement(params, out)


def _power_step(a: PbwElement, b: PbwElement) -> PbwElement:
    # product(a, b), or OverflowError past POWER_PAIR_CAP or POWER_BITS_CAP
    p = a.params
    # a pair yields at most ord(pq) <= l terms, so most products need no count
    if len(a.terms) * len(b.terms) * p.l > POWER_PAIR_CAP:
        o = ord_formula(p.m, p.n, p.k1, p.k2)
        ks = Counter(k % o for _, _, k in a.terms)
        js = Counter(j for _, j, _ in b.terms)
        pairs = sum(ca * cb * (1 + min(k, j))
                    for k, ca in ks.items() for j, cb in js.items())
        if pairs > POWER_PAIR_CAP:
            raise OverflowError(f"power too large: a product of {pairs} term "
                                f"pairs passes POWER_PAIR_CAP = {POWER_PAIR_CAP}")
    bits = _coeff_bits(a)
    bits += bits if a is b else _coeff_bits(b)
    if bits > POWER_BITS_CAP:
        raise OverflowError(f"power too large: {bits}-bit coefficients "
                            f"pass POWER_BITS_CAP = {POWER_BITS_CAP}")
    return product(a, b)


def _coeff_bits(elem: PbwElement) -> int:
    # the bit length of the largest numerator or denominator in elem, 0 for 0
    return max((max(c.den, max(c.num), -min(c.num))
                for c in elem.terms.values()), default=0).bit_length()


_RANK = {"z": 0, "x": 1, "y": 2}


def product_via_rewriting(a: PbwElement, b: PbwElement) -> PbwElement:
    """Normal form of a*b by literal application of the defining relations.

    Rules (applied at the leftmost adjacency violation of z < x < y):

        x z -> p z x,      y z -> p^-1 z y,      y x -> q x y + z.

    Termination: order words by (length, number of inversions).  The two
    swap rules keep the length and remove an inversion; the y x rule
    yields one shorter word and one swapped word, so every rewrite
    strictly decreases the measure.
    """
    a._check(b)
    params = a.params
    p, q = params.p, params.q
    p_inv = p.inverse()
    zero = CycNumber.zero(params.conductor)
    out: dict[_Triple, CycNumber] = {}
    for (i1, j1, k1), c1 in a.terms.items():
        for (i2, j2, k2), c2 in b.terms.items():
            word = "z" * i1 + "x" * j1 + "y" * k1 + "z" * i2 + "x" * j2 + "y" * k2
            work = [(word, c1 * c2)]
            while work:
                w, c = work.pop()
                for t in range(len(w) - 1):
                    if _RANK[w[t]] > _RANK[w[t + 1]]:
                        pair = w[t] + w[t + 1]
                        swapped = w[:t] + w[t + 1] + w[t] + w[t + 2:]
                        if pair == "xz":
                            work.append((swapped, c * p))
                        elif pair == "yz":
                            work.append((swapped, c * p_inv))
                        else:  # "yx"
                            work.append((swapped, c * q))
                            work.append((w[:t] + "z" + w[t + 2:], c))
                        break
                else:
                    key = (w.count("z"), w.count("x"), w.count("y"))
                    out[key] = out.get(key, zero) + c
    return PbwElement(params, out)


# --- distinguished elements -------------------------------------------------

def theta(params: AlgebraParams) -> PbwElement:
    """The twist element yx - p^-1 xy, in normal form (q - p^-1) xy + z."""
    return PbwElement(params, {
        (0, 1, 1): params.q - params.power(-1, 0),
        (1, 0, 0): CycNumber.one(params.conductor)})


def omega(params: AlgebraParams) -> PbwElement:
    """The mixed central element z^r theta^s with (r, s) from pair_rs."""
    from .arith import pair_rs
    r, s = pair_rs(params)
    return product(PbwElement.monomial(params, r, 0, 0), theta(params) ** s)


def center_generators(params: AlgebraParams) -> list[PbwElement]:
    """The five generators of the center: z^m, theta^n, x^l, y^l, omega."""
    return [PbwElement.monomial(params, params.m, 0, 0),
            theta(params) ** params.n,
            PbwElement.monomial(params, 0, params.l, 0),
            PbwElement.monomial(params, 0, 0, params.l),
            omega(params)]


def is_central(a: PbwElement) -> bool:
    """Whether a commutes with x, y and z (hence with everything)."""
    return all(product(a, g) == product(g, a) for g in generators(a.params))


def commutation_twist(a: PbwElement, gen: str) -> CycNumber | None:
    """The scalar c with gen*a = c*(a*gen), or None if no such scalar.

    The side convention is fixed as left multiplication by the generator:
    e.g. the twist element th = yx - p^-1 xy satisfies x*th = q^-1*(th*x),
    so commutation_twist(th, "x") returns q^-1.
    """
    if a.is_zero():
        raise ValueError("zero element has no commutation twist")
    if gen not in ("x", "y", "z"):
        raise ValueError("gen must be one of 'x', 'y', 'z'")
    x, y, z = generators(a.params)
    g = {"x": x, "y": y, "z": z}[gen]
    left = product(g, a)
    right = product(a, g)
    key = next(iter(right.terms))
    if key not in left.terms:
        return None
    c = left.terms[key] * right.terms[key].inverse()
    return c if left == right.scale(c) else None
