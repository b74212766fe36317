"""Root-of-unity parameter arithmetic for the quantum Heisenberg algebra.

The algebra H_{p,q} is generated by x, y, z subject to

    z x = p^-1 x z,    z y = p y z,    y x - q x y = z.

Here both deformation scalars are roots of unity: ord(p) = m, ord(q) = n,
with p q != 1.  Writing g = gcd(m, n), l = lcm(m, n), s1 = n/g, s2 = m/g,
every such pair arises as p = w^(s1 k1), q = w^(s2 k2) for a primitive
l-th root w and indices gcd(k1, m) = gcd(k2, n) = 1; the pq != 1 condition
is s1 k1 + s2 k2 != 0 (mod l).

This module handles everything about the integer side: admissible index
pairs, the skew-commutator exponent matrix and its Smith normal form, the
PI degree, the multiplicative order of pq, and the classification of
order pairs (m, n) by whether ord(pq) always, never, or sometimes attains
its maximum l.
"""

from __future__ import annotations

import dataclasses
import functools
import math

from .cyclotomic import (CycNumber, _check_int, _check_json_int,
                         _prime_factorization, zeta_power)

ALWAYS_MAX = "ALWAYS_MAX"
ALWAYS_NONMAX = "ALWAYS_NONMAX"
MIXED = "MIXED"

# The largest conductor derive_params accepts.  Deriving the parameters
# and ord(pq) takes at most 1.4 s up to N = 1000 on a 2-vCPU x86-64 box
# ((m, n) = (1000, 1000) is the slowest), 3.8 s at N = 4006 and 13 s at
# N = 8002; (m, n) = (10007, 2) runs out of 1.5 GB, and (1000003, 2)
# would build a zeta table of N * phi(N) > 10^12 integers.  Operations
# that invert pay more: one field inverse costs about phi(N)^3 integer
# steps, about 1 s at N = 199 and 27 s at N = 1006.
MAX_CONDUCTOR = 1000

# The largest m * n that scan_orders accepts.  At m * n = 100006,
# (m, n) = (50003, 2), the CLI scan took 0.4 s, 69 MB and printed 3.2 MB
# on a 2-vCPU x86-64 box; time and output grow linearly in m * n.
MAX_SCAN_PAIRS = 100_000


class InvalidParameters(ValueError):
    """Raised for parameter choices violating the admissibility conditions."""


@dataclasses.dataclass(frozen=True)
class AlgebraParams:
    """A concrete admissible parameter choice, with p and q materialized.

    conductor is the cyclotomic field Q(zeta_conductor) all scalar data
    lives in; it defaults to l = lcm(m, n) and must be a multiple of it.
    """

    m: int
    n: int
    k1: int
    k2: int
    s1: int
    s2: int
    l: int
    conductor: int
    p: CycNumber
    q: CycNumber

    def power(self, a: int, b: int) -> CycNumber:
        """p^a q^b for any integers a, b, read from the zeta table by exponent.

        p = w^(s1 k1) and q = w^(s2 k2) for w = zeta_conductor^(conductor/l).
        """
        return zeta_power(self.conductor, self.conductor // self.l
                          * (a * self.s1 * self.k1 + b * self.s2 * self.k2))

    def pq_numbers(self, count: int) -> list[CycNumber]:
        """This parameter set's one read-only list of [k]_{p,q} (`pbw.pq_number`),
        grown to at least count entries by [k+1] = q^k + p^-1 [k]."""
        out = self._pq_list
        if len(out) < count:
            p_inv = self.power(-1, 0)
            for k in range(len(out) - 1, count - 1):
                out.append(self.power(0, k) + p_inv * out[k])
        return out

    @functools.cached_property
    def _pq_list(self) -> list[CycNumber]:
        return [CycNumber.zero(self.conductor)]

    def to_json(self) -> dict:
        data = {"m": self.m, "n": self.n, "k1": self.k1, "k2": self.k2}
        if self.conductor != self.l:
            data["conductor"] = self.conductor
        return data

    @classmethod
    def from_json(cls, data: dict) -> AlgebraParams:
        for key in ("m", "n", "k1", "k2"):
            _check_json_int(data[key], key)
        if "conductor" in data:
            _check_json_int(data["conductor"])
        return derive_params(data["m"], data["n"], data["k1"], data["k2"],
                             conductor=data.get("conductor"))


def is_valid_pair(m: int, n: int, k1: int, k2: int) -> bool:
    if m < 1 or n < 1 or (m == 1 and n == 1):
        return False
    if not (0 <= k1 < m and 0 <= k2 < n):
        return False
    if math.gcd(k1, m) != 1 or math.gcd(k2, n) != 1:
        return False
    g = math.gcd(m, n)
    l = m * n // g
    return (n // g * k1 + m // g * k2) % l != 0


def _admissible(m: int, n: int, k1: int | None = None, k2: int | None = None):
    # the admissible (k1, k2) for m, n >= 1 in lexicographic order, one at a
    # time, with a given index held fixed; an index not coprime to its
    # order is passed over before is_valid_pair is asked
    for a in range(m) if k1 is None else (k1,):
        if math.gcd(a, m) == 1:
            for b in range(n) if k2 is None else (k2,):
                if math.gcd(b, n) == 1 and is_valid_pair(m, n, a, b):
                    yield a, b


def _require_admissible(m: int, n: int) -> None:
    # stops at the first admissible pair rather than listing them all
    _check_int(m, "m")
    _check_int(n, "n")
    if m < 1 or n < 1 or next(_admissible(m, n), None) is None:
        raise InvalidParameters(f"no admissible parameters for (m, n) = ({m}, {n})")


def valid_pairs(m: int, n: int) -> list[tuple[int, int]]:
    """All admissible (k1, k2) for the order pair (m, n), sorted."""
    _check_int(m, "m")
    _check_int(n, "n")
    if m < 1 or n < 1:
        return []
    return list(_admissible(m, n))


def _order_is(a: CycNumber, k: int) -> bool:
    # ord(a) == k via the divisor criterion: a^k = 1 and a^(k/r) != 1
    # for every prime r | k; binary powering keeps large conductors cheap
    return a ** k == 1 and all(a ** (k // r) != 1 for r in _prime_factorization(k))


@functools.lru_cache(maxsize=None)
def _derive(m: int, n: int, k1: int, k2: int, conductor: int) -> AlgebraParams:
    g = math.gcd(m, n)
    l = m * n // g
    s1, s2 = n // g, m // g
    scale = conductor // l
    p = zeta_power(conductor, scale * s1 * k1)
    q = zeta_power(conductor, scale * s2 * k2)
    if not _order_is(p, m) or not _order_is(q, n):
        raise ArithmeticError("constructed scalars have the wrong order")
    return AlgebraParams(m=m, n=n, k1=k1, k2=k2, s1=s1, s2=s2, l=l,
                         conductor=conductor, p=p, q=q)


def derive_params(m: int, n: int, k1: int | None = None, k2: int | None = None,
                  conductor: int | None = None) -> AlgebraParams:
    """Materialize p, q in Q(zeta_conductor) for the index pair (k1, k2).

    Omitted k1, k2 default to the lexicographically smallest admissible
    pair.  Raises InvalidParameters when the inputs violate any
    admissibility condition, no admissible pair exists, or the conductor
    (l = lcm(m, n) unless given) exceeds MAX_CONDUCTOR.  An argument
    that is given and is not an int (a bool, a float) raises TypeError.
    """
    for name, value in dict(m=m, n=n, k1=k1, k2=k2, conductor=conductor).items():
        if value is not None or name in ("m", "n"):
            _check_int(value, name)
    if m < 1 or n < 1:
        raise InvalidParameters("orders m, n must be >= 1")
    l = math.lcm(m, n)
    size = max(l, conductor or 0)
    if size > MAX_CONDUCTOR:
        raise InvalidParameters(f"conductor {size} exceeds the limit "
                                f"MAX_CONDUCTOR = {MAX_CONDUCTOR}")
    if m == 1 and n == 1:
        raise InvalidParameters("m = n = 1 forces p = q = 1, excluded")
    if k1 is not None and not (0 <= k1 < m):
        raise InvalidParameters(f"k1 must satisfy 0 <= k1 < m, got {k1}")
    if k2 is not None and not (0 <= k2 < n):
        raise InvalidParameters(f"k2 must satisfy 0 <= k2 < n, got {k2}")
    if k1 is not None and math.gcd(k1, m) != 1:
        raise InvalidParameters(f"gcd(k1, m) = gcd({k1}, {m}) != 1")
    if k2 is not None and math.gcd(k2, n) != 1:
        raise InvalidParameters(f"gcd(k2, n) = gcd({k2}, {n}) != 1")
    if k1 is None or k2 is None:
        _require_admissible(m, n)
        # pairs come in lexicographic order, so the first fit pairs a given
        # index with its smallest partner
        fit = next(_admissible(m, n, k1, k2), None)
        if fit is None:
            name, k = ("k1", k1) if k2 is None else ("k2", k2)
            raise InvalidParameters(f"{name} = {k} has no admissible partner "
                                    f"index for (m, n) = ({m}, {n})")
        k1, k2 = fit
    if not is_valid_pair(m, n, k1, k2):
        raise InvalidParameters(
            f"(k1, k2) = ({k1}, {k2}) gives p*q = 1, excluded")
    if conductor is None:
        conductor = l
    elif conductor % l != 0:
        raise InvalidParameters(f"conductor must be a multiple of l = {l}")
    return _derive(m, n, k1, k2, conductor)


# --- integer matrices -------------------------------------------------------

def smith_normal_form(mat: list[list[int]]) -> list[int]:
    """The diagonal of the Smith normal form of an integer matrix.

    Unimodular row and column operations diagonalize a copy of mat; the
    min(rows, cols) diagonal entries are nonnegative, each dividing the
    next.  The transforms themselves are not kept.  mat must be a list of
    int lists of one length, both non-empty, else TypeError or ValueError.

    >>> smith_normal_form([[0, -3, 3], [3, 0, -2], [-3, 2, 0]])
    [1, 1, 0]
    >>> smith_normal_form([[2, 0], [0, 3]])
    [1, 6]
    """
    if type(mat) is not list or any(type(row) is not list for row in mat):
        raise TypeError("matrix must be a list of rows, each a list")
    if not mat or not mat[0] or any(len(row) != len(mat[0]) for row in mat):
        raise ValueError("matrix must be a non-empty list of rows of one "
                         "positive length")
    for x in (x for row in mat for x in row):
        _check_int(x, "matrix entry")
    a = [row[:] for row in mat]
    rows, cols = len(a), len(a[0])
    for t in range(min(rows, cols)):
        while True:
            # the first entry of least nonzero size in the trailing block
            pivot = min(((i, j) for i in range(t, rows) for j in range(t, cols)
                         if a[i][j]), key=lambda ij: abs(a[ij[0]][ij[1]]),
                        default=None)
            if pivot is None:
                break
            i, j = pivot
            a[t], a[i] = a[i], a[t]
            if j != t:
                for row in a:
                    row[t], row[j] = row[j], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            # clear column t, then row t; a nonzero remainder becomes the
            # new (strictly smaller) pivot, so this terminates
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    c = a[i][t] // a[t][t]
                    a[i] = [x - c * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    c = a[t][j] // a[t][t]
                    for row in a:
                        row[j] -= c * row[t]
                    if a[t][j]:
                        dirty = True
            if dirty:
                continue
            # force divisibility of the trailing block by the pivot
            offender = next((i for i in range(t + 1, rows) if any(
                a[i][j] % a[t][t] for j in range(t + 1, cols))), None)
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
    return [a[i][i] for i in range(min(rows, cols))]


# --- derived integer invariants --------------------------------------------

def relation_matrix(params: AlgebraParams) -> list[list[int]]:
    """Exponent matrix of the pairwise scalar twists among x, y, z.

    Entry (i, j) is e with  g_i g_j = w^e g_j g_i  for the generator order
    (x, y, z), where w is the primitive l-th root underlying p and q.
    """
    e1 = params.s1 * params.k1
    e2 = params.s2 * params.k2
    return [[0, -e1, e1],
            [e1, 0, -e2],
            [-e1, e2, 0]]


def pi_degree_snf(params: AlgebraParams) -> int:
    """PI degree l / gcd(h1, l), h1 = first invariant factor of the twist matrix."""
    diag = smith_normal_form(relation_matrix(params))
    h1 = diag[0]
    # the 3x3 twist matrix always has invariant factors (h1, h1, 0)
    if diag[1] != h1 or diag[2] != 0:
        raise ArithmeticError(
            f"pi_degree_snf(m={params.m}, n={params.n}, k1={params.k1}, "
            f"k2={params.k2}): invariant factors {diag} are not (h1, h1, 0)")
    expected = math.gcd(params.s1 * params.k1, params.s2 * params.k2)
    if h1 != expected:
        raise ArithmeticError(
            f"pi_degree_snf(m={params.m}, n={params.n}, k1={params.k1}, "
            f"k2={params.k2}): first invariant factor {h1} != gcd {expected}")
    return params.l // math.gcd(h1, params.l)


def pi_degree(m: int, n: int) -> int:
    """PI degree of the whole algebra: lcm(m, n)."""
    _require_admissible(m, n)
    return math.lcm(m, n)


def ord_formula(m: int, n: int, k1: int, k2: int) -> int:
    """ord(pq) for the index pair, as an integer computation."""
    g = math.gcd(m, n)
    l = m * n // g
    v1 = l // math.gcd(n // g * k1 + m // g * k2, l)
    v2 = (m * n) // math.gcd(m * k2 + n * k1, m * n)
    if v1 != v2:
        raise ArithmeticError(
            f"ord_formula(m={m}, n={n}, k1={k1}, k2={k2}): the two order "
            f"formulas disagree, {v1} != {v2}")
    return v1


def ord_pq(params: AlgebraParams) -> int:
    """Multiplicative order of p*q; cross-checked against the field element."""
    from .cyclotomic import order_of_unit
    value = ord_formula(params.m, params.n, params.k1, params.k2)
    in_field = order_of_unit(params.p * params.q)
    if in_field != value:
        raise ArithmeticError(
            f"ord_pq(m={params.m}, n={params.n}, k1={params.k1}, "
            f"k2={params.k2}): formula gives {value}, the field element "
            f"has order {in_field}")
    return value


def pair_rs(params: AlgebraParams) -> tuple[int, int]:
    """Exponents (r, s) with p^r = q^s pairing the two central torsion parts.

    These feed the mixed central generator z^r theta^s; the defining
    identity p^r = q^s is verified in the field.
    """
    g = math.gcd(params.k1, params.k2)
    r = (params.s2 * (params.k2 // g)) % params.m
    s = (params.s1 * (params.k1 // g)) % params.n
    if params.p ** r != params.q ** s:
        raise ArithmeticError(
            f"pair_rs(m={params.m}, n={params.n}, k1={params.k1}, "
            f"k2={params.k2}): p^{r} != q^{s}")
    return r, s


# --- order-pair classification ---------------------------------------------

@dataclasses.dataclass
class OrderReport:
    """Brute-force ord(pq) table over every admissible (k1, k2) for (m, n)."""

    m: int
    n: int
    verdict: str
    entries: dict[tuple[int, int], int]  # (k1, k2) -> ord(pq)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "verdict": self.verdict,
                "entries": [{"k1": k1, "k2": k2, "ord": o}
                            for (k1, k2), o in sorted(self.entries.items())]}


def scan_orders(m: int, n: int) -> OrderReport:
    """Enumerate admissible pairs and record ord(pq) for each.

    The verdict is observed from the scan: ALWAYS_MAX if every order
    equals l = lcm(m, n), ALWAYS_NONMAX if none does, MIXED otherwise.
    Raises InvalidParameters when m * n exceeds MAX_SCAN_PAIRS.
    """
    _check_int(m, "m")
    _check_int(n, "n")
    if min(m, n) >= 1 and m * n > MAX_SCAN_PAIRS:
        raise InvalidParameters(f"m * n = {m * n} exceeds the scan limit "
                                f"MAX_SCAN_PAIRS = {MAX_SCAN_PAIRS}")
    pairs = valid_pairs(m, n)
    if not pairs:
        raise InvalidParameters(f"no admissible parameters for (m, n) = ({m}, {n})")
    l = math.lcm(m, n)
    entries = {(k1, k2): ord_formula(m, n, k1, k2) for k1, k2 in pairs}
    if all(o == l for o in entries.values()):
        verdict = ALWAYS_MAX
    elif all(o < l for o in entries.values()):
        verdict = ALWAYS_NONMAX
    else:
        verdict = MIXED
    return OrderReport(m=m, n=n, verdict=verdict, entries=entries)


def classify_pair(m: int, n: int) -> str:
    """Predict the scan verdict from m and n alone.

    ALWAYS_MAX iff m = n is an odd prime, or every prime dividing m or n
    divides them to different powers.  ALWAYS_NONMAX iff m and n are
    exactly divisible by the same positive power of 2.  MIXED otherwise.
    """
    _require_admissible(m, n)
    em = _prime_factorization(m)
    en = _prime_factorization(n)
    if (m == n and em == {m: 1}) or all(
            em.get(r, 0) != en.get(r, 0) for r in set(em) | set(en)):
        return ALWAYS_MAX
    if em.get(2, 0) == en.get(2, 0) >= 1:
        return ALWAYS_NONMAX
    return MIXED
