"""Rank certificates: exact linear algebra checked modulo one prime.

For a conductor N take the first prime P = 1 (mod N) above 2^31 and a
primitive N-th root of unity w in F_P.  Sending zeta_N to w is a ring map
from the elements of Q(zeta_N) whose denominator is prime to P onto F_P:
num/den goes to (sum of num[i] * w^i) / den mod P.  Applied entry by
entry it maps a matrix over Q(zeta_N) to one over F_P, and a rank can
only fall under that map: every minor that vanishes exactly vanishes mod
P.  So a full rank mod P proves a full exact rank, while a short rank
mod P proves nothing.

`rank`, `span_rank` and `spin_dim` return a rank mod P; `hom_pivots`
returns the positions of the hom-space equations that are independent
mod P, which are independent exactly too.  Each returns None when some
entry has a denominator divisible by P (or the matrices do not fit
together) and so no reduction exists.  Callers read an answer from
modular data alone only when the rank is full.  Otherwise they compute
the exact answer: `linalg.matrix_hom_space` solves exactly from the
admitted equations, verifies every kernel matrix exactly, and inserts
every equation when a check fails.  The prime and w are found once per
conductor, on first use.

`spin_dim` serves Norton's irreducibility test (`reps.weight_certificate`).
If some theta in the algebra has ker theta = ker theta^T = K e_i, one
dimension, and e_i spins to the whole space under the generators and
under their transposes, the module is absolutely simple.  Both spins are
read mod P, and only a full one is used: it proves a full exact spin.
The one-dimensional kernel is read exactly, from a weight of e_i that
no other basis vector shares.
"""

from __future__ import annotations

import functools
from heapq import heapify, heappop, heappush
from itertools import count

from .arith import _prime_factorization
from .cyclotomic import euler_phi

_PRIME_FLOOR = 1 << 31
# Miller-Rabin with these bases decides primality for every n below
# _WITNESS_BOUND (Jaeschke 1993; Zhang and Tang 2003)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_WITNESS_BOUND = 318665857834031151167461


class _NoReduction(Exception):
    """An entry's denominator is divisible by P."""


def _is_prime(n: int) -> bool:
    if n >= _WITNESS_BOUND:
        raise ValueError(f"{n} is beyond the deterministic primality bound")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.lru_cache(maxsize=None)
def _field(conductor: int) -> tuple[int, tuple[int, ...]]:
    """The prime P for this conductor and w^0, ..., w^(phi(N)-1) mod P."""
    prime = _PRIME_FLOOR - _PRIME_FLOOR % conductor + 1
    while not _is_prime(prime):
        prime += conductor
    divisors = [conductor // r for r in _prime_factorization(conductor)]
    for a in count(2):
        w = pow(a, (prime - 1) // conductor, prime)
        if all(pow(w, e, prime) != 1 for e in divisors):
            break
    powers = [1]
    for _ in range(euler_phi(conductor) - 1):
        powers.append(powers[-1] * w % prime)
    return prime, tuple(powers)


def _reduce_matrix(mat, prime: int, powers: tuple[int, ...]) -> list[dict]:
    # one {col: nonzero residue} dict per row of a FieldMatrix
    out = []
    for row in mat._rows:
        red = {}
        for j, e in row.items():
            v = sum(x * wi for x, wi in zip(e.num, powers))
            if e.den != 1:
                if e.den % prime == 0:
                    raise _NoReduction
                v *= pow(e.den, -1, prime)
            v %= prime
            if v:
                red[j] = v
        out.append(red)
    return out


def _reduce_generators(mats) -> tuple[int, int, list] | None:
    # (P, d, reduced matrices) for d x d matrices over one field, else None
    if not mats:
        return None
    d = mats[0].shape[0]
    conductor = mats[0].conductor
    if any(g.shape != (d, d) or g.conductor != conductor for g in mats):
        return None
    prime, powers = _field(conductor)
    try:
        return prime, d, [_reduce_matrix(g, prime, powers) for g in mats]
    except _NoReduction:
        return None


class _Echelon:
    """Semi-echelon rows over F_P with normalised pivots.

    A pivot row is stored without its lead coefficient, which is 1, and
    every other entry sits at a larger index, so a vector is reduced by
    clearing its smallest index until it vanishes or has a new lead.
    """

    def __init__(self, prime: int):
        self.prime = prime
        self.pivots: dict = {}

    def insert(self, vec: dict) -> bool:
        """Reduce vec (index -> nonzero residue; consumed) and admit any remainder."""
        prime = self.prime
        pivots = self.pivots
        heap = list(vec)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            c = vec.pop(lead, None)
            if c is None:
                continue
            row = pivots.get(lead)
            if row is None:
                inv = pow(c, -1, prime)
                pivots[lead] = {k: v * inv % prime for k, v in vec.items()}
                return True
            for k, v in row.items():
                old = vec.get(k)
                if old is None:
                    vec[k] = -c * v % prime
                    heappush(heap, k)
                else:
                    x = (old - c * v) % prime
                    if x:
                        vec[k] = x
                    else:
                        del vec[k]
        return False


def rank(mat) -> int | None:
    """Rank mod P of a FieldMatrix, or None without a reduction."""
    prime, powers = _field(mat.conductor)
    try:
        rows = _reduce_matrix(mat, prime, powers)
    except _NoReduction:
        return None
    ech = _Echelon(prime)
    for row in rows:
        if row:
            ech.insert(row)
    return len(ech.pivots)


def span_rank(mats) -> int | None:
    """Rank mod P of the unital algebra generated by d x d matrices.

    Words in the generators are taken breadth-first from the identity;
    a word is multiplied on by each generator only if it was admitted.
    Full rank is d^2, which proves the exact span is the whole matrix
    algebra.
    """
    d = mats[0].shape[0] if mats else 0
    return _spin(mats, {i * d + i: 1 for i in range(d)}, d * d)


def spin_dim(mats, i: int) -> int | None:
    """Dimension mod P of the spin of e_i under d x d matrices.

    The spin is the span of the row vector e_i times every word in the
    matrices, the smallest subspace containing e_i that each of them
    maps into itself.  Images are taken breadth-first, and only an
    admitted image is multiplied on.  The rank of any set of images can
    only fall under reduction, so a spin of dimension d mod P proves that
    e_i spins to the whole space exactly; a shorter one proves nothing.
    """
    return _spin(mats, {i: 1}, mats[0].shape[0] if mats else 0)


def _spin(mats, seed: dict, full: int) -> int | None:
    # Rank mod P of the images of seed under every word in the matrices,
    # or None without a reduction.  Key r*d + c is entry c of row r, so a
    # row vector is keys below d and a d x d matrix is d^2 keys, and a
    # row times g is that row of the product.  The walk stops at rank full.
    reduced = _reduce_generators(mats)
    if reduced is None:
        return None
    prime, d, gens = reduced
    ech = _Echelon(prime)
    ech.insert(dict(seed))
    vecs = [seed]
    for vec in vecs:
        for g in gens:
            acc: dict = {}
            for key, v in vec.items():
                base = key - key % d
                for j, w in g[key % d].items():
                    acc[base + j] = acc.get(base + j, 0) + v * w
            image = {k: v % prime for k, v in acc.items() if v % prime}
            if image and ech.insert(dict(image)):
                if len(ech.pivots) == full:
                    return full
                vecs.append(image)
    return len(ech.pivots)


def hom_pivots(mats_a, mats_b) -> list[tuple[int, int, int]] | None:
    """The equations A_g X = X B_g that are independent mod P, by position.

    X runs over d_a x d_b matrices.  Equation (g, i, j) says that entry
    (i, j) of A_g X - X B_g vanishes.  The equations are walked in that
    order, g first, and the positions whose reduction the F_P echelon
    admits are returned in order; the walk stops once d_a * d_b are
    admitted.  Equations independent mod P are independent exactly, so
    d_a * d_b positions prove that only X = 0 solves them, and fewer
    positions prove nothing.
    """
    if (len(mats_a) != len(mats_b) or not mats_a
            or mats_a[0].conductor != mats_b[0].conductor):
        return None
    red_a = _reduce_generators(mats_a)
    red_b = _reduce_generators(mats_b)
    if red_a is None or red_b is None:
        return None
    prime, da, gens_a = red_a
    _, db, gens_b = red_b
    full = da * db
    ech = _Echelon(prime)
    admitted: list[tuple[int, int, int]] = []
    for g, (a_rows, b_rows) in enumerate(zip(gens_a, gens_b)):
        b_cols: list[dict] = [{} for _ in range(db)]
        for t, row in enumerate(b_rows):
            for j, v in row.items():
                b_cols[j][t] = v
        for i, a_row in enumerate(a_rows):
            for j, b_col in enumerate(b_cols):
                # (A X)[i][j] - (X B)[i][j] in the unknowns X[t][s] -> t*db + s
                eq = {t * db + j: v for t, v in a_row.items()}
                for t, v in b_col.items():
                    k = i * db + t
                    x = (eq.get(k, 0) - v) % prime
                    if x:
                        eq[k] = x
                    else:
                        eq.pop(k, None)
                if eq and ech.insert(eq):
                    admitted.append((g, i, j))
                    if len(admitted) == full:
                        return admitted
    return admitted
