"""Rank certificates: exact linear algebra checked modulo one prime.

For a conductor N take the first prime P = 1 (mod N) above 2^31 and a
primitive N-th root of unity w in F_P.  Sending zeta_N to w is a ring map
from the elements of Q(zeta_N) whose denominator is prime to P onto F_P:
num/den goes to (sum of num[i] * w^i) / den mod P.  Applied entry by
entry it maps a matrix over Q(zeta_N) to one over F_P, and a rank can
only fall under that map: every minor that vanishes exactly vanishes mod
P.  So a full rank mod P proves a full exact rank, while a short rank
mod P proves nothing.

`independent` returns the positions of the sparse exact rows that are
independent mod P, which are independent exactly too; `rank`,
`span_rank` and `spin_dim` return a rank mod P.  Each returns None when
some entry has a denominator divisible by P (or the matrices do not fit
together) and so no reduction exists.  Callers read an answer from
modular data alone only when the rank is full.  Otherwise they compute
the exact answer: `linalg.matrix_hom_space` passes its intertwining
equations to `independent`, solves exactly from the admitted ones,
verifies every kernel matrix exactly, and inserts every equation when a
check fails.  The prime and w are found once per conductor, on first use.

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


def _reduce(rows, prime: int, powers: tuple[int, ...]):
    # each sparse exact row {index: CycNumber} as {index: nonzero residue},
    # lazily; each distinct entry is reduced once.  The rows share one
    # conductor, so (num, den) identifies an entry.  Raises _NoReduction.
    residues: dict = {}
    for row in rows:
        red = {}
        for k, e in row.items():
            key = (e.num, e.den)
            v = residues.get(key)
            if v is None:
                v = sum(x * wi for x, wi in zip(e.num, powers))
                if e.den != 1:
                    if e.den % prime == 0:
                        raise _NoReduction
                    v *= pow(e.den, -1, prime)
                v = residues[key] = v % prime
            if v:
                red[k] = v
        yield red


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
        return prime, d, [list(_reduce(g._rows, prime, powers)) for g in mats]
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


def independent(rows, conductor: int, full: int | None = None) -> list[int] | None:
    """The positions of the rows that are independent mod P, in order.

    rows is any iterable of sparse exact rows {index: CycNumber} over
    Q(zeta_conductor), whose indices are mutually comparable.  They are
    reduced mod P and offered in order to one F_P echelon, and the
    positions (0, 1, ...) of the rows it admits are returned; the walk
    stops once `full` rows are admitted.  Rows independent mod P are
    independent exactly, so `full` positions prove a full rank.  None
    when an entry met on the walk has a denominator divisible by P.
    """
    prime, powers = _field(conductor)
    ech = _Echelon(prime)
    admitted: list[int] = []
    try:
        for pos, vec in enumerate(_reduce(rows, prime, powers)):
            if vec and ech.insert(vec):
                admitted.append(pos)
                if len(admitted) == full:
                    break
    except _NoReduction:
        return None
    return admitted


def rank(mat) -> int | None:
    """Rank mod P of a FieldMatrix, or None without a reduction."""
    rows = independent(mat._rows, mat.conductor)
    return None if rows is None else len(rows)


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
