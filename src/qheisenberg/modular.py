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
independent mod P, and so independent exactly.  `reduced` gives
matrices mod P and an empty F_P echelon with the exact echelon's
contract, for `linalg.spin` to walk.  Each returns None when an entry
has a denominator divisible by P, so that no reduction exists.  The
prime and w are found once per conductor, on first use.  This module
imports only `cyclotomic`; `linalg` imports it.
"""

from __future__ import annotations

import functools
from heapq import heapify, heappop, heappush
from itertools import count

from .cyclotomic import _prime_factorization, euler_phi

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


def reduced(mats) -> tuple[list[list[dict]], _Echelon] | None:
    """The sparse rows of each matrix mod P, and an empty F_P echelon.

    The matrices share one conductor.  The rows and the echelon are the
    generators and the echelon that `linalg.spin` walks.  None when an
    entry has a denominator divisible by P.
    """
    prime, powers = _field(mats[0].conductor)
    try:
        rows = [list(_reduce(g._rows, prime, powers)) for g in mats]
    except _NoReduction:
        return None
    return rows, _Echelon(prime)


class _Echelon:
    """Semi-echelon rows over F_P, with the contract of `linalg.SparseEchelon`.

    `insert` returns the admitted row divided by its lead, or None.  A
    pivot row is stored without its lead entry, 1, and its other entries
    sit at larger indices.  Entries may be any ints: each is reduced mod
    P when it is reached as a lead or when the remainder is admitted.
    """

    def __init__(self, prime: int):
        self.prime = prime
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def insert(self, vec: dict) -> dict | None:
        """Reduce vec (index -> int; consumed); admit and return any remainder, lead 1."""
        prime = self.prime
        pivots = self.pivots
        heap = list(vec)
        heapify(heap)
        while heap:
            lead = heappop(heap)
            c = vec.pop(lead, 0) % prime
            if not c:
                continue
            row = pivots.get(lead)
            if row is None:
                inv = pow(c, -1, prime)
                row = pivots[lead] = {k: x for k, v in vec.items()
                                      if (x := v * inv % prime)}
                return {lead: 1, **row}
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
        return None


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
            if ech.insert(vec) is not None:
                admitted.append(pos)
                if len(admitted) == full:
                    break
    except _NoReduction:
        return None
    return admitted
