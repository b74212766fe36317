"""Independent checks of a round's outputs, run after timing ends.

Integer answers (orders, scans, PI degrees, span and hom dimensions) are
recomputed from number theory and representation theory.  Field elements
are compared with sympy polynomials reduced mod Phi_N, never with the
program's own CycNumber arithmetic; invertibility is decided by a
determinant modulo a prime P = 1 (mod N).  Each check returns a list of
error strings; an empty list means the round is correct.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import sympy
from sympy import QQ, Poly, cyclotomic_poly, symbols

from qheisenberg import linalg, pbw, reps
from qheisenberg.arith import derive_params
from qheisenberg.cyclotomic import zeta_power

_T = symbols("t")


class Field:
    """Q(zeta_N) as sympy polynomials in t reduced mod Phi_N(t)."""

    _cache: dict[int, "Field"] = {}

    def __new__(cls, conductor: int):
        if conductor not in cls._cache:
            self = super().__new__(cls)
            self.n = conductor
            self.phi = Poly(cyclotomic_poly(conductor, _T), _T, domain=QQ)
            cls._cache[conductor] = self
        return cls._cache[conductor]

    def zeta(self, e: int) -> Poly:
        return Poly(_T ** (e % self.n), _T, domain=QQ).rem(self.phi)

    def rational(self, value) -> Poly:
        value = Fraction(value)
        return Poly(sympy.Rational(value.numerator, value.denominator), _T,
                    domain=QQ)

    def of(self, cyc) -> Poly:
        """Read a program scalar's coordinates (data only, no arithmetic)."""
        if cyc.conductor != self.n:
            raise ValueError("conductor mismatch")
        coeffs = [sympy.Rational(c.numerator, c.denominator)
                  for c in reversed(cyc.coeffs)]
        return Poly(coeffs or [0], _T, domain=QQ)

    def mul(self, *factors: Poly) -> Poly:
        out = Poly(1, _T, domain=QQ)
        for f in factors:
            out = (out * f).rem(self.phi)
        return out

    def pow(self, a: Poly, e: int) -> Poly:
        out = Poly(1, _T, domain=QQ)
        for _ in range(e):
            out = (out * a).rem(self.phi)
        return out


def _exponents(params) -> tuple[int, int]:
    """Exponents of p and q as powers of zeta_conductor."""
    scale = params.conductor // params.l
    return scale * params.s1 * params.k1, scale * params.s2 * params.k2


# --- modular determinant ------------------------------------------------------

def _prime_for(conductor: int) -> tuple[int, int]:
    """A prime P = 1 (mod N) near 2^61 and an element of order N in F_P."""
    k = (1 << 61) // conductor
    while not sympy.isprime(k * conductor + 1):
        k += 1
    prime = k * conductor + 1
    factors = sympy.primefactors(conductor)
    for a in range(2, prime):
        z = pow(a, (prime - 1) // conductor, prime)
        if all(pow(z, conductor // r, prime) != 1 for r in factors):
            return prime, z
    raise ArithmeticError("no element of order N")


def invertible_mod_prime(mat) -> bool:
    """det(mat) != 0, shown by a nonzero determinant modulo P.

    Reduction Z_(P)[zeta] -> F_P is a ring map, so a nonzero image of the
    determinant proves the determinant itself nonzero.
    """
    prime, z = _prime_for(mat.conductor)
    rows = []
    for row in mat.rows:
        out = []
        for cyc in row:
            acc = 0
            for i, c in enumerate(cyc.coeffs):
                if c:
                    acc += c.numerator * pow(c.denominator, -1, prime) * pow(z, i, prime)
            out.append(acc % prime)
        rows.append(out)
    n = len(rows)
    for col in range(n):
        piv = next((r for r in range(col, n) if rows[r][col]), None)
        if piv is None:
            return False
        rows[col], rows[piv] = rows[piv], rows[col]
        inv = pow(rows[col][col], -1, prime)
        for r in range(col + 1, n):
            f = rows[r][col] * inv % prime
            if f:
                rows[r] = [(a - f * b) % prime for a, b in zip(rows[r], rows[col])]
    return True


# --- matrix checks with sympy scalars -----------------------------------------

def _sparse(field: Field, mat) -> dict:
    return {(i, j): field.of(e) for i, row in enumerate(mat.rows)
            for j, e in enumerate(row) if not e.is_zero()}


def _sparse_mul(field: Field, a: dict, b: dict) -> dict:
    by_row: dict[int, list] = {}
    for (t, j), v in b.items():
        by_row.setdefault(t, []).append((j, v))
    out: dict = {}
    for (i, t), u in a.items():
        for j, v in by_row.get(t, ()):
            out[(i, j)] = ((out.get((i, j), Poly(0, _T, domain=QQ)) + u * v)
                           .rem(field.phi))
    return {k: v for k, v in out.items() if not v.is_zero}


def intertwines(rep_a, rep_b, mat) -> list[str]:
    """M_a P = P M_b for x, y, z, and P invertible."""
    field = Field(mat.conductor)
    p = _sparse(field, mat)
    errors = []
    for name in ("Mx", "My", "Mz"):
        left = _sparse_mul(field, _sparse(field, getattr(rep_a, name)), p)
        right = _sparse_mul(field, p, _sparse(field, getattr(rep_b, name)))
        if left != right:
            errors.append(f"{name} P != P {name}'")
    if not invertible_mod_prime(mat):
        errors.append("intertwiner is singular")
    return errors


# --- algebra ------------------------------------------------------------------

def _twist(m, n, k1, k2) -> tuple[int, int, int, int]:
    g = math.gcd(m, n)
    l = m * n // g
    return l, n // g * k1, m // g * k2, (n // g * k1 + m // g * k2) % l


def _expected_scan(m: int, n: int) -> dict:
    l = math.lcm(m, n)
    entries = []
    for k1 in range(m):
        for k2 in range(n):
            _, e1, e2, e = _twist(m, n, k1, k2)
            if math.gcd(k1, m) == 1 and math.gcd(k2, n) == 1 and e:
                entries.append({"k1": k1, "k2": k2, "ord": l // math.gcd(e, l)})
    orders = [x["ord"] for x in entries]
    verdict = ("ALWAYS_MAX" if all(o == l for o in orders) else
               "ALWAYS_NONMAX" if all(o < l for o in orders) else "MIXED")
    return {"m": m, "n": n, "verdict": verdict, "entries": entries}


def _terms(payload: dict) -> dict:
    return {(t["i"], t["j"], t["k"]): t["c"]["coeffs"] for t in payload["terms"]}


def _poly_from_json(field: Field, coeffs: list[str]) -> Poly:
    values = [sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
              for c in reversed(coeffs)]
    return Poly(values or [0], _T, domain=QQ)


def _theta_top(field: Field, params, e: int) -> Poly:
    """Coefficient of x^e y^e in theta^e: (q - p^-1)^e q^(e(e-1)/2)."""
    ep, eq = _exponents(params)
    diff = field.zeta(eq) - field.zeta(-ep)
    return field.mul(field.pow(diff, e), field.zeta(eq * (e * (e - 1) // 2)))


def _check_theta_power(field, params, terms, e, r, scalar) -> list[str]:
    errors = []
    corner = terms.get((r + e, 0, 0))
    if corner is None or _poly_from_json(field, corner) != scalar:
        errors.append(f"z^{r + e} coefficient of z^{r} theta^{e}")
    top = terms.get((r, e, e))
    want = field.mul(scalar, _theta_top(field, params, e))
    if top is None or _poly_from_json(field, top) != want:
        errors.append(f"x^{e}y^{e} coefficient of z^{r} theta^{e}")
    return errors


def _check_center(params, payload) -> list[str]:
    field = Field(params.conductor)
    one = field.rational(1)
    gens = {g["name"]: _terms(g["element"]) for g in payload["generators"]}
    m, n, l = params.m, params.n, params.l
    errors = []
    for name, key in ((f"z^{m}", (m, 0, 0)), (f"x^{l}", (0, l, 0)),
                      (f"y^{l}", (0, 0, l))):
        terms = gens.get(name, {})
        if list(terms) != [key] or _poly_from_json(field, terms[key]) != one:
            errors.append(f"center generator {name}")
    errors += _check_theta_power(field, params, gens[f"theta^{n}"], n, 0, one)
    # omega = z^r theta^s with p^r = q^s; its top term sits at (r, s, s)
    r, s, _ = max(gens["omega"], key=lambda key: key[1])
    ep, eq = _exponents(params)
    if (ep * r - eq * s) % params.conductor:
        errors.append("omega exponents do not satisfy p^r = q^s")
    errors += _check_theta_power(field, params, gens["omega"], s, r, one)
    return errors


def check_algebra(ops, outputs) -> list[str]:
    errors = []
    for op, (code, text) in zip(ops, outputs):
        if code != 0:
            errors.append(f"{op.label}: exit code {code}")
            continue
        payload = json.loads(text)
        meta = op.meta
        m, n, k1, k2 = meta["m"], meta["n"], meta["k1"], meta["k2"]
        l, e1, e2, e = _twist(m, n, k1, k2)
        bad = False
        if op.kind == "order":
            bad = payload != {"ord_pq": l // math.gcd(e, l)}
        elif op.kind == "pideg":
            h = math.gcd(e1, e2)
            bad = payload != {"l": l, "pideg_theorem": l, "pideg_snf": l,
                              "invariant_factors": [h, h, 0]}
        elif op.kind == "scan":
            bad = payload != _expected_scan(m, n)
        elif op.kind == "center":
            errs = _check_center(derive_params(m, n, k1, k2), payload)
            errors += [f"{op.label}: {x}" for x in errs]
        elif op.kind == "nf-theta":
            params = derive_params(m, n, k1, k2)
            field = Field(params.conductor)
            scalar = field.mul(field.rational(meta["coeff"]), field.zeta(meta["exp"]))
            errs = _check_theta_power(field, params, _terms(payload), meta["e"], 0,
                                      scalar)
            errors += [f"{op.label}: {x}" for x in errs]
        elif op.kind == "nf-product":
            params = derive_params(m, n, k1, k2)
            (c1, x1, ijk1), (c2, x2, ijk2) = meta["factors"]
            a = pbw.PbwElement.monomial(params, *ijk1, _scalar(params, c1, x1))
            b = pbw.PbwElement.monomial(params, *ijk2, _scalar(params, c2, x2))
            bad = payload != pbw.product_via_rewriting(a, b).to_json()
        if bad:
            errors.append(f"{op.label}: got {text.strip()[:200]}")
    return errors


def _scalar(params, coeff, exp):
    return zeta_power(params.conductor, exp) * coeff


# --- relations ----------------------------------------------------------------

def _pq_number(field: Field, params, k: int) -> Poly:
    ep, eq = _exponents(params)
    acc = Poly(0, _T, domain=QQ)
    for i in range(k):
        acc = acc + field.zeta(eq * i - ep * (k - 1 - i))
    return acc.rem(field.phi)


def _perturbed(rep):
    rows = [list(r) for r in rep.Mx.rows]
    rows[0][0] = rows[0][0] + 1
    return reps.MatrixRep(rep.params, rep.d, linalg.FieldMatrix(rows, rep.Mx.conductor),
                          rep.My, rep.Mz)


def check_relations(ops, outputs) -> list[str]:
    errors = []
    for op, (rep, loaded, ok, theta) in zip(ops, outputs):
        params = op.meta["params"]
        field = Field(params.conductor)
        ep, eq = _exponents(params)
        mu, lam, gam = (field.of(op.meta[k]) for k in ("mu", "lam", "gamma"))
        errs = []
        if not ok:
            errs.append("verify_relations rejected a builder output")
        if loaded != rep:
            errs.append("module file round trip changed the module")
        # theta is diagonal: q^-k gamma on V1, q^k lam on V2 and V3
        for i, row in enumerate(theta.rows):
            for j, entry in enumerate(row):
                if i != j:
                    if not entry.is_zero():
                        errs.append(f"theta[{i}][{j}] off-diagonal nonzero")
                    continue
                want = (field.mul(gam, field.zeta(-eq * i)) if op.kind == "V1"
                        else field.mul(lam, field.zeta(eq * i)))
                if field.of(entry) != want:
                    errs.append(f"theta[{i}][{i}]")
        # spot checks of single matrix entries against their formulas
        d = rep.d
        if op.kind == "V1" and d > 1:
            pq = field.zeta(ep + eq)
            # My[k][k-1] mu (pq - 1) = q^-k (pq gamma - (pq)^k lam), k = 1
            got = field.mul(field.of(rep.My.rows[1][0]), mu, pq - field.rational(1))
            want = field.mul(field.zeta(-eq), field.mul(pq, gam) - field.mul(pq, lam))
            if got != want.rem(field.phi):
                errs.append("V1 My[1][0]")
        elif op.kind in ("V2", "V3") and d > 1:
            k = d - 1
            got = field.of(rep.Mx.rows[k][k - 1])
            if op.kind == "V2":
                got = field.mul(got, mu)
            if got != field.mul(lam, _pq_number(field, params, k)):
                errs.append(f"{op.kind} Mx[{k}][{k - 1}]")
        if op.kind == "V1" and reps.verify_relations(_perturbed(rep)).ok:
            errs.append("a perturbed module passed verify_relations")
        errors += [f"{op.label}: {x}" for x in errs]
    return errors


# --- certify ------------------------------------------------------------------

def _in_orbit(field: Field, got: Poly, base: Poly, step: int, count: int) -> bool:
    return any(got == field.mul(base, field.zeta(step * k)) for k in range(count))


def _classified_ok(params, desc, got) -> bool:
    """got describes a module isomorphic to the one desc builds."""
    if got.kind != desc.kind:
        return False
    field = Field(params.conductor)
    ep, eq = _exponents(params)
    f = field.of
    kind = desc.kind
    if kind == "OneDim":
        return (got.mu, got.lam, got.gamma) == (desc.mu, desc.lam, desc.gamma)
    if kind in ("V1", "V2"):
        cycle = params.l
    elif kind == "QPlaneZ":
        cycle = params.n
    elif kind == "QPlaneTheta":
        cycle = params.m
    else:
        cycle = None
    if cycle is not None and field.pow(f(got.mu), cycle) != field.pow(f(desc.mu), cycle):
        return False
    if kind == "V1":
        return any(f(got.lam) == field.mul(f(desc.lam), field.zeta(ep * k))
                   and f(got.gamma) == field.mul(f(desc.gamma), field.zeta(-eq * k))
                   for k in range(params.l))
    if kind in ("V2", "V3"):
        return _in_orbit(field, f(got.lam), f(desc.lam), -ep, params.l)
    if kind == "QPlaneZ":
        return _in_orbit(field, f(got.gamma), f(desc.gamma), eq, params.n)
    return _in_orbit(field, f(got.lam), f(desc.lam), ep, params.m)


def check_certify(ops, outputs) -> list[str]:
    errors = []
    for op, out in zip(ops, outputs):
        meta = op.meta
        errs = []
        if op.kind == "is_simple" and out is not True:
            errs.append("simple module reported not simple")
        elif op.kind == "classify":
            if not _classified_ok(meta["params"], meta["desc"], out):
                errs.append(f"classified as {out}")
        elif op.kind == "find_iso":
            if out is None:
                errs.append("no intertwiner between isomorphic modules")
            else:
                errs += intertwines(meta["rep"], meta["rep_iso"], out)
        elif op.kind == "find_noniso" and out is not None:
            errs.append("intertwiner between non-isomorphic modules")
        elif op.kind == "intertwiner":
            errs += intertwines(meta["rep"], meta["rep_iso"], out)
        errors += [f"{op.kind} {op.label}: {x}" for x in errs]
    return errors


# --- reducible ----------------------------------------------------------------

def check_reducible(ops, outputs) -> list[str]:
    errors = []
    for op, out in zip(ops, outputs):
        iso = op.meta["which"] == "iso"
        d = op.meta["d"]
        # Wedderburn: End(A + B) spans M_d(K) x M_d(K), End(A + A) only M_d(K);
        # Schur: Hom dimensions count multiplicities
        want = {"is_simple": False,
                "span": d * d if iso else 2 * d * d,
                "end": 4 if iso else 2,
                "hom_to_a": 2 if iso else 1}[op.kind]
        if out != want:
            errors.append(f"{op.kind} {op.label}: got {out}, want {want}")
    return errors


CHECKS = {"algebra": check_algebra, "relations": check_relations,
          "certify": check_certify, "reducible": check_reducible}
