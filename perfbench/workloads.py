"""The four benchmark workloads: seeded inputs and the ops that use them.

An op is one user-level query.  `build(name, seed)` returns the ops of one
round in a fixed order; every round of a run repeats the same ops.  The
seed chooses scalars, and on algebra and relations index pairs, never the
shape of the work, so the cost of a round barely depends on it.  Functions are called through their
module (`reps.is_simple`, not an imported name) so that the tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from qheisenberg import arith, cli, cyclotomic, linalg, reps

ALGEBRA_MAX_L = 24      # order, pideg and scan on every order pair up to here
CENTER_MAX_L = 8        # center on order pairs with l <= this
NF_MAX_L = 12           # normal-form queries on order pairs with l <= this
RELATIONS_MAX_L = 12    # V1, V2, V3 round trips on order pairs up to here

# V1/V2 cycle scalars whose l-th power defeats the float root estimate in
# cyclotomic._integer_nth_root, so classify fails on these valid modules
PLANTED_FLOAT_ROOT = (("V1", 10 ** 20 + 1), ("V2", Fraction(10 ** 15 + 3, 7)),
                      ("V1", 10 ** 17 + 3))
FLOAT_ROOT_MESSAGE = "has no root in the working field"

_RATIONALS = (Fraction(1), Fraction(2), Fraction(3), Fraction(-1),
              Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4), Fraction(3, 7))


@dataclass
class Op:
    kind: str
    label: str
    fn: Callable
    meta: dict = field(default_factory=dict)
    planted: bool = False  # expected to fail with the float-root fault


def order_pairs(max_l: int) -> list[tuple[int, int]]:
    return [(m, n) for m in range(1, max_l + 1) for n in range(1, max_l + 1)
            if math.lcm(m, n) <= max_l and arith.valid_pairs(m, n)]


def _params(rng: random.Random, m: int, n: int):
    k1, k2 = rng.choice(arith.valid_pairs(m, n))
    return arith.derive_params(m, n, k1, k2)


def _root(params, exponent: int):
    return cyclotomic.zeta_power(params.conductor, exponent)


def general_scalar(rng: random.Random, params):
    """a + b*g^r with small rationals a, b: a general element of the field."""
    while True:
        value = (rng.choice(_RATIONALS)
                 + rng.choice(_RATIONALS) * _root(params, rng.randrange(1, params.conductor)))
        if not value.is_zero():
            return value


def cycle_scalar(rng: random.Random, params):
    """c*g^r with c a positive rational: a cycle scalar classify can root."""
    return abs(rng.choice(_RATIONALS)) * _root(params, rng.randrange(params.conductor))


def run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _cli_op(kind: str, argv: list[str], meta: dict) -> Op:
    return Op(kind, " ".join(argv), lambda: run_cli(argv), meta)


# --- algebra -----------------------------------------------------------------

def _scalar_text(rng: random.Random, params) -> tuple[str, Fraction, int]:
    coeff = rng.choice(_RATIONALS)
    exp = rng.randrange(1, params.conductor)
    return f"({coeff}*g^{exp})", coeff, exp


def _monomial_text(i: int, j: int, k: int) -> str:
    return "*".join(f"{g}^{e}" for g, e in (("z", i), ("x", j), ("y", k)) if e) or "1"


def algebra(rng: random.Random) -> list[Op]:
    ops = []
    for m, n in order_pairs(ALGEBRA_MAX_L):
        params = _params(rng, m, n)
        flags = ["--m", str(m), "--n", str(n), "--k1", str(params.k1),
                 "--k2", str(params.k2)]
        meta = {"m": m, "n": n, "k1": params.k1, "k2": params.k2}
        ops.append(_cli_op("order", ["order", *flags], meta))
        ops.append(_cli_op("pideg", ["pideg", *flags], meta))
        ops.append(_cli_op("scan", ["scan", "--m", str(m), "--n", str(n)], meta))
        if params.l <= CENTER_MAX_L:
            ops.append(_cli_op("center", ["center", *flags], meta))
        if params.l > NF_MAX_L:
            continue
        # theta^e: corner coefficients have a closed form
        e = 3 + params.l % 4
        text, coeff, exp = _scalar_text(rng, params)
        ops.append(_cli_op("nf-theta", ["normal-form", *flags, f"{text}*theta^{e}"],
                           {**meta, "e": e, "coeff": coeff, "exp": exp}))
        # a product of two scaled monomials, small enough to rewrite
        factors = []
        for _ in range(2):
            text, coeff, exp = _scalar_text(rng, params)
            ijk = tuple(rng.randrange(4) for _ in range(3))
            factors.append((text, coeff, exp, ijk))
        expr = "*".join(f"{t}*{_monomial_text(*ijk)}" for t, _, _, ijk in factors)
        ops.append(_cli_op("nf-product", ["normal-form", *flags, expr],
                           {**meta, "factors": [(c, x, ijk) for _, c, x, ijk in factors]}))
    return ops


# --- relations ---------------------------------------------------------------

def _round_trip(build: Callable) -> tuple:
    # module-build writes the module file, module-verify reads it back
    rep = build()
    text = json.dumps(rep.to_json(), indent=2)
    loaded = reps.MatrixRep.from_json(json.loads(text))
    check = reps.verify_relations(loaded)
    return rep, loaded, check.ok, reps.theta_matrix(loaded)


def relations(rng: random.Random) -> list[Op]:
    ops = []
    for m, n in order_pairs(RELATIONS_MAX_L):
        params = _params(rng, m, n)
        mu, lam, gam = (general_scalar(rng, params) for _ in range(3))
        meta = {"params": params, "mu": mu, "lam": lam, "gamma": gam}
        ops.append(Op("V1", f"V1 {m},{n}", lambda p=params, a=mu, b=lam, c=gam:
                      _round_trip(lambda: reps.build_v1(p, a, b, c)), meta))
        ops.append(Op("V2", f"V2 {m},{n}", lambda p=params, a=mu, b=lam:
                      _round_trip(lambda: reps.build_v2(p, a, b)), meta))
        ops.append(Op("V3", f"V3 {m},{n}", lambda p=params, b=lam:
                      _round_trip(lambda: reps.build_v3(p, b)), meta))
    return ops


# --- certify -----------------------------------------------------------------

# (m, n, families, scalars): l = lcm(m, n) runs from 6 to 15.  The cost of
# exact elimination swings by up to a half with the index pair and the
# scalars, so every module takes the default index pair.  The small modules
# take seeded general scalars; the large ones take fixed rational scalars,
# since one large module would carry the swing into the whole round.  The
# large modules' ops are the slowest tenth of a round, so op_p90_ms falls
# among them.
CERTIFY_SETS = (
    (2, 3, ("V1", "V2", "V3"), "general"),
    (3, 2, ("V1", "V2", "V3"), "general"),
    (1, 6, ("V1", "V2", "V3"), "general"),
    (6, 1, ("V1", "V2", "V3"), "general"),
    (4, 8, ("V1", "V2"), "rational"),
    (3, 4, ("V2", "V3"), "rational"),
    (3, 5, ("QPlaneZ", "QPlaneTheta"), "rational"),
    (5, 3, ("QPlaneZ", "QPlaneTheta"), "rational"),
    (4, 6, ("OneDim",), "general"),
)
_FIXED_RATIONALS = (Fraction(3, 2), Fraction(2), Fraction(-5, 3))


def _fixed_rationals():
    """A scalar source handing out 3/2, 2, -5/3 in turn, ignoring the seed."""
    values = iter(_FIXED_RATIONALS * 2)
    return lambda rng, params: cyclotomic.CycNumber.from_rational(
        params.conductor, next(values))


def descriptor(kind: str, params, rng: random.Random,
               scalars: str = "general") -> reps.ModuleDescriptor:
    """A seeded simple module of the given family."""
    if scalars == "rational":
        weight = cycle = _fixed_rationals()
    else:
        weight, cycle = general_scalar, cycle_scalar
    if kind == "V1":
        return reps.ModuleDescriptor(kind, mu=cycle(rng, params),
                                     lam=weight(rng, params),
                                     gamma=weight(rng, params))
    if kind == "V2":
        return reps.ModuleDescriptor(kind, mu=cycle(rng, params),
                                     lam=weight(rng, params))
    if kind == "V3":
        return reps.ModuleDescriptor(kind, lam=weight(rng, params))
    if kind == "QPlaneZ":
        return reps.ModuleDescriptor(kind, mu=cycle(rng, params),
                                     gamma=weight(rng, params))
    if kind == "QPlaneTheta":
        return reps.ModuleDescriptor(kind, mu=cycle(rng, params),
                                     lam=weight(rng, params))
    # x acts by a nonzero scalar, y and z by zero
    zero = cyclotomic.CycNumber.zero(params.conductor)
    return reps.ModuleDescriptor(kind, mu=weight(rng, params),
                                 lam=zero, gamma=zero)


def twin(desc: reps.ModuleDescriptor, params, rng: random.Random):
    """An isomorphic descriptor and its witness shift k."""
    p, q = params.p, params.q
    w = _root(params, params.conductor // params.l * rng.randrange(params.l))
    if desc.kind == "V1":
        k = rng.randrange(1, params.l)
        return reps.ModuleDescriptor("V1", mu=desc.mu * w, lam=desc.lam * p ** k,
                                     gamma=desc.gamma * q ** -k), k
    if desc.kind == "V2":
        return reps.ModuleDescriptor("V2", mu=desc.mu * w, lam=desc.lam), 0
    if desc.kind == "QPlaneZ":
        k = rng.randrange(1, params.n)
        return reps.ModuleDescriptor("QPlaneZ", mu=desc.mu, gamma=desc.gamma * q ** k), k
    if desc.kind == "QPlaneTheta":
        k = rng.randrange(1, params.m)
        return reps.ModuleDescriptor("QPlaneTheta", mu=desc.mu, lam=desc.lam * p ** k), k
    return desc, 0


def _other(desc: reps.ModuleDescriptor) -> reps.ModuleDescriptor:
    """A same-kind descriptor that is not isomorphic: one weight scalar moved."""
    slot = {"V1": "gamma", "V2": "lam", "V3": "lam", "QPlaneZ": "gamma",
            "QPlaneTheta": "lam", "OneDim": "mu"}[desc.kind]
    changed = getattr(desc, slot) * Fraction(11, 3)
    return reps.ModuleDescriptor(desc.kind, **{
        "mu": desc.mu, "lam": desc.lam, "gamma": desc.gamma, slot: changed})


def certify(rng: random.Random) -> list[Op]:
    ops = []
    for m, n, kinds, scalars in CERTIFY_SETS:
        params = arith.derive_params(m, n)
        for kind in kinds:
            desc = descriptor(kind, params, rng, scalars)
            iso, k = twin(desc, params, rng)
            other = _other(desc)
            rep = reps.build_from_descriptor(params, desc)
            rep_iso = reps.build_from_descriptor(params, iso)
            rep_other = reps.build_from_descriptor(params, other)
            meta = {"params": params, "desc": desc, "rep": rep, "iso": iso,
                    "rep_iso": rep_iso, "k": k, "other": other,
                    "rep_other": rep_other}
            tag = f"{kind} {m},{n}"
            ops.append(Op("is_simple", tag, lambda r=rep: reps.is_simple(r), meta))
            ops.append(Op("classify", tag, lambda r=rep: reps.classify(r), meta))
            ops.append(Op("find_iso", tag, lambda a=rep, b=rep_iso:
                          reps.find_intertwiner(a, b), meta))
            ops.append(Op("find_noniso", tag, lambda a=rep, b=rep_other:
                          reps.find_intertwiner(a, b), meta))
            ops.append(Op("intertwiner", tag,
                          lambda a=desc, b=iso, s=k, p=params:
                          reps.intertwiner(a.kind, a, b, s, p), meta))
    # fixed inputs, independent of the seed: classify fails on each of
    # these valid simple modules because of the float n-th root
    params = arith.derive_params(2, 3, 1, 1)
    lam = cyclotomic.CycNumber.from_rational(params.conductor, 2)
    gamma = cyclotomic.CycNumber.from_rational(params.conductor, 3)
    for kind, value in PLANTED_FLOAT_ROOT:
        mu = cyclotomic.CycNumber.from_rational(params.conductor, value)
        desc = reps.ModuleDescriptor(kind, mu=mu, lam=lam,
                                     gamma=gamma if kind == "V1" else None)
        rep = reps.build_from_descriptor(params, desc)
        ops.append(Op("classify", f"{kind} 2,3 mu={value}",
                      lambda r=rep: reps.classify(r),
                      {"params": params, "desc": desc, "rep": rep}, planted=True))
    return ops


# --- reducible ---------------------------------------------------------------

# (m, n, kind, which sums, scalars): d = 2l runs from 12 to 24; as in
# certify, every sum takes the default index pair
REDUCIBLE_SETS = (
    (2, 3, "V1", ("noniso", "iso"), "general"),
    (3, 6, "V2", ("noniso", "iso"), "general"),
    (4, 8, "V3", ("iso",), "rational"),
    (4, 6, "V3", ("iso",), "rational"),
)


def reducible(rng: random.Random) -> list[Op]:
    ops = []
    for m, n, kind, sums, scalars in REDUCIBLE_SETS:
        params = arith.derive_params(m, n)
        desc = descriptor(kind, params, rng, scalars)
        a = reps.build_from_descriptor(params, desc)
        for which in sums:
            if which == "iso":
                b = reps.build_from_descriptor(params, twin(desc, params, rng)[0])
            else:
                b = reps.build_from_descriptor(params, _other(desc))
            s = reps.direct_sum(a, b)
            meta = {"params": params, "a": a, "b": b, "sum": s, "which": which,
                    "d": a.d}
            gens = [s.Mx, s.My, s.Mz]
            tag = f"{kind} {m},{n} {which}"
            ops.append(Op("is_simple", tag, lambda r=s: reps.is_simple(r), meta))
            ops.append(Op("span", tag, lambda g=gens: linalg.algebra_span_dim(g), meta))
            ops.append(Op("end", tag, lambda g=gens:
                          len(linalg.matrix_hom_space(g, g)), meta))
            ops.append(Op("hom_to_a", tag, lambda g=gens, h=[a.Mx, a.My, a.Mz]:
                          len(linalg.matrix_hom_space(g, h)), meta))
    return ops


BUILDERS = {"algebra": algebra, "relations": relations, "certify": certify,
            "reducible": reducible}


def build(name: str, seed: int) -> list[Op]:
    """The ops of one round; the same name and seed give the same ops."""
    return BUILDERS[name](random.Random(f"{name}:{seed}"))
