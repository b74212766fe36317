"""Command-line front end.

Subcommands fall into three groups: numeric invariants of a parameter
choice (pideg, order, scan), exact algebra on normal forms (center,
normal-form), and module workflows (module-build, module-verify,
module-simple, module-classify, iso).  Every command accepts
--format json (default) or --format table; JSON output is byte for byte
json.dumps(payload, indent=2) with a fixed key order.

Exit codes: 0 on success, 1 for domain errors (inadmissible parameters,
unreadable module files, non-simple input where a simple module is
required, an integer beyond the interpreter's limit on the digits of an
int read or printed in decimal), 2 for usage errors (bad flags,
malformed expressions, and expressions that nest parentheses and unary
minuses more than MAX_NESTING = 100 deep).  A usage error never produces
partial output.

Expressions are built from the atoms x, y, z, theta, g, and integer or
rational literals such as 7 and 3/2, where g is the primitive root of
unity underlying the chosen parameters.  Products may be written with *
or by juxtaposition, ^ takes a non-negative integer exponent, and + -
( ) behave as usual.  Scalar-valued options (--mu, --lam, --gamma and
their 2-suffixed forms) accept the same syntax restricted to scalars,
e.g. --mu 3/2 or --lam "2*g^3".  Text that starts with a minus would be
read as an option: put an expression after -- (normal-form --m 2 --n 3
-- "-x") and join a scalar to its option with = (--lam=-g).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _json_str

from .arith import (AlgebraParams, InvalidParameters, derive_params, ord_pq,
                    pi_degree, pi_degree_snf, relation_matrix, scan_orders,
                    smith_normal_form)
from .cyclotomic import ConductorMismatch, CycNumber, euler_phi, zeta_power
from .pbw import PbwElement, center_generators, theta
from .reps import (KIND_ONE_DIM, KIND_SCALARS, MatrixRep, ModuleDescriptor,
                   build_from_descriptor, classify, iso_test, module_dimension,
                   span_dim, verify_relations)


class UsageError(Exception):
    """Bad command-line input; maps to exit code 2."""


class ExprError(UsageError):
    """Malformed expression text, annotated with a byte offset."""

    def __init__(self, message: str, offset: int) -> None:
        super().__init__(f"syntax error at byte {offset}: {message}")
        self.offset = offset


# --- expression language -----------------------------------------------------

# the generator atoms as monomials z^i x^j y^k, by their (i, j, k)
_GENERATOR_EXPONENTS = {"x": (0, 1, 0), "y": (0, 0, 1), "z": (1, 0, 0)}
_ATOM_NAMES = (*_GENERATOR_EXPONENTS, "theta", "g")


def _byte_offset(src: str, index: int) -> int:
    return len(src[:index].encode("utf-8"))


def _lex(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(src):
        ch = src[i]
        if ch in " \t":
            i += 1
            continue
        start = _byte_offset(src, i)
        if ch.isdecimal():
            j = i
            while j < len(src) and src[j].isdecimal():
                j += 1
            if j < len(src) and src[j] == "/":
                k = j + 1
                while k < len(src) and src[k].isdecimal():
                    k += 1
                if k == j + 1:
                    raise ExprError("malformed rational literal", start)
                j = k
            tokens.append(("num", src[i:j], start))
            i = j
        elif ch.isalpha():
            j = i
            while j < len(src) and src[j].isalpha():
                j += 1
            name = src[i:j]
            if name not in _ATOM_NAMES:
                raise ExprError(f"unknown symbol '{name}'", start)
            tokens.append(("name", name, start))
            i = j
        elif ch in "+-*^()":
            tokens.append((ch, ch, start))
            i += 1
        else:
            raise ExprError(f"unexpected character '{ch}'", start)
    tokens.append(("end", "", _byte_offset(src, len(src))))
    return tokens


# Open parentheses plus chained unary minuses an expression may nest; each
# level is a few stack frames, so this keeps far below the recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over the token list, evaluating as it goes.

    Precedence, loosest first: sum, product (explicit * or
    juxtaposition, applied in written order), power, atom.  An opening
    parenthesis or unary minus that nests deeper than MAX_NESTING raises
    ExprError at its byte.
    """

    def __init__(self, src: str, params: AlgebraParams) -> None:
        self.tokens = _lex(src)
        self.pos = 0
        self.params = params
        self.depth = 0

    def nest(self, offset: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"nesting deeper than {MAX_NESTING}", offset)

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def parse(self) -> PbwElement:
        value = self.expr()
        kind, text, offset = self.peek()
        if kind != "end":
            raise ExprError(f"unexpected '{text}'", offset)
        return value

    def expr(self) -> PbwElement:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> PbwElement:
        value = self.factor()
        while (kind := self.peek()[0]) in ("*", "name", "num", "("):
            if kind == "*":
                self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> PbwElement:
        if self.peek()[0] == "-":
            self.nest(self.advance()[2])
            value = -self.factor()
            self.depth -= 1
            return value
        value = self.primary()
        while self.peek()[0] == "^":
            self.advance()
            kind, text, offset = self.advance()
            if kind != "num" or "/" in text:
                raise ExprError("exponent must be a non-negative integer",
                                offset)
            value = value ** int(text)
        return value

    def primary(self) -> PbwElement:
        kind, text, offset = self.advance()
        if kind == "num":
            try:
                return PbwElement.scalar(self.params, Fraction(text))
            except ZeroDivisionError:
                raise ExprError("division by zero in literal", offset)
        if kind == "name":
            if text == "theta":
                return theta(self.params)
            if text == "g":
                return PbwElement.scalar(
                    self.params, zeta_power(self.params.conductor, 1))
            return PbwElement.monomial(self.params, *_GENERATOR_EXPONENTS[text])
        if kind == "(":
            self.nest(offset)
            value = self.expr()
            closing, text, offset = self.advance()
            if closing != ")":
                raise ExprError("expected ')'", offset)
            self.depth -= 1
            return value
        if kind == "end":
            raise ExprError("unexpected end of input", offset)
        raise ExprError(f"unexpected '{text}'", offset)


def parse_expression(src: str, params: AlgebraParams) -> PbwElement:
    """Evaluate expression text to a normal form, or raise ExprError."""
    return _Parser(src, params).parse()


def parse_scalar(src: str, params: AlgebraParams) -> CycNumber:
    """Evaluate expression text that must come out constant."""
    elem = parse_expression(src, params)
    for (i, j, k) in elem.terms:
        if (i, j, k) != (0, 0, 0):
            raise ValueError(f"'{src}' is not a scalar")
    return elem.coefficient(0, 0, 0)


# --- rendering ---------------------------------------------------------------

_JSON_ATOMS = {True: "true", False: "false", None: "null"}


def _write_json(value, out: list[str], indent: str, prefix: str) -> None:
    # append prefix (the separator or key before value) and value's text;
    # indent is the newline and indentation of the line value starts on
    kind = type(value)
    if kind is str:
        out.append(prefix + _json_str(value))
    elif kind is int:
        out.append(prefix + int.__repr__(value))
    elif kind is dict or kind is list:
        opening, closing = "{}" if kind is dict else "[]"
        if not value:
            out.append(prefix + opening + closing)
            return
        inner = indent + "  "
        comma = "," + inner
        sep = prefix + opening + inner
        if kind is dict:
            for key, item in value.items():
                _write_json(item, out, inner, sep + _json_str(key) + ": ")
                sep = comma
        else:
            for item in value:
                _write_json(item, out, inner, sep)
                sep = comma
        out.append(indent + closing)
    elif kind is bool or value is None:
        out.append(prefix + _JSON_ATOMS[value])
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _json_text(payload) -> str:
    """json.dumps(payload, indent=2), for the types handlers return.

    These are dicts with str keys, lists, str, int, bool and None; any
    other type raises TypeError, and an int past the interpreter's digit
    limit raises ValueError, as in json.dumps.
    """
    out: list[str] = []
    _write_json(payload, out, "\n", "")
    return "".join(out)


def _fmt(value) -> str:
    if isinstance(value, bool) or value is None:
        return _JSON_ATOMS[value]
    return str(value)


def _column_lines(headers: list[str], rows: list[list[str]]) -> list[str]:
    widths = [max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
              for i, h in enumerate(headers)]
    lines = ["  ".join(h.ljust(widths[i])
                       for i, h in enumerate(headers)).rstrip()]
    for row in rows:
        lines.append("  ".join(c.ljust(widths[i])
                               for i, c in enumerate(row)).rstrip())
    return lines


def _rep_table(rep: MatrixRep) -> list[str]:
    p = rep.params
    lines = [f"d: {rep.d}", f"m: {p.m}", f"n: {p.n}",
             f"k1: {p.k1}", f"k2: {p.k2}"]
    for name, mat in (("Mx", rep.Mx), ("My", rep.My), ("Mz", rep.Mz)):
        for i in range(rep.d):
            lines.append(f"{name}[{i}]: "
                         + ", ".join(str(c) for c in mat[i]))
    return lines


# --- descriptor options ------------------------------------------------------

def _descriptor_from_options(kind: str, raw: dict[str, str | None],
                             params: AlgebraParams,
                             suffix: str = "") -> ModuleDescriptor:
    cycle, _, weights = KIND_SCALARS[kind]
    slots = {cycle, *weights}
    values = {}
    for slot in ("mu", "lam", "gamma"):
        text = raw[slot]
        flag = f"--{slot}{suffix}"
        if slot in slots:
            if text is None:
                raise UsageError(f"{flag} is required for kind {kind}")
            value = parse_scalar(text, params)
            if kind != KIND_ONE_DIM and value.is_zero():
                raise ValueError(f"{flag} must be nonzero for kind {kind}")
            values[slot] = value
        elif text is not None:
            raise UsageError(f"{flag} is not accepted for kind {kind}")
    return ModuleDescriptor(kind, mu=values.get("mu"), lam=values.get("lam"),
                            gamma=values.get("gamma"))


def _load_rep(path: str) -> MatrixRep:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        return MatrixRep.from_json(data)
    except OSError as exc:
        raise ValueError(f"cannot read module file {path}: {exc}")
    except (KeyError, TypeError, json.JSONDecodeError) as exc:
        raise ValueError(f"malformed module file {path}: {exc}")


# --- command handlers --------------------------------------------------------

# Each handler returns (payload, lines): the JSON payload, and a function
# that formats the text lines of --format table, called for that format only.

def _params_from(args) -> AlgebraParams:
    return derive_params(args.m, args.n, args.k1, args.k2)


def _cmd_pideg(args):
    params = _params_from(args)
    diag = smith_normal_form(relation_matrix(params))
    payload = {"l": params.l,
               "pideg_theorem": pi_degree(params.m, params.n),
               "pideg_snf": pi_degree_snf(params),
               "invariant_factors": diag}
    return payload, lambda: [
        f"l: {params.l}", f"pideg_theorem: {payload['pideg_theorem']}",
        f"pideg_snf: {payload['pideg_snf']}",
        "invariant_factors: " + " ".join(str(v) for v in diag)]


def _cmd_order(args):
    params = _params_from(args)
    value = ord_pq(params)
    return {"ord_pq": value}, lambda: [f"ord_pq: {value}"]


def _cmd_scan(args):
    report = scan_orders(args.m, args.n)
    payload = report.to_json()
    return payload, lambda: [
        f"m: {report.m}", f"n: {report.n}", f"verdict: {report.verdict}",
        *_column_lines(["k1", "k2", "ord"],
                       [[str(e["k1"]), str(e["k2"]), str(e["ord"])]
                        for e in payload["entries"]])]


def _cmd_center(args):
    params = _params_from(args)
    names = [f"z^{params.m}", f"theta^{params.n}", f"x^{params.l}",
             f"y^{params.l}", "omega"]
    gens = center_generators(params)
    payload = {"generators": [{"name": name, "element": gen.to_json()}
                              for name, gen in zip(names, gens)]}
    return payload, lambda: [f"{name}: {gen}" for name, gen in zip(names, gens)]


def _cmd_normal_form(args):
    params = _params_from(args)
    elem = parse_expression(args.expr, params)
    return elem.to_json(), lambda: [f"normal_form: {elem}"]


# The most matrix coordinates module-build writes, 3 * d^2 * phi(N) for a
# module of dimension d over Q(zeta_N), every zero spelled out.  On a 2-vCPU
# x86-64 box QPlaneZ at (m, n) = (4, 102), 1,997,568 coordinates, took 1.0 s,
# printed 32 MB and peaked at 227 MB; V1 at (101, 1), 3,060,300, took 1.8 s,
# printed 48 MB and peaked at 325 MB.  Time and memory grow linearly.
MAX_MODULE_COORDINATES = 2_000_000


def _cmd_module_build(args):
    params = _params_from(args)
    raw = {"mu": args.mu, "lam": args.lam, "gamma": args.gamma}
    desc = _descriptor_from_options(args.kind, raw, params)
    size = 3 * module_dimension(params, args.kind) ** 2 * euler_phi(
        params.conductor)
    if size > MAX_MODULE_COORDINATES:
        raise InvalidParameters(
            f"a {args.kind} module at these parameters has {size} matrix "
            f"coordinates, past MAX_MODULE_COORDINATES = "
            f"{MAX_MODULE_COORDINATES}")
    rep = build_from_descriptor(params, desc)
    return rep.to_json(), functools.partial(_rep_table, rep)


def _cmd_module_verify(args):
    rep = _load_rep(args.infile)
    check = verify_relations(rep)
    zero_map = {name: residual.is_zero()
                for name, residual in check.residuals.items()}
    payload = {"ok": check.ok, "residual_is_zero": zero_map}
    return payload, lambda: [f"ok: {_fmt(check.ok)}"] + [
        f"{name}_zero: {_fmt(v)}" for name, v in zero_map.items()]


def _cmd_module_simple(args):
    rep = _load_rep(args.infile)
    if not verify_relations(rep).ok:
        raise ValueError("module file does not satisfy the defining relations")
    span = span_dim(rep)
    payload = {"d": rep.d, "span_dim": span, "simple": span == rep.d * rep.d}
    return payload, lambda: [f"d: {rep.d}", f"span_dim: {span}",
                             f"simple: {_fmt(payload['simple'])}"]


def _cmd_module_classify(args):
    rep = _load_rep(args.infile)
    desc = classify(rep)
    slots = (("mu", desc.mu), ("lambda", desc.lam), ("gamma", desc.gamma))
    return desc.to_json(), lambda: [f"kind: {desc.kind}"] + [
        f"{label}: {value}" for label, value in slots if value is not None]


def _cmd_iso(args):
    params = _params_from(args)
    desc_a = _descriptor_from_options(
        args.kind, {"mu": args.mu, "lam": args.lam, "gamma": args.gamma},
        params)
    desc_b = _descriptor_from_options(
        args.kind, {"mu": args.mu2, "lam": args.lam2, "gamma": args.gamma2},
        params, suffix="2")
    ok, k = iso_test(args.kind, desc_a, desc_b, params)
    payload = {"isomorphic": ok, "k": k}
    return payload, lambda: [f"isomorphic: {_fmt(ok)}", f"k: {_fmt(k)}"]


_HANDLERS = {
    "pideg": _cmd_pideg,
    "order": _cmd_order,
    "scan": _cmd_scan,
    "center": _cmd_center,
    "normal-form": _cmd_normal_form,
    "module-build": _cmd_module_build,
    "module-verify": _cmd_module_verify,
    "module-simple": _cmd_module_simple,
    "module-classify": _cmd_module_classify,
    "iso": _cmd_iso,
}


# --- argument parsing --------------------------------------------------------

def _add_param_options(sp, with_indices=True):
    sp.add_argument("--m", type=int, required=True,
                    help="multiplicative order of the z-x twist scalar")
    sp.add_argument("--n", type=int, required=True,
                    help="multiplicative order of the z-y twist scalar")
    if with_indices:
        sp.add_argument("--k1", type=int, default=None,
                        help="root-of-unity index for the first twist "
                             "(default: smallest admissible)")
        sp.add_argument("--k2", type=int, default=None,
                        help="root-of-unity index for the second twist "
                             "(default: smallest admissible)")


def _add_descriptor_options(sp, suffix=""):
    which = "second" if suffix else "first"
    sp.add_argument(f"--mu{suffix}", default=None, metavar="SCALAR",
                    help=f"cycle scalar of the {which} module")
    sp.add_argument(f"--lam{suffix}", default=None, metavar="SCALAR",
                    help=f"weight scalar of the {which} module")
    sp.add_argument(f"--gamma{suffix}", default=None, metavar="SCALAR",
                    help=f"twist-weight scalar of the {which} module")


def build_parser() -> argparse.ArgumentParser:
    """The qheis parser; its `commands` maps each command to its subparser."""
    parser = argparse.ArgumentParser(
        prog="qheis",
        description="Exact computations with a two-parameter quantum "
                    "Heisenberg algebra at roots of unity.")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="COMMAND")
    parser.commands = sub.choices

    def add(name, help_text):
        sp = sub.add_parser(name, help=help_text, description=help_text)
        sp.add_argument("--format", choices=("json", "table"),
                        default="json", help="output format")
        return sp

    sp = add("pideg", "PI degree by theorem and by Smith normal form")
    _add_param_options(sp)
    sp = add("order", "multiplicative order of the product of twists")
    _add_param_options(sp)
    sp = add("scan", "orders over every admissible index pair for (m, n)")
    _add_param_options(sp, with_indices=False)
    sp = add("center", "the five generators of the center, in normal form")
    _add_param_options(sp)
    sp = add("normal-form", "rewrite an expression into the ordered basis")
    _add_param_options(sp)
    sp.add_argument("expr", help="expression in x, y, z, theta, g "
                                 "and rational literals; write one that "
                                 "starts with a minus after --, as in "
                                 "-- \"-x\"")
    sp = add("module-build", "matrices of a module from its descriptor")
    _add_param_options(sp)
    sp.add_argument("--kind", required=True, choices=sorted(KIND_SCALARS),
                    help="module family")
    _add_descriptor_options(sp)
    sp = add("module-verify", "check the defining relations on a module file")
    sp.add_argument("--in", dest="infile", required=True, metavar="PATH",
                    help="module file produced by module-build")
    sp = add("module-simple", "simplicity of a module file via span dimension")
    sp.add_argument("--in", dest="infile", required=True, metavar="PATH",
                    help="module file produced by module-build")
    sp = add("module-classify", "identify a simple module file up to "
                                "isomorphism")
    sp.add_argument("--in", dest="infile", required=True, metavar="PATH",
                    help="module file produced by module-build")
    sp = add("iso", "decide isomorphism of two modules from descriptors")
    _add_param_options(sp)
    sp.add_argument("--kind", required=True, choices=sorted(KIND_SCALARS),
                    help="module family of both descriptors")
    _add_descriptor_options(sp)
    _add_descriptor_options(sp, suffix="2")
    return parser


@functools.lru_cache(maxsize=1)
def _shared_parser() -> argparse.ArgumentParser:
    # parse_args leaves a parser unchanged, so one instance serves every call
    return build_parser()


def _parse_args(argv) -> argparse.Namespace:
    # parse_args(argv), calling the subparser of a leading command directly
    # as the subparsers action would, with no pass of the top-level parser
    parser = _shared_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    """Run one command and return its exit code.

    The output is the payload as JSON, or for --format table the handler's
    lines, which are only formatted then.
    """
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if [] in vars(args).values():  # Python 3.11's argparse: --opt=-- is []
            _shared_parser().error("an option given as --opt=-- has no value")
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        payload, lines = _HANDLERS[args.command](args)
        text = (_json_text(payload) if args.format == "json"
                else "\n".join(lines()))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InvalidParameters, ConductorMismatch, ValueError,
            ZeroDivisionError, OverflowError) as exc:
        print(f"error: {_domain_message(exc)}", file=sys.stderr)
        return 1
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # the reader closed stdout: point it at devnull, so that the flush
        # at exit does not fail again on what is left in its buffer
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        print(f"error: cannot write the output: {exc}", file=sys.stderr)
        return 1
    return 0


def _domain_message(exc: Exception) -> str:
    # int <-> str conversion stops at the interpreter's digit limit, whose
    # own message suggests changing interpreter state
    if isinstance(exc, ValueError) and str(exc).startswith("Exceeds the limit ("):
        return f"integer with more than {sys.get_int_max_str_digits()} digits"
    return str(exc)


if __name__ == "__main__":
    sys.exit(main())
