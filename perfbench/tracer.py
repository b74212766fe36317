"""Span tracing of qheisenberg's public functions, installed from outside.

`install` replaces each boundary function with a timing wrapper: on the
class that owns it (every attribute bound to the same function, so
aliases such as `__rmul__ = __mul__` are covered) and in every loaded
module namespace that imported it by name (so `reps.algebra_span_dim` is
wrapped as well as `linalg.algebra_span_dim`).  The program's source is
not touched.

A span is opened only at the outermost entry of its boundary: a nested
call of the same boundary (recursion, or `build_from_descriptor` calling
`build_v1`) runs inside the outer span.  Spans of the `cyclotomic` layer
are leaves called hundreds of thousands of times, so they are aggregated
per parent span instead of stored one by one.
"""

from __future__ import annotations

import json
import sys
import time

clock = time.perf_counter

# layer -> boundary -> (owner path, attribute names)
BOUNDARIES = {
    "cyclotomic": {
        "mul": ("cyclotomic.CycNumber", ("__mul__",)),
        "addsub": ("cyclotomic.CycNumber", ("__add__", "__sub__", "__rsub__")),
        "inverse": ("cyclotomic.CycNumber", ("inverse",)),
        "pow": ("cyclotomic.CycNumber", ("__pow__",)),
        "order_of_unit": ("cyclotomic", ("order_of_unit",)),
        "nth_root_in_field": ("cyclotomic", ("nth_root_in_field",)),
    },
    "arith": {
        "derive_params": ("arith", ("derive_params",)),
        "ord_pq": ("arith", ("ord_pq",)),
        "scan_orders": ("arith", ("scan_orders",)),
        "pi_degree_snf": ("arith", ("pi_degree_snf",)),
    },
    "pbw": {
        "product": ("pbw", ("product",)),
        "pow": ("pbw.PbwElement", ("__pow__",)),
        "pq_number": ("pbw", ("pq_number",)),
        "center_generators": ("pbw", ("center_generators",)),
    },
    "linalg": {
        "matmul": ("linalg.FieldMatrix", ("_matmul",)),
        "scale": ("linalg.FieldMatrix", ("scale",)),
        "addsub": ("linalg.FieldMatrix", ("__add__", "__sub__")),
        "row_reduce": ("linalg", ("row_reduce",)),
        "algebra_span_dim": ("linalg", ("algebra_span_dim",)),
        "matrix_hom_space": ("linalg", ("matrix_hom_space",)),
        "echelon_insert": ("linalg.SparseEchelon", ("insert",)),
        "kernel_basis": ("linalg.SparseEchelon", ("kernel_basis",)),
        "to_json": ("linalg.FieldMatrix", ("to_json",)),
        "from_json": ("linalg.FieldMatrix", ("from_json",)),
    },
    "reps": {
        "build": ("reps", ("build_v1", "build_v2", "build_v3", "build_qplane",
                           "build_one_dim", "build_from_descriptor",
                           "direct_sum")),
        "verify_relations": ("reps", ("verify_relations",)),
        "theta_matrix": ("reps", ("theta_matrix",)),
        "is_simple": ("reps", ("is_simple",)),
        "classify": ("reps", ("classify",)),
        "find_intertwiner": ("reps", ("find_intertwiner",)),
        "iso_test": ("reps", ("iso_test",)),
        "intertwiner": ("reps", ("intertwiner",)),
    },
    "cli": {
        "main": ("cli", ("main",)),
        "parse_expression": ("cli", ("parse_expression",)),
    },
}

LEAF_LAYER = "cyclotomic"
EXTRA_METRICS = (
    ("linalg.echelon_admitted", "count"),
    ("linalg.echelon_admit_ratio", "ratio"),
    ("linalg.echelon_row_bits_max", "bits"),
    ("cyclotomic.mul_us", "us"),
    ("cache.entries", "count"),
    ("trace.overhead_s", "s"),
)


def boundary_names() -> list[str]:
    return [f"{layer}.{name}" for layer, table in BOUNDARIES.items()
            for name in table]


def per_layer_metric_names() -> list[tuple[str, str]]:
    out = []
    for name in boundary_names():
        out += [(f"{name}.calls", "count"), (f"{name}.s", "s"),
                (f"{name}.self_s", "s")]
    return out + list(EXTRA_METRICS)


def _resolve(path: str):
    obj = sys.modules["qheisenberg." + path.split(".")[0]]
    for part in path.split(".")[1:]:
        obj = getattr(obj, part)
    return obj


def _row_bits(row: dict) -> int:
    bits = 0
    for value in row.values():
        for fr in value.coeffs:
            bits = max(bits, abs(fr.numerator).bit_length(),
                       fr.denominator.bit_length())
    return bits


class Tracer:
    """Collects spans and per-boundary totals for one traced round."""

    def __init__(self) -> None:
        self.stack: list[list] = [[0.0, 0]]  # root frame: [child time, span id]
        self.spans: list[tuple] = []  # (id, name, start, end, parent, op)
        self.leaves: dict[tuple, list] = {}  # (parent id, name) -> [calls, s]
        self.totals: dict[str, list] = {name: [0, 0.0, 0.0]
                                        for name in boundary_names()}
        self.op = 0
        self.next_id = 1
        self.admitted = 0
        self.row_bits_max = 0
        self.active: dict[str, list] = {}  # one open-span flag per boundary

    def wrap(self, name: str, fn, leaf: bool, echelon: bool = False):
        totals = self.totals[name]
        stack = self.stack
        active = self.active.setdefault(name, [False])
        tracer = self

        def traced(*args, **kwargs):
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            parent = stack[-1]
            if leaf:
                sid = parent[1]
            else:
                sid = tracer.next_id
                tracer.next_id += 1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                active[0] = False
                dur = t1 - t0
                totals[0] += 1
                totals[1] += dur
                totals[2] += dur - frame[0]
                if leaf:
                    agg = tracer.leaves.get((sid, name))
                    if agg is None:
                        tracer.leaves[(sid, name)] = [1, dur]
                    else:
                        agg[0] += 1
                        agg[1] += dur
                else:
                    tracer.spans.append((sid, name, t0, t1, parent[1], tracer.op))
                parent[0] += dur
            if echelon and result is not None:
                tracer.admitted += 1
                tracer.row_bits_max = max(tracer.row_bits_max, _row_bits(result))
                # keep the bit count out of the caller's self time
                parent[0] += clock() - t1
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self) -> None:
        """Wrap every boundary on its owner and in every loaded namespace."""
        replaced = {}
        for layer, table in BOUNDARIES.items():
            for short, (owner_path, attrs) in table.items():
                name = f"{layer}.{short}"
                owner = _resolve(owner_path)
                for attr in attrs:
                    raw = owner.__dict__[attr]
                    is_cm = isinstance(raw, classmethod)
                    fn = raw.__func__ if is_cm else raw
                    traced = self.wrap(name, fn, leaf=layer == LEAF_LAYER,
                                       echelon=name == "linalg.echelon_insert")
                    replaced[id(fn)] = (fn, traced)
                    for key, value in list(owner.__dict__.items()):
                        if value is raw:
                            setattr(owner, key, classmethod(traced) if is_cm
                                    else traced)
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if not isinstance(namespace, dict) or module is sys.modules[__name__]:
                continue
            for key, value in list(namespace.items()):
                hit = replaced.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[key] = hit[1]

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, incl, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        inserts = self.totals["linalg.echelon_insert"][0]
        out["linalg.echelon_admitted"] = self.admitted
        out["linalg.echelon_admit_ratio"] = (self.admitted / inserts
                                             if inserts else 0.0)
        out["linalg.echelon_row_bits_max"] = self.row_bits_max
        mul_calls, mul_s, _ = self.totals["cyclotomic.mul"]
        out["cyclotomic.mul_us"] = mul_s / mul_calls * 1e6 if mul_calls else 0.0
        return out

    def dump(self, path: str, t_origin: float) -> None:
        """Write every span and leaf aggregate, times relative to t_origin."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({
                "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
                "spans": [[sid, name, round(t0 - t_origin, 7),
                           round(t1 - t_origin, 7), parent, op]
                          for sid, name, t0, t1, parent, op in self.spans],
                "leaves": [{"parent": parent, "name": name, "calls": calls,
                            "s": round(secs, 7)}
                           for (parent, name), (calls, secs)
                           in sorted(self.leaves.items())],
                "totals": self.totals,
            }, handle)


def cache_entries() -> int:
    """Summed currsize of every lru_cache in the qheisenberg package."""
    total = 0
    seen = set()
    for modname, module in list(sys.modules.items()):
        if not modname.startswith("qheisenberg"):
            continue
        for value in list(vars(module).values()):
            fn = value if callable(value) else None
            while fn is not None and not hasattr(fn, "cache_info"):
                fn = getattr(fn, "__wrapped__", None)
            if fn is not None and id(fn) not in seen:
                seen.add(id(fn))
                total += fn.cache_info().currsize
    return total
