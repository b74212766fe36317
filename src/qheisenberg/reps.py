"""Finite-dimensional simple modules as explicit matrix tuples.

Right modules are realized on row vectors: a module element is a row v,
a generator a acts as v * M_a, and products act left-to-right, so the
assignment a -> M_a is multiplicative (M_ab = M_a * M_b).  All relation
residuals, simplicity certificates, and intertwining equations below are
written in that convention.

Three weight-module families cover the torsionfree cases:

* ``V1(mu, lam, gamma)``: x acts by an invertible cycle, dimension l.
* ``V2(mu, lam)``: x nilpotent, y an invertible cycle, dimension l.
* ``V3(lam)``: x and y both nilpotent, dimension ord(pq).

Torsion cases degenerate to quantum-plane weight modules (``QPlaneZ``
where z acts by zero, ``QPlaneTheta`` where the theta matrix vanishes)
and to one-dimensional modules.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, repeat
from operator import mul

from .arith import AlgebraParams, ord_formula
from .cyclotomic import (CycNumber, _check_json_int, nth_root_in_field,
                         roots_of_unity)
from .linalg import (FieldMatrix, _certify_simple, _make, algebra_span_dim,
                     is_invertible, left_kernel, matrix_hom_space)
from .pbw import _coerce_scalar

Z_TORSION = "Z_TORSION"
THETA_TORSION = "THETA_TORSION"

KIND_V1 = "V1"
KIND_V2 = "V2"
KIND_V3 = "V3"
KIND_QPLANE_Z = "QPlaneZ"
KIND_QPLANE_THETA = "QPlaneTheta"
KIND_ONE_DIM = "OneDim"

# The classification rule, one entry per kind: the slot of the cycle
# scalar (or None), the params field whose power of it is central, and
# each weight slot with the (a, b) of the p^a q^b it gains per shift of
# the weight basis.  Two descriptors of one kind are isomorphic iff their
# cycle scalars agree in that power and one shift (for V2 a multiple of
# ord(pq)) moves every weight slot of the first onto the second.
KIND_SCALARS = {
    KIND_V1: ("mu", "l", {"lam": (1, 0), "gamma": (0, -1)}),
    KIND_V2: ("mu", "l", {"lam": (-1, 0)}),
    KIND_V3: (None, None, {"lam": (0, 0)}),
    KIND_QPLANE_Z: ("mu", "n", {"gamma": (0, 1)}),
    KIND_QPLANE_THETA: ("mu", "m", {"lam": (1, 0)}),
    KIND_ONE_DIM: (None, None, {"mu": (0, 0), "lam": (0, 0), "gamma": (0, 0)}),
}


@dataclass(frozen=True)
class MatrixRep:
    """A concrete module: dimension plus the three generator matrices.

    The object is immutable, so what is derived from it (the theta
    matrix, a passing relation check, the certified span) is kept under
    private keys of its `__dict__` and can never go stale.  Those keys
    take no part in equality, hashing, repr or `to_json`, and
    `dataclasses.replace` gives an object without them.
    """

    params: AlgebraParams
    d: int
    Mx: FieldMatrix
    My: FieldMatrix
    Mz: FieldMatrix

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "d": self.d,
            "Mx": self.Mx.to_json(),
            "My": self.My.to_json(),
            "Mz": self.Mz.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> MatrixRep:
        """Load a module file, checking every matrix against d and params."""
        params = AlgebraParams.from_json(data["params"])
        d = data["d"]
        _check_json_int(d, "d")
        mats = {}
        for name in ("Mx", "My", "Mz"):
            mat = FieldMatrix.from_json(data[name])
            if mat.shape != (d, d):
                raise ValueError(f"{name} is {mat.shape[0]}x{mat.shape[1]}, "
                                 f"but d is {d!r}")
            if mat.conductor != params.conductor:
                raise ValueError(f"{name} has entries in Q(zeta_{mat.conductor}), "
                                 f"expected Q(zeta_{params.conductor})")
            mats[name] = mat
        return cls(params=params, d=d, **mats)


@dataclass(frozen=True)
class ModuleDescriptor:
    """A module family tag plus its defining scalars.

    Slot conventions per kind (unused slots stay None; `KIND_SCALARS`
    lists each kind's slots and their part in isomorphism):

    * V1: mu (x cycle), lam (z weight base), gamma (theta weight base)
    * V2: mu (y cycle), lam (z weight base)
    * V3: lam (z weight base)
    * QPlaneZ: mu (y cycle), gamma (x weight base)
    * QPlaneTheta: mu (x cycle), lam (y weight base)
    * OneDim: mu (x scalar), lam (z scalar), gamma (y scalar)
    """

    kind: str
    mu: CycNumber | None = None
    lam: CycNumber | None = None
    gamma: CycNumber | None = None

    def to_json(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.mu is not None:
            out["mu"] = self.mu.to_json()
        if self.lam is not None:
            out["lambda"] = self.lam.to_json()
        if self.gamma is not None:
            out["gamma"] = self.gamma.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> ModuleDescriptor:
        def grab(key):
            return CycNumber.from_json(data[key]) if key in data else None
        return cls(kind=data["kind"], mu=grab("mu"), lam=grab("lambda"),
                   gamma=grab("gamma"))


@dataclass(frozen=True)
class RelationCheck:
    ok: bool
    residuals: dict


def build_v1(params: AlgebraParams, mu, lam, gamma) -> MatrixRep:
    """x-invertible weight module of dimension l.

    Basis v_0..v_{l-1}; z acts by p^k lam on v_k, x shifts up the cycle
    with scalar mu, theta acts by q^{-k} gamma, and the y coefficients
    are forced by the straightening relation.
    """
    l = params.l
    cond = params.conductor
    mu = _coerce_scalar(params, mu, "mu")
    lam = _coerce_scalar(params, lam, "lam")
    gamma = _coerce_scalar(params, gamma, "gamma")
    pq = params.power(1, 1)
    # pq - 1 is not a root of unity, so this inverse is field arithmetic
    scale = mu.inverse() * (pq - CycNumber.one(cond)).inverse()
    # -lam once: each difference would cost a negation and a sum
    pq_gamma, minus_lam = pq * gamma, -lam
    mz = FieldMatrix.diagonal([params.power(k, 0) * lam for k in range(l)], cond)
    mx = FieldMatrix.from_entries(l, l, {(k, (k + 1) % l): mu
                                         for k in range(l)}, cond)
    my = FieldMatrix.from_entries(l, l, {
        (k, (k - 1) % l): (scale * params.power(0, -k)
                           * (pq_gamma + params.power(k, k) * minus_lam))
        for k in range(l)}, cond)
    return MatrixRep(params, l, mx, my, mz)


def build_v2(params: AlgebraParams, mu, lam) -> MatrixRep:
    """x-nilpotent, y-invertible weight module of dimension l.

    z acts by p^{-k} lam on v_k, y shifts up the cycle with scalar mu,
    and x lowers with coefficient mu^{-1} lam [k]_{p,q} (zero on v_0).
    """
    l = params.l
    cond = params.conductor
    mu = _coerce_scalar(params, mu, "mu")
    lam = _coerce_scalar(params, lam, "lam")
    scale = mu.inverse() * lam
    numbers = params.pq_numbers(l)
    mz = FieldMatrix.diagonal([params.power(-k, 0) * lam for k in range(l)], cond)
    mx = FieldMatrix.from_entries(l, l, {(k, k - 1): scale * numbers[k]
                                         for k in range(1, l)}, cond)
    my = FieldMatrix.from_entries(l, l, {(k, (k + 1) % l): mu
                                         for k in range(l)}, cond)
    return MatrixRep(params, l, mx, my, mz)


def build_v3(params: AlgebraParams, lam) -> MatrixRep:
    """x- and y-nilpotent weight module of dimension ord(pq).

    Same weight ladder as V2 truncated at the first vanishing
    (p,q)-number, with the y cycle cut open.
    """
    cond = params.conductor
    lam = _coerce_scalar(params, lam, "lam")
    d = ord_formula(params.m, params.n, params.k1, params.k2)
    numbers = params.pq_numbers(d)
    mz = FieldMatrix.diagonal([params.power(-k, 0) * lam for k in range(d)], cond)
    mx = FieldMatrix.from_entries(d, d, {(k, k - 1): lam * numbers[k]
                                         for k in range(1, d)}, cond)
    my = FieldMatrix.from_entries(d, d, {(k, k + 1): 1
                                         for k in range(d - 1)}, cond)
    return MatrixRep(params, d, mx, my, mz)


def build_qplane(params: AlgebraParams, mode: str, a, b) -> MatrixRep:
    """Quantum-plane weight module for the two torsion quotients.

    ``a`` always scales the x action and ``b`` the y action.  Z_TORSION
    kills z (dimension n, x diagonal, y cyclic); THETA_TORSION kills the
    theta matrix (dimension m, x cyclic, y diagonal, z forced).
    """
    cond = params.conductor
    a = _coerce_scalar(params, a, "a")
    b = _coerce_scalar(params, b, "b")
    if mode == Z_TORSION:
        d = params.n
        mx = FieldMatrix.diagonal([a * params.power(0, k) for k in range(d)], cond)
        my = FieldMatrix.from_entries(d, d, {(k, (k + 1) % d): b
                                             for k in range(d)}, cond)
        return MatrixRep(params, d, mx, my, FieldMatrix.zeros(d, d, cond))
    if mode == THETA_TORSION:
        d = params.m
        mx = FieldMatrix.from_entries(d, d, {(k, (k + 1) % d): a
                                             for k in range(d)}, cond)
        my = FieldMatrix.diagonal([b * params.power(k, 0) for k in range(d)], cond)
        # theta = (q - p^{-1})xy + z, so killing theta forces the z matrix
        mz = (mx * my).scale(params.power(-1, 0) - params.q)
        return MatrixRep(params, d, mx, my, mz)
    raise ValueError(f"unknown torsion mode {mode!r}")


def build_one_dim(params: AlgebraParams, x_scalar, z_scalar, y_scalar) -> MatrixRep:
    """One-dimensional module from three scalars (not validated here)."""
    cond = params.conductor
    x_scalar = _coerce_scalar(params, x_scalar, "x_scalar", nonzero=False)
    z_scalar = _coerce_scalar(params, z_scalar, "z_scalar", nonzero=False)
    y_scalar = _coerce_scalar(params, y_scalar, "y_scalar", nonzero=False)
    return MatrixRep(params, 1,
                     FieldMatrix([[x_scalar]], cond),
                     FieldMatrix([[y_scalar]], cond),
                     FieldMatrix([[z_scalar]], cond))


def build_from_descriptor(params: AlgebraParams,
                          desc: ModuleDescriptor) -> MatrixRep:
    if desc.kind == KIND_V1:
        return build_v1(params, desc.mu, desc.lam, desc.gamma)
    if desc.kind == KIND_V2:
        return build_v2(params, desc.mu, desc.lam)
    if desc.kind == KIND_V3:
        return build_v3(params, desc.lam)
    if desc.kind == KIND_QPLANE_Z:
        return build_qplane(params, Z_TORSION, desc.gamma, desc.mu)
    if desc.kind == KIND_QPLANE_THETA:
        return build_qplane(params, THETA_TORSION, desc.mu, desc.lam)
    if desc.kind == KIND_ONE_DIM:
        return build_one_dim(params, desc.mu, desc.lam, desc.gamma)
    raise ValueError(f"unknown descriptor kind {desc.kind!r}")


def module_dimension(params: AlgebraParams, kind: str) -> int:
    """The dimension of the kind's modules, as its builder sets it.

    l for V1 and V2, ord(pq) for V3, n for QPlaneZ, m for QPlaneTheta
    and 1 for OneDim; `classify` expects the same of a simple module.
    """
    if kind == KIND_V3:
        return ord_formula(params.m, params.n, params.k1, params.k2)
    dims = {KIND_V1: params.l, KIND_V2: params.l, KIND_QPLANE_Z: params.n,
            KIND_QPLANE_THETA: params.m, KIND_ONE_DIM: 1}
    if kind not in dims:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    return dims[kind]


def direct_sum(a: MatrixRep, b: MatrixRep) -> MatrixRep:
    if a.params != b.params:
        raise ValueError("params mismatch between summands")
    d = a.d + b.d

    def block(ma: FieldMatrix, mb: FieldMatrix) -> FieldMatrix:
        entries = {(i, j): e for i, row in enumerate(ma._rows)
                   for j, e in row.items()}
        entries.update(((a.d + i, a.d + j), e) for i, row in enumerate(mb._rows)
                       for j, e in row.items())
        return FieldMatrix.from_entries(d, d, entries, a.params.conductor)

    return MatrixRep(a.params, d, block(a.Mx, b.Mx),
                     block(a.My, b.My), block(a.Mz, b.Mz))


def verify_relations(rep: MatrixRep) -> RelationCheck:
    """Exact residuals of the three defining relations.

    Keys: "zx" for Mz Mx - p^{-1} Mx Mz, "zy" for Mz My - p My Mz,
    "yx" for My Mx - q Mx My - Mz.  ok is True iff all three vanish.

    When Mz is diagonal, with z_i at (i, i), entry (i, j) of the "zx"
    residual is x_ij (z_i - p^{-1} z_j) and of the "zy" residual
    y_ij (z_i - p z_j): each c z_j is formed once per column, and x_ij
    or y_ij is multiplied only where the two weights differ, so on a
    weight module these two relations cost no product with an entry of
    Mx or My.  Otherwise both sides are formed as matrix products.  The
    two sides of "yx" are compared before they are subtracted; the
    products My Mx and Mx My also give the theta matrix, which is kept
    for `theta_matrix`.  Every residual is the same matrix either way.

    A passing verdict is kept on the module object: a later call forms
    no product and returns a fresh result whose residuals are zero
    matrices.  A failing module is checked again on every call.
    """
    params = rep.params
    if rep.__dict__.get("_relations_ok"):
        return RelationCheck(ok=True, residuals={
            key: FieldMatrix.zeros(rep.d, rep.d, params.conductor)
            for key in ("zx", "zy", "yx")})
    mx, my, mz = rep.Mx, rep.My, rep.Mz
    yx, xy = my * mx, mx * my
    p_inv, p = params.power(-1, 0), params.p
    if (mz.is_diagonal() and mz.shape == mx.shape == my.shape
            and mz.conductor == mx.conductor == my.conductor == p.conductor):
        zero = CycNumber.zero(mz.conductor)
        weights = [row.get(i, zero) for i, row in enumerate(mz._rows)]
        zx = _weight_residual(mx, weights, p_inv)
        zy = _weight_residual(my, weights, p)
    else:
        zx = _residual(mz * mx, (mx * mz).scale(p_inv))
        zy = _residual(mz * my, (my * mz).scale(p))
    residuals = {"zx": zx, "zy": zy,
                 "yx": _residual(yx, xy.scale(params.q) + mz)}
    if "_theta" not in rep.__dict__:
        rep.__dict__["_theta"] = _theta(rep, yx, xy)
    ok = all(r.is_zero() for r in residuals.values())
    if ok:
        rep.__dict__["_relations_ok"] = True
    return RelationCheck(ok=ok, residuals=residuals)


def _weight_residual(mat: FieldMatrix, weights: list,
                     c: CycNumber) -> FieldMatrix:
    # Mz M - c M Mz for Mz = diag(weights): entry (i, j) is m_ij (z_i - c z_j)
    shifted = [c * z for z in weights]
    return _make(mat.shape, [{j: m * (z - shifted[j]) for j, m in row.items()
                              if z != shifted[j]}
                             for z, row in zip(weights, mat._rows)],
                 mat.conductor)


def _residual(lhs: FieldMatrix, rhs: FieldMatrix) -> FieldMatrix:
    if lhs == rhs:
        return FieldMatrix.zeros(*lhs.shape, lhs.conductor)
    return lhs - rhs


def theta_matrix(rep: MatrixRep) -> FieldMatrix:
    """Matrix of theta = yx - p^{-1}xy in the given module.

    Formed once per module object, from the products of
    `verify_relations` when a check has run, and returned from then on.
    """
    th = rep.__dict__.get("_theta")
    if th is None:
        th = rep.__dict__["_theta"] = _theta(rep, rep.My * rep.Mx,
                                             rep.Mx * rep.My)
    return th


def _theta(rep: MatrixRep, yx: FieldMatrix, xy: FieldMatrix) -> FieldMatrix:
    return yx - xy.scale(rep.params.power(-1, 0))


def is_simple(rep: MatrixRep) -> bool:
    """Exact simplicity test (Burnside): is `span_dim` all of d x d?

    After the relation check, d above the PI degree l = lcm(m, n)
    (`params.l`, which `arith.pi_degree` returns) answers False with no
    span: a span of d^2 would make all of M_d an image of the algebra,
    so M_d would satisfy the standard identity s_2l, which by
    Amitsur-Levitzki it does only when d <= l.
    """
    if not verify_relations(rep).ok:
        raise ValueError("relation check failed: input is not a module")
    if rep.d > rep.params.l:
        return False
    return _certified_span(rep) == rep.d * rep.d


def span_dim(rep: MatrixRep) -> int:
    """Dimension of the unital algebra spanned by Mx, My and Mz.

    The span is d^2 exactly when the module is simple (Burnside).
    `linalg._certify_simple` first tries its ladder of spins, with theta
    among the weights when one of Mx, My, Mz is diagonal (so a dense
    basis pays no product): a proof gives d^2.  Otherwise
    `algebra_span_dim` is the value; it splits block-diagonal generators
    into blocks and puts each through the same ladder before it falls
    back to its exact span.  The relations are not checked, and the
    PI-degree rung of `is_simple` gives no value, so it is not a rung
    here.  The outcome of the ladder is computed once per module object
    and shared with `is_simple`; when a spin has found a submodule, the
    exact span that follows is computed on the first call and kept in its
    place, a value below d^2, which `is_simple` reads the same way.
    """
    span = _certified_span(rep)
    if span is None:
        span = rep.__dict__["_span"] = algebra_span_dim([rep.Mx, rep.My, rep.Mz])
    return span


def _certified_span(rep: MatrixRep) -> int | None:
    # d^2 if certified simple, None if a spin finds a submodule (until
    # span_dim puts the span in its place), else the span; kept on the
    # module object, which never changes
    if "_span" not in rep.__dict__:
        gens = [rep.Mx, rep.My, rep.Mz]
        extra = ([theta_matrix(rep)] if any(g.is_diagonal() for g in gens)
                 else [])
        certified = _certify_simple(gens, extra)
        rep.__dict__["_span"] = (rep.d * rep.d if certified
                                 else None if certified is None
                                 else algebra_span_dim(gens))
    return rep.__dict__["_span"]


def _weight(held: list[FieldMatrix], op: FieldMatrix, exponent: int,
            kind: str, name: str) -> tuple[CycNumber, dict]:
    """The first candidate t with a nonzero left_kernel(held + [op - t*I]).

    Returns t and the first vector of that kernel.  The candidates are
    the diagonal entries of op in basis order, then the roots of the
    scalar op^exponent (`_central_scalar`).  A winner has an eigenvector
    of op in the common left kernel K of held; op is not restricted to K.
    The verified relations make K op-invariant wherever classify calls
    this (z commutes with theta, so a left eigenspace of Mz is
    theta-invariant; zx = p^-1 xz, so ker Mx is Mz-invariant), so the
    winners are the eigenvalues of op on K, roots of the central
    op^exponent.
    """
    cond = op.conductor
    ident = FieldMatrix.identity(op.shape[0], cond)
    zero = CycNumber.zero(cond)
    diagonal = dict.fromkeys(row.get(i, zero) for i, row in enumerate(op._rows))

    def candidates():
        yield from diagonal
        power = _central_scalar(op, exponent)
        base = (nth_root_in_field(power, exponent)
                if power is not None and not power.is_zero() else None)
        if base is not None:
            yield from (t for t in (base * w for w in roots_of_unity(cond))
                        if t ** exponent == power and t not in diagonal)

    for t in candidates():
        kernel = left_kernel(held + [op - ident.scale(t)])
        if kernel:
            return t, kernel[0]
    raise ValueError(f"classify {kind}: no eigenvalue of {name} "
                     "in the working field")


def _central_scalar(mat: FieldMatrix, exponent: int) -> CycNumber | None:
    """The c with e_0 mat^exponent = c e_0, or None, by vector products.

    classify reads central powers (x^l, y^l, z^m, theta^n) only after
    `is_simple`, so they act by scalars (Schur), and `_self_check`
    verifies what is read from them exactly.
    """
    row = FieldMatrix.from_entries(1, mat.shape[0], {(0, 0): 1}, mat.conductor)
    for _ in range(exponent):
        row = row * mat
    entries = row._rows[0]
    if entries.keys() <= {0}:
        return entries.get(0, CycNumber.zero(mat.conductor))
    return None


def _scalar_root(mat: FieldMatrix, exponent: int, kind: str,
                 name: str) -> CycNumber:
    power = _central_scalar(mat, exponent)
    if power is None or power.is_zero():
        raise ValueError(f"classify {kind}: {name}^{exponent} "
                         "is not a nonzero scalar")
    root = nth_root_in_field(power, exponent)
    if root is None:
        raise ValueError(f"classify {kind}: {name}^{exponent} "
                         "has no root in the working field")
    return root


def classify(rep: MatrixRep) -> ModuleDescriptor:
    """Identify a simple module and return a rebuildable descriptor.

    Decides the torsion type from exact invertibility of the z and theta
    matrices, then of Mx and My; extracts the cycle scalar as a root of
    the central scalar Mx^l or My^l and the weight scalars from a joint
    eigenvector w_0.  Simplicity is decided first, by `is_simple`.  The
    result is self-checked without a hom space: the `_orbit` map from the
    canonical build, v_0 -> w_0, must be an isomorphism.  Every failure
    names the stage: "classify <kind>: ...".

    Representative rule.  Several descriptors describe one module (see
    `iso_test`); each weight scalar is the first candidate of `_weight`,
    the diagonal entries in basis order and then the roots of the central
    power, with an eigenvector on the space the earlier scalars fix.  V1
    reads lam from Mz and then gamma from theta on the lam-eigenspace of
    Mz; V2 and V3 read lam from Mz on the kernel of Mx; QPlaneZ reads
    gamma from Mx and QPlaneTheta lam from My.  On a builder's own basis
    this returns the builder's weight slots, the weights of v_0.
    """
    if not is_simple(rep):
        raise ValueError("input module is not simple")
    params = rep.params
    d = rep.d

    if d == 1:
        desc = ModuleDescriptor(KIND_ONE_DIM, mu=rep.Mx[0][0],
                                lam=rep.Mz[0][0], gamma=rep.My[0][0])
        return _self_check(rep, desc, {0: CycNumber.one(params.conductor)})

    th = theta_matrix(rep)
    z_zero = rep.Mz.is_zero()
    th_zero = th.is_zero()

    if z_zero and th_zero:
        raise ValueError(f"classify dimension {d}: z and theta both vanish "
                         "on a module of dimension > 1")
    if z_zero:
        _expect_dimension(rep, KIND_QPLANE_Z, "z-torsion")
        b = _scalar_root(rep.My, params.n, KIND_QPLANE_Z, "My")
        a, v0 = _weight([], rep.Mx, params.n, KIND_QPLANE_Z, "Mx")
        return _self_check(rep, ModuleDescriptor(KIND_QPLANE_Z, mu=b, gamma=a), v0)
    if th_zero:
        _expect_dimension(rep, KIND_QPLANE_THETA, "theta-torsion")
        a = _scalar_root(rep.Mx, params.m, KIND_QPLANE_THETA, "Mx")
        b, v0 = _weight([], rep.My, params.m, KIND_QPLANE_THETA, "My")
        return _self_check(rep, ModuleDescriptor(KIND_QPLANE_THETA, mu=a, lam=b), v0)

    # torsionfree: z and theta are normal, so they must act invertibly
    if not is_invertible(rep.Mz) or not is_invertible(th):
        raise ValueError(f"classify torsionfree, dimension {d}: z or theta "
                         "acts neither by zero nor invertibly")
    l = params.l
    if is_invertible(rep.Mx):
        _expect_dimension(rep, KIND_V1, "x-invertible")
        mu = _scalar_root(rep.Mx, l, KIND_V1, "Mx")
        lam, _ = _weight([], rep.Mz, params.m, KIND_V1, "Mz")
        weight_space = rep.Mz - FieldMatrix.identity(d, params.conductor).scale(lam)
        gamma, v0 = _weight([weight_space], th, params.n, KIND_V1,
                            "theta on the weight space")
        return _self_check(rep, ModuleDescriptor(KIND_V1, mu=mu, lam=lam,
                                                 gamma=gamma), v0)
    if is_invertible(rep.My):
        _expect_dimension(rep, KIND_V2, "y-invertible")
        if _central_scalar(rep.Mx, l) != 0:
            raise ValueError("classify V2: Mx is singular but not nilpotent")
        mu = _scalar_root(rep.My, l, KIND_V2, "My")
        lam, v0 = _weight([rep.Mx], rep.Mz, params.m, KIND_V2,
                          "Mz on the kernel of Mx")
        return _self_check(rep, ModuleDescriptor(KIND_V2, mu=mu, lam=lam), v0)
    _expect_dimension(rep, KIND_V3, "x,y-nilpotent")
    lam, v0 = _weight([rep.Mx], rep.Mz, params.m, KIND_V3,
                      "Mz on the kernel of Mx")
    return _self_check(rep, ModuleDescriptor(KIND_V3, lam=lam), v0)


def _expect_dimension(rep: MatrixRep, kind: str, label: str) -> None:
    expected = module_dimension(rep.params, kind)
    if rep.d != expected:
        raise ValueError(f"{label} module of dimension {rep.d}, "
                         f"expected {expected}")


def _self_check(rep: MatrixRep, desc: ModuleDescriptor,
                v0: dict) -> ModuleDescriptor:
    if _orbit(build_from_descriptor(rep.params, desc), rep, v0) is None:
        raise ValueError(f"classify {desc.kind}: the descriptor does not "
                         "rebuild the input module")
    return desc


def _orbit(source: MatrixRep, target: MatrixRep,
           v0: dict) -> FieldMatrix | None:
    """The matrix W with rows v0 (M_target/s)^i, if it is an isomorphism.

    A canonical build's basis is the orbit v_i = v_0 (M/s)^i, where M is
    x if Mx has a nonzero (0, 1) entry s, else y (x for V1 and QPlaneTheta,
    y for V2, V3 and QPlaneZ; s is mu, or 1 for V3).  M_target is scaled
    once.  W is returned only when A_source W == W A_target holds exactly
    for x, y and z and W is invertible, else None.
    """
    d, cond = source.d, source.params.conductor
    name = "Mx" if 1 in source.Mx._rows[0] else "My"
    s = getattr(source, name)._rows[0].get(1, CycNumber.one(cond))  # default: d = 1
    step = getattr(target, name).scale(s.inverse())
    first = FieldMatrix.from_entries(1, d, {(0, j): c for j, c in v0.items()}, cond)
    rows = accumulate(repeat(step, d - 1), mul, initial=first)
    mat = FieldMatrix.from_entries(d, d, {(i, j): c for i, row in enumerate(rows)
                                          for j, c in row._rows[0].items()}, cond)
    if all(getattr(source, g) * mat == mat * getattr(target, g)
           for g in ("Mx", "My", "Mz")) and is_invertible(mat):
        return mat
    return None


def iso_test(kind: str, desc_a: ModuleDescriptor, desc_b: ModuleDescriptor,
             params: AlgebraParams) -> tuple[bool, int | None]:
    """Decide isomorphism of two same-kind modules from their scalars.

    Returns (True, witness shift k) or (False, None), by the rule of
    `KIND_SCALARS`: the cycle scalars must agree in their central power,
    and k is the smallest shift, below that power's exponent (below 1
    without a cycle), that multiplies every weight slot of desc_a by its
    p^(ka) q^(kb) onto desc_b.  For V1, lam_b = p^k lam_a and
    gamma_b = q^{-k} gamma_a; for V2, lam_b = p^{-k} lam_a with k a
    multiple of ord(pq), so only k = 0 when ord(pq) = l; V3 and OneDim
    admit only k = 0.
    """
    if desc_a.kind != kind or desc_b.kind != kind:
        raise ValueError("kind mismatch between descriptors")
    if kind not in KIND_SCALARS:
        raise ValueError(f"unknown descriptor kind {kind!r}")
    cycle, central, weights = KIND_SCALARS[kind]
    period = 1
    if cycle is not None:
        period = getattr(params, central)
        if getattr(desc_a, cycle) ** period != getattr(desc_b, cycle) ** period:
            return False, None
    stride = (ord_formula(params.m, params.n, params.k1, params.k2)
              if kind == KIND_V2 else 1)
    for k in range(0, period, stride):
        if all(getattr(desc_b, slot)
               == params.power(k * a, k * b) * getattr(desc_a, slot)
               for slot, (a, b) in weights.items()):
            return True, k
    return False, None


def intertwiner(kind: str, desc_a: ModuleDescriptor,
                desc_b: ModuleDescriptor, k: int,
                params: AlgebraParams) -> FieldMatrix:
    """Explicit invertible P with M_a P = P M'_a for the witness k.

    The `_orbit` map from the canonical build of desc_a that sends v_0 to
    v_{-k} of desc_b's: psi(v_i) = (mu^{-1} mu')^i v_{i-k}, with the ratio
    1 for a kind without a cycle slot, verified exactly against both builds.
    """
    ok, _ = iso_test(kind, desc_a, desc_b, params)
    if not ok:
        raise ValueError("called on a non-isomorphic pair")
    rep_a = build_from_descriptor(params, desc_a)
    mat = _orbit(rep_a, build_from_descriptor(params, desc_b),
                 {-k % rep_a.d: CycNumber.one(params.conductor)})
    if mat is None:
        raise ValueError("intertwiner formula failed verification")
    return mat


def find_intertwiner(rep_a: MatrixRep, rep_b: MatrixRep) -> FieldMatrix | None:
    """Solve the intertwining equations exactly; None if only P = 0.

    The hom space is `matrix_hom_space`'s on (Mx, My, Mz).  For simple
    inputs a nonzero solution is automatically invertible (Schur); a
    nonzero singular solution means some input was not simple, and is
    reported as an error.
    """
    if rep_a.params != rep_b.params:
        raise ValueError("params mismatch between modules")
    basis = matrix_hom_space([rep_a.Mx, rep_a.My, rep_a.Mz],
                             [rep_b.Mx, rep_b.My, rep_b.Mz])
    if not basis:
        return None
    for mat in basis:
        if rep_a.d == rep_b.d and is_invertible(mat):
            return mat
    raise ValueError("nonzero singular intertwiner: inputs are not "
                     "both simple")
