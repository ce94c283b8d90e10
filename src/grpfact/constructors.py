"""Builders for every group the catalog needs: classical generators,
point/hyperplane stabilizers, automorphism elements, and extension-field
subgroups obtained by blowing generators up to the ground field.

Every construction returns a GroupSpec with a claimed order taken from the
exact formulas.  The generators lie in a group of that order, so the claim
is a known order: the chain build takes it as its bound and must reach it.
"""

from __future__ import annotations

import numpy as np

from . import orders
from .gf import FieldSpec, make_field, supported_fields
from .grpcore import GroupSpec, Tracked, shared_domain
from .linalg import (
    DUALITY,
    FUNCTIONAL,
    VECTOR,
    ActionPoint,
    GroupElement,
    Mat,
    blowup,
    det,
    mat_identity,
    mat_product,
    mat_transpose,
    mat_vec,
    sl_compose,
)


class ConstructionError(ValueError):
    pass


def _field_basis(spec: FieldSpec) -> list[int]:
    """GF(p)-basis 1, lam, ..., lam^(f-1) as encodings."""
    return [spec.power(spec.primitive_elem, i) for i in range(spec.f)]


def _elementary(spec: FieldSpec, n: int, i: int, j: int, c: int) -> Mat:
    m = np.eye(n, dtype=np.int64)
    m[i, j] = c
    return Mat(spec, m)


def _signed_cycle(spec: FieldSpec, n: int) -> Mat:
    """e1 -> e2 -> ... -> en -> (-1)^(n-1) e1; determinant one."""
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        m[i + 1, i] = 1
    m[0, n - 1] = 1 if n % 2 else spec.neg(1)
    return Mat(spec, m)


def sl_generators(spec: FieldSpec, n: int) -> list[GroupElement]:
    if n < 2:
        raise ConstructionError("SL needs n >= 2")
    gens = [GroupElement(_elementary(spec, n, 0, 1, c)) for c in _field_basis(spec)]
    if n == 2:
        w = Mat(spec, [[0, 1], [spec.neg(1), 0]])
        gens.append(GroupElement(w))
    else:
        gens.append(GroupElement(_signed_cycle(spec, n)))
    return gens


def standard_symplectic_form(spec: FieldSpec, n: int) -> Mat:
    """Alternating form on the basis e1, f1, ..., e_(n/2), f_(n/2)."""
    if n % 2:
        raise ConstructionError("symplectic form needs even dimension")
    m = np.zeros((n, n), dtype=np.int64)
    for i in range(0, n, 2):
        m[i, i + 1] = 1
        m[i + 1, i] = spec.neg(1)
    return Mat(spec, m)


def preserves_form(g: GroupElement, J: Mat) -> bool:
    return mat_product(mat_transpose(g.mat), mat_product(J, g.mat)) == J


def _symplectic_transvection(spec: FieldSpec, n: int, u: np.ndarray, c: int, J: Mat) -> Mat:
    """x -> x + c <x, u> u with <x, u> = x^T J u."""
    bump = spec.mul_table[spec.mul_table[c, mat_vec(J, u)][None, :], u[:, None]]
    return Mat(spec, spec.add_table[np.eye(n, dtype=np.int64), bump])


def sp_generators(spec: FieldSpec, n: int) -> list[GroupElement]:
    if n % 2 or n < 2:
        raise ConstructionError("Sp needs even n >= 2")
    J = standard_symplectic_form(spec, n)
    gens = []
    e1 = np.zeros(n, dtype=np.int64)
    e1[0] = 1
    for c in _field_basis(spec):
        gens.append(GroupElement(_symplectic_transvection(spec, n, e1, c, J)))
    w = np.eye(n, dtype=np.int64)
    w[0, 0], w[0, 1], w[1, 0], w[1, 1] = 0, 1, spec.neg(1), 0
    gens.append(GroupElement(Mat(spec, w)))
    if n > 2:
        cyc = np.zeros((n, n), dtype=np.int64)
        for i in range(n - 2):
            cyc[i + 2, i] = 1
        cyc[0, n - 2] = 1
        cyc[1, n - 1] = 1
        gens.append(GroupElement(Mat(spec, cyc)))
        mix = np.zeros(n, dtype=np.int64)
        mix[0], mix[3] = 1, 1  # e1 + f2
        gens.append(GroupElement(_symplectic_transvection(spec, n, mix, 1, J)))
    for g in gens:
        if not preserves_form(g, J) or det(g.mat) != 1:
            raise ConstructionError("symplectic generator fails the form check")
    return gens


def classical_generators(family: str, n: int, q: int) -> GroupSpec:
    """SL/Sp over GF(q) with chain-certifiable claimed order."""
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    if family == "SL":
        gens, order = sl_generators(spec, n), orders.sl_order(n, q)
    elif family == "Sp":
        gens, order = sp_generators(spec, n), orders.sp_order(n, q)
    else:
        raise ConstructionError(f"unknown classical family {family!r}")
    return GroupSpec(
        f"{family}_{n}({q})",
        n,
        spec,
        gens,
        claimed_order=order,
    )


def _split_prime_power(q: int) -> tuple[int, int]:
    for p in (2, 3, 5, 7, 11, 13):
        f = 1
        while p**f < q:
            f += 1
        if p**f == q:
            return p, f
    raise ConstructionError(f"q = {q} is not a supported field size ({supported_fields()})")


# ---------------------------------------------------------------------------
# stabilizer subgroups with explicit block generators


def stabilizer_subgroup(kind: str, n: int, q: int) -> GroupSpec:
    """G_v (kind 'vector') or G_(v,W) (kind 'antiflag') in SL_n(q), with
    v = e1 and W spanned by e2..en."""
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    if n < 2:
        raise ConstructionError("need n >= 2")
    gens: list[GroupElement] = []
    if n > 2:
        for inner in sl_generators(spec, n - 1):
            m = np.eye(n, dtype=np.int64)
            m[1:, 1:] = inner.mat.a
            gens.append(GroupElement(Mat(spec, m)))
    e1 = (1,) + (0,) * (n - 1)
    if kind == "vector":
        for c in _field_basis(spec):
            gens.append(GroupElement(_elementary(spec, n, 0, 1, c)))
        order = orders.vector_stab_order(n, q)
        stab_of = [ActionPoint(VECTOR, e1)]
    elif kind == "antiflag":
        order = orders.sl_order(n - 1, q)
        if n == 2:
            gens.append(GroupElement(mat_identity(spec, n)))
        stab_of = [ActionPoint(VECTOR, e1), ActionPoint(FUNCTIONAL, e1)]
    else:
        raise ConstructionError(f"unknown stabilizer kind {kind!r}")
    return GroupSpec(
        f"stab_{kind}_SL_{n}({q})",
        n,
        spec,
        gens,
        claimed_order=order,
        stabilizer_of=stab_of,
    )


def sp_pointwise_factor(n: int, q: int) -> GroupSpec:
    """The Sp_(n-2)(q) factor fixing the first hyperbolic pair pointwise."""
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    gens = []
    for inner in sp_generators(spec, n - 2):
        m = np.eye(n, dtype=np.int64)
        m[2:, 2:] = inner.mat.a
        gens.append(GroupElement(Mat(spec, m)))
    e1 = (1,) + (0,) * (n - 1)
    f1 = (0, 1) + (0,) * (n - 2)
    return GroupSpec(
        f"Sp_{n - 2}({q})^factor",
        n,
        spec,
        gens,
        claimed_order=orders.sp_order(n - 2, q),
        stabilizer_of=[ActionPoint(VECTOR, e1), ActionPoint(VECTOR, f1)],
    )


# ---------------------------------------------------------------------------
# automorphism elements


def automorphism_element(kind: str, n: int, q: int) -> GroupElement:
    """phi, gamma, phi_gamma or psi in the ambient of SL_n(q).

    psi_gamma has no representative of its own: the raw product of the
    blown Frobenius with the dual-basis duality neither normalizes the blown
    groups (the transpose twists by the Gram matrix of the relative trace
    form) nor squares into them (it picks up a blown scalar), so
    psi_extension corrects it by that Gram matrix and a scalar that it
    chooses against the core it extends (``_psi_gamma_candidates``).
    """
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    ident = mat_identity(spec, n)
    if kind == "phi":
        return GroupElement(ident, 1, 0)
    if kind == "gamma":
        return GroupElement(ident, 0, 1)
    if kind == "phi_gamma":
        return GroupElement(ident, 1, 1)
    if kind == "psi":
        if n % 2:
            raise ConstructionError("psi needs n = 2m")
        return blowup(mat_identity(make_field(p, 2 * f), n // 2), 1, spec)
    raise ConstructionError(f"unknown automorphism kind {kind!r}")


def _trace_gram(sub: FieldSpec, ext: FieldSpec) -> np.ndarray:
    """Gram matrix of the relative trace form on the basis 1, lam."""
    from .linalg import subfield_coords

    coords = subfield_coords(sub, ext)
    basis = [1, ext.primitive_elem]
    T = np.zeros((2, 2), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            prod = ext.mul(basis[i], basis[j])
            tr = ext.add(prod, ext.power(prod, sub.q))
            c = coords[tr]
            if c[1]:
                raise ConstructionError("relative trace fell outside the subfield")
            T[i, j] = c[0]
    return T


def _psi_gamma_candidates(n: int, q: int):
    """The psi_gamma representatives psi * (W mu, gamma), for W the blown
    Gram matrix of the relative trace form and mu each blown GF(q^2)
    scalar in turn; psi_extension keeps the first that extends its core."""
    p, f = _split_prime_power(q)
    sub = make_field(p, f)
    ext = make_field(p, 2 * f)
    m = n // 2
    T = _trace_gram(sub, ext)
    W = np.zeros((n, n), dtype=np.int64)
    for i in range(m):
        W[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = T
    psi = automorphism_element("psi", n, q)
    for mu_pow in range(ext.q - 1):
        mu = ext.power(ext.primitive_elem, mu_pow)
        scal = blowup(Mat(ext, np.diag([mu] * m).astype(np.int64)), 0, sub)
        yield sl_compose(psi, GroupElement(mat_product(Mat(sub, W), scal.mat), 0, 1))


def adjoin(base: GroupSpec, extra: list[GroupElement], name: str, order_factor: int) -> GroupSpec:
    """Extend a group by outer elements with a known index."""
    return GroupSpec(
        name,
        base.n,
        base.spec,
        base.generators + extra,
        claimed_order=base.claimed_order * order_factor,
        action_tag=DUALITY if any(g.dual for g in extra) else base.action_tag,
        stabilizer_of=base.stabilizer_of,
    )


# ---------------------------------------------------------------------------
# extension-field subgroups (blow-ups)


def ext_subgroup(inner: str, a: int, b: int, q: int) -> GroupSpec:
    """Blow SL_a(q^b) / Sp_a(q^b) / G2(q^b) up to GF(q), a group of SL_(ab)(q)
    with its known order on vectors; ``psi_extension`` extends it."""
    p, f = _split_prime_power(q)
    spec = make_field(p, f)
    ext = make_field(p, f * b)
    if inner == "SL":
        inner_gens = sl_generators(ext, a)
        inner_order = orders.sl_order(a, q**b)
    elif inner == "Sp":
        inner_gens = sp_generators(ext, a)
        inner_order = orders.sp_order(a, q**b)
    elif inner == "G2":
        from .g2 import g2_generators

        if a != 6:
            raise ConstructionError("G2 lives in dimension 6")
        inner_spec = g2_generators(q**b)
        inner_gens = inner_spec.generators
        inner_order = inner_spec.claimed_order
    else:
        raise ConstructionError(f"unknown inner family {inner!r}")
    gens = [blowup(g.mat, 0, spec) for g in inner_gens]
    for g in gens:
        if det(g.mat) != 1:
            raise ConstructionError("blow-up left SL: norm-determinant broken")
    return GroupSpec(f"{inner}_{a}({q**b})^in_SL_{a * b}({q})", a * b, spec, gens, claimed_order=inner_order)


def psi_extension(core: GroupSpec, kind: str, certify: bool = True) -> GroupSpec:
    """A blow-up of a quadratic extension (``ext_subgroup`` with b = 2)
    extended by the blown Frobenius psi or by psi.gamma.

    The adjoin certificate (``_certify_adjoin``) reads ``core.chain()``, so
    a caller that keeps the core builds its chain once, and for psi_gamma
    it chooses the representative's scalar against that core; it sifts
    permutation products in that chain and composes no matrix.
    certify=False skips the certificate, so it takes psi only; callers use
    it only where the core chain is beyond desk scale (the degree-16M
    ambients), and the claimed order is then marked witness-grade.
    """
    n, q, index = core.n, core.spec.q, 2 * core.spec.f
    if kind != "psi_gamma":
        candidates = [automorphism_element(kind, n, q)]
    elif certify:
        candidates = _psi_gamma_candidates(n, q)
    else:
        raise ConstructionError("psi_gamma's scalar is chosen by the adjoin certificate")
    extra = _certify_adjoin(core, candidates, index) if certify else candidates[0]
    # SL_a(q^2)^in_SL_n(q) becomes SL_a(q^2).index^kind_in_SL_n(q)
    return adjoin(core, [extra], core.name.replace("^in_", f".{index}^{kind}_in_"), index)


def _certify_adjoin(core: GroupSpec, candidates, index) -> GroupElement:
    """The first candidate x with |<S, x>| = index * |S| for S = core: x
    normalizes S, x^index lies in S, and no smaller power of x does.
    Raises ConstructionError with the last candidate's failure when none
    passes.

    This is what makes the extension's claimed order a known order, so its
    later chain build may take it as a bound: it pins the exact order of the
    extension before the chain ever sees it.  The core's chain, on its N
    vectors with its known order, serves every candidate, and each check
    sifts there a product of permutations, with no matrix composed: psi's
    and the chain originals' of the vectors, or psi gamma's and the core
    generators' of V - 0 and V* - 0, where a product that swaps the halves
    carries the duality, outside S, and any other keeps its vector half.
    """
    chain, perms = core.chain(), {}
    N = chain.domain.size

    def member(perm):
        return perm[0] < N and chain.contains_tracked(Tracked(perm[:N]))

    def failure(gens, x):
        xp, xinv = x.perm, x.inverse().perm
        if not all(member(xp[g.perm[xinv]]) for g in gens):
            return "adjoined element does not normalize the core"
        power = xp
        for k in range(1, index):
            if member(power):
                return f"adjoined element power {k} already lies in the core"
            power = xp[power]
        return None if member(power) else f"adjoined element power {index} leaves the core"

    why = "no candidate"
    for x in candidates:
        domain = shared_domain(DUALITY, core.spec, core.n) if x.dual else chain.domain
        if domain not in perms:
            perms[domain] = core.tracked_generators(domain)
        why = failure(perms[domain], Tracked(domain.perm_of(x)))
        if why is None:
            return x
    raise ConstructionError(f"{core.name}: {why}")
