"""Slow, direct reference computations that tests compare the package against."""

from grpfact.gf import FieldError, FieldSpec
from grpfact.linalg import GroupElement, LinAlgError, identity_element, sl_compose, subfield_coords


def element_order(g: GroupElement, cap: int = 10**6) -> int:
    """Order of a semilinear element, by composing it with itself until the identity."""
    cur = g
    ident = identity_element(g.spec, g.n)
    for k in range(1, cap + 1):
        if cur == ident:
            return k
        cur = sl_compose(cur, g)
    raise LinAlgError("element order exceeds cap")


def field_norm(ext: FieldSpec, sub: FieldSpec, x: int) -> int:
    """Norm map GF(q^b) -> GF(q) expressed in sub's encoding."""
    e = (ext.q - 1) // (sub.q - 1) if sub.q > 1 else 1
    img = ext.power(x, e) if x else 0
    coords = subfield_coords(sub, ext)[img]
    if any(int(c) for c in coords[1:]):
        raise FieldError("norm image fell outside the subfield")
    return int(coords[0])
