"""Dense-permutation backend for a product of two finite factors.

When both factors are finite the glued product is a subgroup of the
symmetric group on |G| + |H| - 1 points, and it is the full symmetric
group exactly when one factor has a nontrivial cyclic 2-Sylow subgroup,
the alternating group otherwise.  A factor has one exactly when some
regular translation of it is odd, which is how ``classify`` decides.
``glued_order`` computes the order independently from the translations
T_s for s in a greedy generating set of each factor
(``GroupHandle.generators``); since x -> T_x is a homomorphism, they
generate the whole glued product.  The commutator of two of them is a
3-cycle, and ``groups.alt_sym_order`` certifies Alt or Sym from it;
the Schreier-Sims engine runs only when the certificate fails.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import GroupSpecError
from .groups import (
    DensePerm,
    Element,
    GroupHandle,
    alt_sym_order,
    check_point_cap,
    compose_dense,
    inverse_dense,
    schreier_sims_order,
)
from .pointed import PointedUnion


def realize_finite(G: GroupHandle, H: GroupHandle,
                   generators: tuple[Sequence[Element], Sequence[Element]] | None = None,
                   ) -> list[DensePerm]:
    """Dense generators of the glued product of two finite groups.

    Defaults to one permutation per nonidentity element of each factor;
    pass explicit factor generating sets, as literals or values, to
    restrict.  The points are numbered as in ``PointedUnion.points``.
    """
    if not (G.is_finite and H.is_finite):
        raise GroupSpecError("realize_finite needs two finite factors")
    union = PointedUnion(G, H)
    if generators is None:
        gen_g = [x for x in G.elements() if x != G.identity]
        gen_h = [y for y in H.elements() if y != H.identity]
    else:
        gen_g = [G.parse(x) for x in generators[0]]
        gen_h = [H.parse(y) for y in generators[1]]
    return ([union.dense_translation("g", x) for x in gen_g]
            + [union.dense_translation("h", y) for y in gen_h])


def _odd_translation(k: int, n: int) -> bool:
    """Whether the translation by an element of order k in a group of
    order n is odd: it is n/k cycles of length k."""
    return k % 2 == 0 and (n // k) % 2 == 1


def translation_sign(G: GroupHandle, g: str) -> int:
    """Sign of the regular translation by g: -1 when it is odd."""
    if not G.is_finite:
        raise GroupSpecError("translation sign needs a finite group")
    return -1 if _odd_translation(G.element_order(G.parse(g)), G.order()) else 1


def has_cyclic_two_sylow(G: GroupHandle) -> bool:
    """Whether a finite group has a nontrivial cyclic 2-Sylow subgroup.

    That is, whether some regular translation is odd: an element of order
    k with |G|/k odd generates a cyclic group holding a 2-Sylow, and a
    generator of a cyclic 2-Sylow is such an element.  Infinite handles
    and odd orders report False before any element is read; otherwise
    the elements are read lazily up to the first odd translation.
    """
    n = G.order()
    if n is None or n % 2:
        return False
    return any(_odd_translation(G.element_order(x), n) for x in G.enumerate_elements())


def classify(G: GroupHandle, H: GroupHandle) -> str:
    """"Sym" or "Alt": which full group the product of finite factors is."""
    for handle in (G, H):
        if not handle.is_finite:
            raise GroupSpecError("classification needs two finite factors")
        if handle.order() == 1:
            raise GroupSpecError("classification needs nontrivial factors")
    if has_cyclic_two_sylow(G) or has_cyclic_two_sylow(H):
        return "Sym"
    return "Alt"


def glued_order(G: GroupHandle, H: GroupHandle) -> int:
    """Order of the glued product, certified from one 3-cycle.

    Only the translations by a greedy generating set of each factor
    (``GroupHandle.generators``) are realised: x -> T_x is a
    homomorphism, so they generate the same group as the translations
    by every element.  For nontrivial g and h the commutator
    [T_g, T_h] is the 3-cycle (e g h), so the commutator c of the first
    translation of each side lies in the group, and
    ``groups.alt_sym_order`` proves n! or n!/2 from the block closure of
    supp(c) and the parities of the generators.  Schreier-Sims computes
    the order only when that certificate fails, which happens when a
    factor is trivial; over two nontrivial factors the group is Alt or
    Sym, and then the certificate always holds.
    """
    if G.is_finite and H.is_finite:  # generators() rejects the other factors
        check_point_cap(G.order() + H.order() - 1)
    gen_g, gen_h = G.generators(), H.generators()
    gens = realize_finite(G, H, (gen_g, gen_h))
    if gen_g and gen_h:
        tg, th = gens[0], gens[len(gen_g)]
        c = compose_dense(inverse_dense(compose_dense(th, tg)), compose_dense(tg, th))
        order = alt_sym_order(gens, c)
        if order is not None:
            return order
    return schreier_sims_order(gens)


def full_order(kind: str, n: int) -> int:
    """The order of Sym(n) or Alt(n), for ``kind`` "Sym" or "Alt"."""
    return math.factorial(n) // (1 if kind == "Sym" else 2)


def verify_classification(G: GroupHandle, H: GroupHandle) -> bool:
    """Check the Alt/Sym classification against the exact group order."""
    n = G.order() + H.order() - 1
    return glued_order(G, H) == full_order(classify(G, H), n)
