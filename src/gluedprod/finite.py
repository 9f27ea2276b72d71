"""Dense-permutation backend for a product of two finite factors.

When both factors are finite the glued product is a subgroup of the
symmetric group on |G| + |H| - 1 points, and it is the full symmetric
group exactly when one factor has a nontrivial cyclic 2-Sylow subgroup,
the alternating group otherwise.  A factor has one exactly when some
regular translation of it is odd, which is how ``classify`` decides,
and the Schreier-Sims order engine of ``groups`` verifies it
independently.  That engine is given only the translations T_s for s in
a greedy generating set of each factor (``GroupHandle.generators``).
Since x -> T_x is a homomorphism, they generate the whole glued
product, and 31 points take about 1 ms.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import GroupSpecError
from .groups import DensePerm, Element, GroupHandle, check_point_cap, schreier_sims_order
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
    """Order of the glued product computed by Schreier-Sims.

    Only the translations by a greedy generating set of each factor
    (``GroupHandle.generators``) are realised: x -> T_x is a
    homomorphism, so they generate the same group as the translations
    by every element, and the engine sifts far fewer Schreier
    generators.
    """
    if G.is_finite and H.is_finite:  # generators() rejects the other factors
        check_point_cap(G.order() + H.order() - 1)
    return schreier_sims_order(realize_finite(G, H, (G.generators(), H.generators())))


def full_order(kind: str, n: int) -> int:
    """The order of Sym(n) or Alt(n), for ``kind`` "Sym" or "Alt"."""
    return math.factorial(n) // (1 if kind == "Sym" else 2)


def verify_classification(G: GroupHandle, H: GroupHandle) -> bool:
    """Check the Alt/Sym classification against the exact group order."""
    n = G.order() + H.order() - 1
    return glued_order(G, H) == full_order(classify(G, H), n)
