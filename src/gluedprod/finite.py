"""Dense-permutation backend for a product of two finite factors.

When both factors are finite the glued product is a subgroup of the
symmetric group on |G| + |H| - 1 points, and it is the full symmetric
group exactly when one factor has a nontrivial cyclic 2-Sylow subgroup,
the alternating group otherwise.  The classification is implemented via
the element-order valuation criterion and verified independently by the
Schreier-Sims order engine.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import BudgetError, GroupSpecError
# the dense operations live beside the order engine and are re-exported here
from .groups import (
    DensePerm,
    GroupHandle,
    compose_dense,
    inverse_dense,
    parity_dense,
    schreier_sims_order,
)

DEFAULT_POINT_CAP = 64


def identity_dense(n: int) -> DensePerm:
    return tuple(range(n))


class FiniteUnion:
    """Index scheme for the pointed union of two finite groups.

    Index 0 is the basepoint, then the nonidentity G elements in
    canonical order, then the nonidentity H elements.
    """

    def __init__(self, G: GroupHandle, H: GroupHandle, cap: int = DEFAULT_POINT_CAP):
        if not (G.is_finite and H.is_finite):
            raise GroupSpecError("FiniteUnion needs two finite factors")
        self.G = G
        self.H = H
        self.n = G.order() + H.order() - 1
        if self.n > cap:
            raise BudgetError(f"{self.n} points exceeds the cap of {cap}")
        self._index: dict[tuple[str, str], int] = {}
        self._points: list[tuple[str, str]] = [("e", "")]
        for side, handle in (("g", G), ("h", H)):
            for x in handle.elements():
                if x != handle.identity:
                    self._points.append((side, x))
        for i, key in enumerate(self._points):
            self._index[key] = i

    def index(self, side: str, x: str) -> int:
        handle = self.G if side == "g" else self.H
        if x == handle.identity:
            return 0
        return self._index[(side, x)]

    def label(self, i: int) -> tuple[str, str]:
        return self._points[i]

    def translation(self, side: str, x: str) -> DensePerm:
        """Left translation by x on its own block, fixing the other block."""
        handle = self.G if side == "g" else self.H
        images = list(range(self.n))
        for y in handle.elements():
            images[self.index(side, y)] = self.index(side, handle.mul(x, y))
        return tuple(images)


def realize_finite(G: GroupHandle, H: GroupHandle,
                   cap: int = DEFAULT_POINT_CAP,
                   generators: tuple[Sequence[str], Sequence[str]] | None = None,
                   ) -> list[DensePerm]:
    """Dense generators of the glued product of two finite groups.

    Defaults to one permutation per nonidentity element of each factor;
    pass explicit factor generating sets to restrict.
    """
    union = FiniteUnion(G, H, cap=cap)
    if generators is None:
        gen_g = [x for x in G.elements() if x != G.identity]
        gen_h = [y for y in H.elements() if y != H.identity]
    else:
        gen_g = [G.parse(x) for x in generators[0]]
        gen_h = [H.parse(y) for y in generators[1]]
    out = [union.translation("g", x) for x in gen_g]
    out += [union.translation("h", y) for y in gen_h]
    return out


def translation_sign(G: GroupHandle, g: str) -> int:
    """Sign of the regular translation by g: (-1)^((|G|/k)(k-1)) for k = order(g)."""
    if not G.is_finite:
        raise GroupSpecError("translation sign needs a finite group")
    k = G.element_order(G.parse(g))
    exponent = (G.order() // k) * (k - 1)
    return -1 if exponent % 2 else 1


def has_cyclic_two_sylow(G: GroupHandle) -> bool:
    """Whether a finite group has a nontrivial cyclic 2-Sylow subgroup.

    Equivalent to having an element of even order whose 2-adic valuation
    matches that of the group order; infinite handles report False.
    """
    if not G.is_finite:
        return False
    target = _two_valuation(G.order())
    if target == 0:
        return False
    for x in G.elements():
        k = G.element_order(x)
        if k % 2 == 0 and _two_valuation(k) == target:
            return True
    return False


def _two_valuation(n: int) -> int:
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return v


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


def glued_order(G: GroupHandle, H: GroupHandle, cap: int = DEFAULT_POINT_CAP) -> int:
    """Order of the glued product computed by Schreier-Sims."""
    return schreier_sims_order(realize_finite(G, H, cap=cap), point_cap=cap)


def verify_classification(G: GroupHandle, H: GroupHandle,
                          cap: int = DEFAULT_POINT_CAP) -> bool:
    """Check the Alt/Sym classification against the exact group order."""
    n = G.order() + H.order() - 1
    expected = math.factorial(n)
    if classify(G, H) == "Alt":
        expected //= 2
    return glued_order(G, H, cap=cap) == expected
