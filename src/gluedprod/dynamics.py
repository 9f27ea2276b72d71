"""Dynamical checks: the free-semigroup verifier and Folner sets.

Two infinite-order elements of opposite factors generate a free
semigroup: all nonnegative words in them evaluate to distinct elements,
which the verifier confirms exhaustively up to a length bound by
tracking normal forms.  For an amenable first factor, shifted Folner
sets of the factor are Folner sets for the whole product action because
the other factor fixes them pointwise.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .core import PvContext, PvElement
from .errors import BudgetError, GroupSpecError
from .groups import DEFAULT_BALL_CAP, Element, GroupHandle
from .pointed import Point

DEFAULT_WORD_CAP = 18


@dataclass
class PongReport:
    """Outcome of the free-semigroup check."""

    words_checked: int
    distinct: int
    first_collision: Optional[tuple[str, str]] = None

    @property
    def ok(self) -> bool:
        return self.first_collision is None and self.distinct == self.words_checked


def free_semigroup_check(ctx: PvContext, g, h, max_len: int) -> PongReport:
    """Evaluate all nonempty nonnegative words in g and h up to a length.

    ``g`` and ``h`` are literals or values and must have infinite order;
    2^(L+1) - 2 words are reduced to normal form and compared for
    pairwise distinctness; a length over ``DEFAULT_WORD_CAP`` is refused.
    """
    if max_len < 1:
        raise GroupSpecError(f"word length must be at least 1, got {max_len}")
    g = ctx.G.parse(g)
    h = ctx.H.parse(h)
    if ctx.G.element_order(g) is not None:
        raise GroupSpecError("g must have infinite order")
    if ctx.H.element_order(h) is not None:
        raise GroupSpecError("h must have infinite order")
    if max_len > DEFAULT_WORD_CAP:
        raise BudgetError(f"word length {max_len} exceeds the cap of {DEFAULT_WORD_CAP}")
    letters = (("g", ctx.from_g(g)), ("h", ctx.from_h(h)))
    seen: dict[PvElement, str] = {}
    layer: list[tuple[str, PvElement]] = [("", ctx.identity)]
    checked = 0
    collision = None
    for _ in range(max_len):
        nxt = []
        for word, element in layer:
            for name, letter in letters:
                new_word = word + name
                value = ctx.multiply(element, letter)
                nxt.append((new_word, value))
                checked += 1
                other = seen.setdefault(value, new_word)
                if other != new_word and collision is None:
                    collision = (other, new_word)
        layer = nxt
    return PongReport(checked, len(seen), collision)


@dataclass(frozen=True)
class FolnerSet:
    """The box [1, 2n + 1] x [-n, n]^(d - 1) of the G side: the Folner box
    of radius n shifted by ``shift`` = (n + 1, 0, ..., 0), so it avoids
    the basepoint.  Its points are built on first read only, and refused
    over ``DEFAULT_BALL_CAP``; membership compares coordinates."""

    n: int
    d: int
    shift: Element
    group: GroupHandle

    @property
    def size(self) -> int:
        return (2 * self.n + 1) ** self.d

    @cached_property
    def points(self) -> frozenset[Point]:
        """The points of the box, built directly as values: coordinate
        tuples, or their one int on Z."""
        n = self.n
        if self.size > DEFAULT_BALL_CAP:
            raise BudgetError(f"Folner box of radius {n} in {self.group!r} "
                              f"exceeds cap {DEFAULT_BALL_CAP}")
        box = itertools.product(range(1, 2 * n + 2), *[range(-n, n + 1)] * (self.d - 1))
        if isinstance(self.shift, int):  # an element of Z is an int, not a 1-tuple
            box = (c for (c,) in box)
        return frozenset(Point("g", x) for x in box)

    def __contains__(self, p: Point) -> bool:
        side, x = p
        if side != "g":
            return False
        first, *rest = (x,) if isinstance(x, int) else x
        n = self.n
        return 0 < first <= 2 * n + 1 and all(-n <= c <= n for c in rest)


def folner_set(ctx: PvContext, n: int) -> FolnerSet:
    """The shifted Folner set of the first factor, as points of the G side.

    Z is Z^d with d = 1.  Nothing is built, so every radius has a set.
    """
    if n < 0:
        raise GroupSpecError(f"Folner radius must be at least 0, got {n}")
    G = ctx.G
    if G.kind not in ("integers", "lattice"):
        raise GroupSpecError(f"no Folner scheme registered for kind {G.kind!r}")
    d = G.d if G.kind == "lattice" else 1
    shift = n + 1 if G.kind == "integers" else (n + 1,) + (0,) * (d - 1)
    return FolnerSet(n, d, shift, G)


def folner_ratio(ctx: PvContext, F: FolnerSet, s: PvElement) -> Fraction:
    """|sF symmetric-difference F| / |F| as an exact rational, at the cost of
    the residual's support, not of the box.

    Lemma: s = T_g T_h a, and F lies on the G side away from the
    basepoint, which T_h fixes pointwise; so s(p) = g p for every p of F
    outside supp(a).  s is a bijection, so |sF ^ F| = 2(|F| - k) with
    k = #{p in F : s(p) in F}.  Without the residual k would be
    |F n g^-1 F|, the product over the coordinates c of g of
    max(0, 2n + 1 - |c|); each p of F n supp(a) takes back its g p term
    and counts s(p) instead.
    """
    side = 2 * F.n + 1
    g = s.g
    kept = math.prod(max(0, side - abs(c)) for c in ((g,) if isinstance(g, int) else g))
    apply = ctx.union.apply_factor
    for p, _ in s.a.items():
        if p in F:
            kept += (ctx.act(s, p) in F) - (apply("g", g, p) in F)
    return Fraction(2 * (F.size - kept), F.size)
