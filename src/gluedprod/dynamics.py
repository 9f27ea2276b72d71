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
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import PvContext, PvElement
from .errors import BudgetError, GroupSpecError
from .groups import DEFAULT_BALL_CAP, Element
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
    """A finite subset of the G side avoiding the basepoint."""

    points: frozenset[Point]
    n: int
    shift: Element


def folner_set(ctx: PvContext, n: int) -> FolnerSet:
    """The shifted Folner set of the first factor, as points of the G side.

    Z is Z^d with d = 1: the set is the box [-n, n]^d shifted by
    (n + 1, 0, ..., 0), so it avoids the basepoint.  Its points are
    built directly as values: coordinate tuples, or their one int on Z.
    A box of more than ``DEFAULT_BALL_CAP`` points is refused before any
    is built.
    """
    if n < 0:
        raise GroupSpecError(f"Folner radius must be at least 0, got {n}")
    G = ctx.G
    if G.kind not in ("integers", "lattice"):
        raise GroupSpecError(f"no Folner scheme registered for kind {G.kind!r}")
    d = G.d if G.kind == "lattice" else 1
    if (2 * n + 1) ** d > DEFAULT_BALL_CAP:
        raise BudgetError(f"Folner box of radius {n} in {G!r} exceeds cap {DEFAULT_BALL_CAP}")
    box = itertools.product(range(1, 2 * n + 2), *[range(-n, n + 1)] * (d - 1))
    if G.kind == "integers":  # an element of Z is an int, not a 1-tuple
        shift, values = n + 1, (c for (c,) in box)
    else:
        shift, values = (n + 1,) + (0,) * (d - 1), box
    points = frozenset(Point("g", x) for x in values)
    return FolnerSet(points, n, shift)


def folner_ratio(ctx: PvContext, F: FolnerSet, s: PvElement) -> Fraction:
    """|sF symmetric-difference F| / |F| as an exact rational."""
    image = {ctx.act(s, p) for p in F.points}
    return Fraction(len(image ^ F.points), len(F.points))
