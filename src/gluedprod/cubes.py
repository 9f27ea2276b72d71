"""The cubical complex of subsets commensurate with the G side.

Vertices are subsets v of the pointed union whose symmetric difference
with the G copy is finite, stored as the finite ledger (removed from the
G side, added from the H side).  Two vertices are adjacent when their
symmetric difference is a single point.  The s-invariant |v - G| - |G - v|
classifies the orbits of the product group, and same-fiber vertices are
connected by explicit even finitely supported permutations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from .core import BOTH_INFINITE, PvContext, PvElement
from .errors import (
    BudgetError,
    FiberMismatchError,
    GluedError,
    GroupSpecError,
    RegimeError,
    WordParseError,
)
from .groups import GroupHandle
from .pointed import BASE, FinPerm, Point, side_points, transposition

BALL_VERTEX_CAP = 10**5


@dataclass(frozen=True)
class CubeVertex:
    """A vertex (G-side minus ``removed``) union ``added``."""

    removed: frozenset[Point]
    added: frozenset[Point]

    def __post_init__(self):
        for p in self.removed:
            if p.side not in ("e", "g"):
                raise WordParseError(f"removed points live on the G side, got {p}")
        for p in self.added:
            if p.side != "h":
                raise WordParseError(f"added points live on the H side, got {p}")


def whole_g_side() -> CubeVertex:
    """The base vertex: the full G copy."""
    return CubeVertex(frozenset(), frozenset())


def g_side_without_base() -> CubeVertex:
    """The unique H-fixed neighbour of the base vertex."""
    return CubeVertex(frozenset([BASE]), frozenset())


def contains(v: CubeVertex, p: Point) -> bool:
    if p.side == "h":
        return p in v.added
    return p not in v.removed


def s_invariant(v: CubeVertex) -> int:
    """|v minus the G side| - |the G side minus v|."""
    return len(v.added) - len(v.removed)


def distance(v: CubeVertex, w: CubeVertex) -> int:
    """Size of the symmetric difference; adjacency is distance one."""
    return len(v.removed ^ w.removed) + len(v.added ^ w.added)


def adjacent(v: CubeVertex, w: CubeVertex) -> bool:
    return distance(v, w) == 1


def fixed_by_G(v: CubeVertex) -> bool:
    """Fixed by every G translation: the vertex contains the whole G side."""
    return not v.removed


def fixed_by_H(v: CubeVertex) -> bool:
    """Fixed by every H translation: contained in the G side minus the basepoint."""
    return not v.added and BASE in v.removed


def _require_both_infinite(ctx: PvContext):
    if ctx.regime != BOTH_INFINITE:
        raise RegimeError("the cubical complex is built over two infinite factors")


def act_vertex(ctx: PvContext, s: PvElement, v: CubeVertex) -> CubeVertex:
    """The image vertex under an element, as a renormalised ledger.

    Membership of a target point q in s(v) is membership of s^-1(q) in
    v; only finitely many targets can disagree with the G-side default,
    and they all lie in the candidate set scanned here.
    """
    _require_both_infinite(ctx)
    sources = set(v.removed) | set(v.added) | set(s.a.support())
    sources.add(BASE)
    targets = set(sources)
    for p in sources:
        targets.add(ctx.act(s, p))
    for side, payload, handle in (("g", s.g, ctx.G), ("h", s.h, ctx.H)):
        if payload != handle.identity:
            targets.add(Point(side, payload))
            targets.add(Point(side, handle.inv(payload)))
    s_inv = ctx.invert(s)
    removed = set()
    added = set()
    for q in targets:
        inside = contains(v, ctx.act(s_inv, q))
        if q.side == "h":
            if inside:
                added.add(q)
        elif not inside:
            removed.add(q)
    return CubeVertex(frozenset(removed), frozenset(added))


def template_vertex(ctx: PvContext, n: int) -> CubeVertex:
    """The canonical representative of the fiber s = n.

    For n >= 0 the first n points of the H side are added; for n < 0 the
    first |n| points of the G side (the basepoint first) are removed.
    """
    _require_both_infinite(ctx)
    if n >= 0:
        added = frozenset(itertools.islice(ctx.union.enumerate_side("h"), n))
        return CubeVertex(frozenset(), added)
    g_points = itertools.chain([BASE], ctx.union.enumerate_side("g"))
    removed = frozenset(itertools.islice(g_points, -n))
    return CubeVertex(removed, frozenset())


def _fresh_h_pair(ctx: PvContext, avoid: set[Point]) -> tuple[Point, Point]:
    out = []
    for p in ctx.union.enumerate_side("h"):
        if p not in avoid:
            out.append(p)
            if len(out) == 2:
                return out[0], out[1]
    raise GluedError("ran out of H-side points")  # unreachable: H is infinite


def _carry_to_template(ctx: PvContext, v: CubeVertex) -> PvElement:
    """An even finitely supported permutation mapping v onto its template."""
    t = template_vertex(ctx, s_invariant(v))
    leaving = ctx.union.sorted_points((t.removed - v.removed) | (v.added - t.added))
    entering = ctx.union.sorted_points((v.removed - t.removed) | (t.added - v.added))
    moved: dict[Point, Point] = {}
    for p, q in zip(leaving, entering):
        moved[p] = q
        moved[q] = p
    perm = FinPerm(moved)
    if not perm.is_even():
        avoid = set(v.added) | set(t.added) | set(perm.support())
        a, b = _fresh_h_pair(ctx, avoid)
        perm = perm.compose(transposition(a, b))
    return ctx.from_perm(perm)


def transporter(ctx: PvContext, v: CubeVertex, w: CubeVertex) -> PvElement:
    """An element with trivial projections carrying v to w.

    Both vertices are matched to the template of their common fiber and
    the two carriers composed; the result is post-verified before it is
    returned.  Vertices in distinct fibers admit no transporter at all.
    """
    _require_both_infinite(ctx)
    if s_invariant(v) != s_invariant(w):
        raise FiberMismatchError(
            f"no transporter between fibers s={s_invariant(v)} and s={s_invariant(w)}"
        )
    carrier_v = _carry_to_template(ctx, v)
    carrier_w = _carry_to_template(ctx, w)
    out = ctx.multiply(ctx.invert(carrier_w), carrier_v)
    if act_vertex(ctx, out, v) != w:
        raise GluedError("transporter failed post-verification")
    return out


def vertex_ball(ctx: PvContext, radius: int, payload_bound: int) -> list[CubeVertex]:
    """All vertices within ledger size ``radius`` over bounded payloads.

    A ball of more than ``BALL_VERTEX_CAP`` vertices is refused before it
    is built.
    """
    _require_both_infinite(ctx)
    for what, value in (("ball radius", radius), ("payload bound", payload_bound)):
        if value < 0:
            raise GroupSpecError(f"{what} must be at least 0, got {value}")
    g_pool = (BASE,) + side_points(ctx.G, "g", payload_bound)
    h_pool = side_points(ctx.H, "h", payload_bound)
    # a vertex is a choice of at most ``radius`` ledger points from both
    # pools, so a radius past their size adds no vertex
    radius = min(radius, len(g_pool) + len(h_pool))
    count = sum(math.comb(len(g_pool) + len(h_pool), t) for t in range(radius + 1))
    if count > BALL_VERTEX_CAP:
        raise BudgetError(f"{count} vertices exceed the cap of {BALL_VERTEX_CAP}")
    out = []
    for total in range(radius + 1):
        for k in range(total + 1):
            for removed in itertools.combinations(g_pool, k):
                for added in itertools.combinations(h_pool, total - k):
                    out.append(CubeVertex(frozenset(removed), frozenset(added)))
    return out


def edges(vertices: Sequence[CubeVertex]) -> list[tuple[int, int]]:
    """Sorted index pairs (i, j), i < j, of adjacent distinct vertices.

    Adjacent vertices differ by one ledger point, so each pair is found
    from its larger vertex by dropping one point of its ledger.
    """
    index = {v: i for i, v in enumerate(vertices)}
    out = []
    for i, v in enumerate(vertices):
        smaller = [CubeVertex(v.removed - {p}, v.added) for p in v.removed]
        smaller += [CubeVertex(v.removed, v.added - {p}) for p in v.added]
        for w in smaller:
            j = index.get(w)
            if j is not None:
                out.append((min(i, j), max(i, j)))
    return sorted(out)


def first_infinite_order(handle: GroupHandle, span: int = 2) -> str:
    """The first infinite-order element in canonical ball order."""
    for x in handle.ball(span):
        if x != handle.identity and handle.element_order(x) is None:
            return x
    raise GroupSpecError(f"{handle!r} has no infinite-order element in its {span}-ball")


def growth_witness(ctx: PvContext, max_len: int) -> list[tuple[list, int]]:
    """Words (h g)^k in fixed infinite-order generators, with displacements.

    The word of length 2k moves the base vertex to distance exactly 2k,
    so the family witnesses unbounded orbits.
    """
    _require_both_infinite(ctx)
    g = first_infinite_order(ctx.G)
    h = first_infinite_order(ctx.H)
    base = whole_g_side()
    out = []
    element = ctx.identity
    step = ctx.multiply(ctx.from_h(h), ctx.from_g(g))
    word: list = []
    for k in range(1, max_len // 2 + 1):
        # prepend: multiply transports only its first argument's residual
        element = ctx.multiply(step, element)
        word = word + [("H", h), ("G", g)]
        out.append((list(word), distance(act_vertex(ctx, element, base), base)))
    return out
