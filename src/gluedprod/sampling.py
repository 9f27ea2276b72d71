"""Seeded samplers shared by the property suites and the test suite.

All samplers draw payloads from cached balls of the owning factors, so
they work for any catalog kind, not just the integers.
"""

from __future__ import annotations

from functools import lru_cache
from random import Random

from .core import PvContext, PvElement
from .cubes import CubeVertex
from .pointed import BASE, FinPerm, Point, random_perm, side_points


@lru_cache(maxsize=128)
def _ball(handle, span: int) -> tuple[str, ...]:
    return tuple(handle.ball(span))


# cached for the samplers only: a cache on side_points itself would also
# keep alive the quotient groups that each lef window builds
_side_points = lru_cache(maxsize=128)(side_points)


def even_perm(ctx, rng: Random, span: int = 6, size: int = 6) -> FinPerm:
    """A random even finitely supported permutation over small payloads."""
    pool = _side_points(ctx.G, "g", span) + _side_points(ctx.H, "h", span) + (BASE,)
    return random_perm(rng.sample(pool, min(size, len(pool))), rng, even=True)


def element(ctx: PvContext, rng: Random, span: int = 5) -> PvElement:
    """A random element with factor parts in the radius-span balls."""
    g = rng.choice(_ball(ctx.G, span))
    h = rng.choice(_ball(ctx.H, span))
    return ctx.element(g=g, h=h, a=even_perm(ctx, rng))


def points(owner, rng: Random, count: int, span: int = 8) -> list[Point]:
    """Random probe points; ``owner`` is anything with G and H handles."""
    pools = {
        "g": _side_points(owner.G, "g", span),
        "h": _side_points(owner.H, "h", span),
    }
    out = []
    for _ in range(count):
        side = rng.choice(["e", "g", "h"])
        pool = pools.get(side)
        out.append(rng.choice(pool) if pool else BASE)
    return out


def vertex(ctx, rng: Random, span: int = 3) -> CubeVertex:
    g_pool = (BASE,) + _side_points(ctx.G, "g", span)
    h_pool = _side_points(ctx.H, "h", span)
    removed = frozenset(rng.choice(g_pool) for _ in range(rng.randint(0, 3)))
    added = frozenset(rng.choice(h_pool) for _ in range(rng.randint(0, 3)))
    return CubeVertex(removed, added)
