"""Finite-group approximations of the glued product on growing windows.

The window F_n holds the elements (g, h, a) with both factor parts in
the radius-n balls and the residual supported in the corresponding point
window C_n.  Given factor quotients injective on the radius-4n balls,
the map phi sends a window element to the glued product of the finite
quotients: factor parts go through the quotients, the residual is pushed
forward along the induced point bijection.  phi is injective on F_2n and
multiplicative on F_n; the harnesses here verify both, plus the weak
equivariance and pushforward identities they rest on, exhaustively or on
samples.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, Iterator, Optional

from .core import BOTH_INFINITE, MIXED, PvContext, PvElement
from .errors import BudgetError, GroupSpecError, MembershipError
from .finite import DensePerm, FiniteUnion, compose_dense, parity_dense
from .groups import (
    CyclicGroup,
    GroupHandle,
    TableGroup,
    cyclic_table,
    direct_product_table,
)
from .pointed import BASE, FinPerm, Point

DEFAULT_PAIR_BUDGET = 10**7


@dataclass
class FiniteQuotient:
    """A finite quotient of a factor, injective on a recorded ball."""

    source: GroupHandle
    target: GroupHandle
    proj: Callable[[str], str]
    injectivity_radius: int

    def __post_init__(self):
        self._verify()

    def _verify(self):
        rng = Random(0)
        pool = self.source.ball(min(self.injectivity_radius, 3)) \
            if not self.source.is_finite else self.source.elements()
        for _ in range(64):
            x = rng.choice(pool)
            y = rng.choice(pool)
            if self.proj(self.source.mul(x, y)) != \
                    self.target.mul(self.proj(x), self.proj(y)):
                raise GroupSpecError("quotient map is not a homomorphism")
        if not self.source.is_finite:
            ball = self.source.ball(self.injectivity_radius)
            if len({self.proj(x) for x in ball}) != len(ball):
                raise GroupSpecError(
                    f"quotient is not injective on the radius-{self.injectivity_radius} ball"
                )


def _integers_quotient(G: GroupHandle, radius: int,
                       modulus: Optional[int]) -> FiniteQuotient:
    m = modulus if modulus is not None else 2 * radius + 1
    if m < 2 * radius + 1:
        raise GroupSpecError(
            f"modulus {m} cannot be injective on the radius-{radius} ball"
        )
    target = CyclicGroup(m)
    return FiniteQuotient(G, target, lambda x: str(int(x) % m), (m - 1) // 2)


def _lattice_quotient(G: GroupHandle, radius: int,
                      modulus: Optional[int]) -> FiniteQuotient:
    m = modulus if modulus is not None else 2 * radius + 1
    if m < 2 * radius + 1:
        raise GroupSpecError(
            f"modulus {m} cannot be injective on the radius-{radius} ball"
        )
    d = G.d
    table = cyclic_table(m)
    for _ in range(d - 1):
        table = direct_product_table(table, cyclic_table(m))
    target = TableGroup(table)

    def proj(x: str) -> str:
        idx = 0
        for c in x.split(","):
            idx = idx * m + (int(c) % m)
        return str(idx)

    return FiniteQuotient(G, target, proj, (m - 1) // 2)


def _identity_quotient(G: GroupHandle, radius: int,
                       modulus: Optional[int]) -> FiniteQuotient:
    return FiniteQuotient(G, G, lambda x: x, max(radius, 10**9))


QUOTIENT_PROVIDERS: dict[str, Callable[[GroupHandle, int, Optional[int]], FiniteQuotient]] = {
    "integers": _integers_quotient,
    "lattice": _lattice_quotient,
    "cyclic": _identity_quotient,
    "table": _identity_quotient,
}


def build_quotient(G: GroupHandle, radius: int,
                   modulus: Optional[int] = None) -> FiniteQuotient:
    """A finite quotient injective on the radius ball, per-kind provider."""
    provider = QUOTIENT_PROVIDERS.get(G.kind)
    if provider is None:
        raise GroupSpecError(
            f"no finite-quotient provider registered for kind {G.kind!r}"
        )
    return provider(G, radius, modulus)


# ----------------------------------------------------------------------
# windows

def window_points(ctx: PvContext, n: int) -> frozenset[Point]:
    """The point window C_n (the whole finite side in the mixed regime)."""
    pts = {BASE}
    for x in ctx.G.ball(n):
        if x != ctx.G.identity:
            pts.add(Point("g", x))
    h_pool = ctx.H.elements() if ctx.regime == MIXED else ctx.H.ball(n)
    for y in h_pool:
        if y != ctx.H.identity:
            pts.add(Point("h", y))
    return frozenset(pts)


def in_window(ctx: PvContext, s: PvElement, n: int,
              points: Optional[frozenset[Point]] = None) -> bool:
    """Whether an element lies in F_n (lengths, support, and parity).

    ``points`` is C_n, for callers that already hold it.
    """
    if ctx.G.length(s.g) > n:
        return False
    if ctx.regime == BOTH_INFINITE and ctx.H.length(s.h) > n:
        return False
    if points is None:
        points = window_points(ctx, n)
    if not s.a.support() <= points:
        return False
    return ctx.mixed_symmetric or s.a.is_even()


def perms_of_points(points, even_only: bool) -> Iterator[FinPerm]:
    ordered = list(points)
    for images in itertools.permutations(ordered):
        moved = {p: q for p, q in zip(ordered, images) if p != q}
        perm = FinPerm._trusted(moved)
        if even_only and not perm.is_even():
            continue
        yield perm


def window_elements(ctx: PvContext, n: int) -> list[PvElement]:
    """All of F_n, enumerated deterministically."""
    points = ctx.union.sorted_points(window_points(ctx, n))
    perms = list(perms_of_points(points, not ctx.mixed_symmetric))
    g_ball = ctx.G.ball(n)
    h_ball = [ctx.H.identity] if ctx.regime == MIXED else ctx.H.ball(n)
    return [
        PvElement(g, h, a)
        for g in g_ball
        for h in h_ball
        for a in perms
    ]


def random_window_element(ctx: PvContext, n: int, rng: Random) -> PvElement:
    points = ctx.union.sorted_points(window_points(ctx, n))
    images = points[:]
    rng.shuffle(images)
    perm = FinPerm(dict(zip(points, images)))
    if not ctx.mixed_symmetric and not perm.is_even():
        images[0], images[1] = images[1], images[0]
        perm = FinPerm(dict(zip(points, images)))
    g = rng.choice(ctx.G.ball(n))
    h = ctx.H.identity if ctx.regime == MIXED else rng.choice(ctx.H.ball(n))
    return PvElement(g, h, perm)


# ----------------------------------------------------------------------
# reports

@dataclass
class CheckReport:
    name: str
    pairs_checked: int
    failures: list[str] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "pairs_checked": self.pairs_checked,
            "failures": self.failures,
            "wall_time": round(self.wall_time, 3),
        }


def _check(name: str):
    """Run a generator of cases as a check that returns a ``CheckReport``.

    The generator yields once per case: None when the case holds, its
    failure label otherwise.  The report's time includes the set-up.
    """
    def decorate(cases: Callable[..., Iterator[Optional[str]]]):
        @functools.wraps(cases)
        def run(self, *args, **kwargs) -> CheckReport:
            start = time.perf_counter()
            failures = []
            checked = 0
            for failure in cases(self, *args, **kwargs):
                checked += 1
                if failure is not None:
                    failures.append(failure)
            return CheckReport(name, checked, failures, time.perf_counter() - start)
        return run
    return decorate


class Approximation:
    """The map phi from the window F_2n into a finite glued product."""

    def __init__(self, ctx: PvContext, n: int,
                 quotient_g: Optional[FiniteQuotient] = None,
                 quotient_h: Optional[FiniteQuotient] = None,
                 modulus: Optional[int] = None):
        self.ctx = ctx
        self.n = n
        self.qg = quotient_g or build_quotient(ctx.G, 4 * n, modulus)
        if ctx.regime == MIXED:
            self.qh = quotient_h or _identity_quotient(ctx.H, 4 * n, None)
        else:
            self.qh = quotient_h or build_quotient(ctx.H, 4 * n, modulus)
        for q in (self.qg, self.qh):
            if q.injectivity_radius < 4 * n:
                raise GroupSpecError(
                    f"quotient injectivity radius {q.injectivity_radius} < 4n = {4 * n}"
                )
        size = self.qg.target.order() + self.qh.target.order() - 1
        self.funion = FiniteUnion(self.qg.target, self.qh.target,
                                  cap=max(64, size))
        self._translations: dict[tuple[str, str], DensePerm] = {}
        self._window2 = window_points(ctx, 2 * n)

    # -- the map itself -------------------------------------------------

    def point_image(self, p: Point) -> int:
        """The set-theoretic projection onto the finite pointed union."""
        if p.side == "e":
            return 0
        if p.side == "g":
            return self.funion.index("g", self.qg.proj(p.payload))
        return self.funion.index("h", self.qh.proj(p.payload))

    def _translation(self, side: str, x: str) -> DensePerm:
        key = (side, x)
        cached = self._translations.get(key)
        if cached is None:
            cached = self.funion.translation(side, x)
            self._translations[key] = cached
        return cached

    def pushforward(self, a: FinPerm) -> DensePerm:
        images = list(range(self.funion.n))
        for p, q in a.items():
            images[self.point_image(p)] = self.point_image(q)
        return tuple(images)

    def phi_parts(self, s: PvElement) -> tuple[str, str, DensePerm]:
        if not in_window(self.ctx, s, 2 * self.n, self._window2):
            raise MembershipError(f"element outside the window F_{2 * self.n}")
        return (self.qg.proj(s.g), self.qh.proj(s.h), self.pushforward(s.a))

    def phi(self, s: PvElement) -> DensePerm:
        gn, hn, pa = self.phi_parts(s)
        return compose_dense(self._translation("g", gn),
                             compose_dense(self._translation("h", hn), pa))

    # -- harnesses -------------------------------------------------------

    def _window_pairs(self, mode: str, sample: int, seed: int, budget: int
                      ) -> tuple[list[PvElement], Iterator[tuple[int, int]]]:
        """F_n and pairs of positions in it: all of them, or ``sample`` seeded draws."""
        elements = window_elements(self.ctx, self.n)
        count = len(elements)
        if mode == "exhaustive":
            if count * count > budget:
                raise BudgetError(
                    f"{count * count} pairs exceed the budget of {budget}"
                )
            return elements, itertools.product(range(count), repeat=2)
        if mode == "sample":
            rng = Random(seed)
            return elements, ((rng.randrange(count), rng.randrange(count))
                              for _ in range(min(sample, budget)))
        raise GroupSpecError(f"unknown mode {mode!r}")

    def _pair_label(self, s1: PvElement, s2: PvElement) -> str:
        return f"{self.ctx.format_element(s1)} | {self.ctx.format_element(s2)}"

    @_check("multiplicativity")
    def check_multiplicativity(self, mode: str = "exhaustive",
                               sample: int = 10**5, seed: int = 0,
                               budget: int = DEFAULT_PAIR_BUDGET):
        """phi(s1 s2) = phi(s1) phi(s2) over pairs of F_n."""
        elements, pairs = self._window_pairs(mode, sample, seed, budget)
        phis = [self.phi(s) for s in elements]
        for i, j in pairs:
            prod = self.ctx.multiply(elements[i], elements[j])
            holds = self.phi(prod) == compose_dense(phis[i], phis[j])
            yield None if holds else self._pair_label(elements[i], elements[j])

    @_check("window-closure")
    def check_window_closure(self, mode: str = "exhaustive",
                             sample: int = 10**5, seed: int = 0,
                             budget: int = DEFAULT_PAIR_BUDGET):
        """Products of F_n land in F_2n."""
        elements, pairs = self._window_pairs(mode, sample, seed, budget)
        for i, j in pairs:
            prod = self.ctx.multiply(elements[i], elements[j])
            inside = in_window(self.ctx, prod, 2 * self.n, self._window2)
            yield None if inside else self._pair_label(elements[i], elements[j])

    @_check("injectivity")
    def check_injectivity(self, samples: int = 10**5, seed: int = 0,
                          budget: int = DEFAULT_PAIR_BUDGET):
        """Distinct sampled elements of F_2n have distinct images."""
        rng = Random(seed)
        for _ in range(min(samples, budget)):
            s1 = s2 = None
            while s1 == s2:
                s1 = random_window_element(self.ctx, 2 * self.n, rng)
                s2 = random_window_element(self.ctx, 2 * self.n, rng)
            yield None if self.phi(s1) != self.phi(s2) else self._pair_label(s1, s2)

    @_check("point-bijection")
    def check_point_bijection(self):
        """The point projection restricted to C_4n is a bijection.

        One case per point; a collapse is reported once, at the first
        point whose image is already taken.
        """
        images: set[int] = set()
        for i, p in enumerate(window_points(self.ctx, 4 * self.n)):
            image = self.point_image(p)
            first_collapse = image in images and len(images) == i
            images.add(image)
            yield f"projection collapses C_{4 * self.n}" if first_collapse else None

    @_check("equivariance")
    def check_equivariance(self, mode: str = "exhaustive",
                           sample: int = 10**4, seed: int = 0):
        """Weak equivariance of the point projection against ball elements.

        For x in the radius-2n ball of a factor and z in C_4n outside the
        other factor's kernel shadow, projecting x.z equals translating
        the projection of z by the projected x.
        """
        ctx = self.ctx
        window = ctx.union.sorted_points(window_points(ctx, 4 * self.n))
        rng = Random(seed)
        for side, handle, q, other_q in (("g", ctx.G, self.qg, self.qh),
                                         ("h", ctx.H, self.qh, self.qg)):
            ball = handle.elements() if handle.is_finite else handle.ball(2 * self.n)
            if mode == "sample":
                ball = [rng.choice(ball) for _ in range(max(1, sample // len(window)))]
            other_side = "h" if side == "g" else "g"
            for x in ball:
                trans = self._translation(side, q.proj(x))
                for z in window:
                    if z.side == other_side and \
                            other_q.proj(z.payload) == other_q.target.identity:
                        continue  # kernel shadow: projection collapses to the basepoint
                    holds = self.point_image(ctx.union.apply_factor(side, x, z)) \
                        == trans[self.point_image(z)]
                    yield None if holds else f"{side}:{x} at {ctx.union.format_point(z)}"

    @_check("pushforward")
    def check_pushforward(self, mode: str = "exhaustive",
                          sample: int = 10**4, seed: int = 0,
                          budget: int = DEFAULT_PAIR_BUDGET):
        """The pushforward acts as conjugation by the point projection.

        For every residual supported in C_2n and every y in C_4n, the
        image of y under the pushforward of a equals the projection of
        a(y).
        """
        ctx = self.ctx
        pts2 = ctx.union.sorted_points(window_points(ctx, 2 * self.n))
        pts4 = ctx.union.sorted_points(window_points(ctx, 4 * self.n))
        img2 = [self.point_image(p) for p in pts2]
        pos2 = {p: i for i, p in enumerate(pts2)}
        outside = [self.point_image(p) for p in pts4 if p not in pos2]
        c = len(pts2)

        def verify(sigma: tuple[int, ...]) -> bool:
            images = list(range(self.funion.n))
            for i in range(c):
                images[img2[i]] = img2[sigma[i]]
            for i in range(c):
                if images[img2[i]] != img2[sigma[i]]:
                    return False
            for o in outside:
                if images[o] != o:
                    return False
            return True

        def shuffled():
            rng = Random(seed)
            for _ in range(sample):
                sigma = list(range(c))
                rng.shuffle(sigma)
                yield tuple(sigma)

        if mode == "exhaustive":
            total = math.factorial(c)
            if total > budget:
                raise BudgetError(f"{total} residuals exceed the budget of {budget}")
            residuals = itertools.permutations(range(c))
        else:
            residuals = shuffled()
        for sigma in residuals:
            if ctx.mixed_symmetric or not parity_dense(sigma):
                yield None if verify(sigma) else f"residual {sigma}"


def lef_mixed(ctx: PvContext, n: int, mode: str = "exhaustive",
              sample: int = 10**5, seed: int = 0,
              modulus: Optional[int] = None) -> list[CheckReport]:
    """Multiplicativity and injectivity reports for an infinite-by-finite product."""
    if ctx.regime != MIXED:
        raise GroupSpecError("lef_mixed expects an infinite-by-finite context")
    approx = Approximation(ctx, n, modulus=modulus)
    return [
        approx.check_multiplicativity(mode=mode, sample=sample, seed=seed),
        approx.check_injectivity(samples=min(sample, 10**4), seed=seed),
    ]
