"""Finite-group approximations of the glued product on growing windows.

The window F_n holds the elements (g, h, a) with both factor parts in
the radius-n balls and the residual supported in the corresponding point
window C_n; an absorbed (finite) factor's part is always e, and C_n
holds its whole side.  Given factor quotients injective on the radius-4n
balls, the map phi sends a window element to the glued product of the
finite quotients: factor parts go through the quotients, the residual is
pushed forward along the induced point bijection.  phi is injective on F_2n and
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
from typing import Callable, Iterable, Iterator, Optional

from .core import PvContext, PvElement
from .errors import BudgetError, GroupSpecError, MembershipError
from .groups import (
    DEFAULT_BALL_CAP,
    CyclicGroup,
    CyclicPowerGroup,
    DensePerm,
    Element,
    GroupHandle,
    compose_dense,
    format_value,
    parity_dense,
)
from .pointed import BASE, FinPerm, Point, PointedUnion, side_points

PAIR_BUDGET = 10**7  # the most pairs, draws or residuals one check walks
PAIR_CHECKS = ("multiplicativity", "window-closure")


@dataclass
class FiniteQuotient:
    """A map of a factor onto a finite group; ``verify`` checks it on a ball."""

    source: GroupHandle
    target: GroupHandle
    proj: Callable[[Element], Element]

    def verify(self, radius: int):
        """Refuse the map unless it sends the identity to the identity, is
        a homomorphism on 64 seeded pairs, and is injective on the
        radius ball (the whole group when the source is finite and the
        radius positive)."""
        source, target, proj = self.source, self.target, self.proj
        ball = source.ball(radius)
        if proj(source.identity) != target.identity:
            raise GroupSpecError("quotient map does not send the identity to the identity")
        rng = Random(0)
        for _ in range(64):
            x, y = rng.choice(ball), rng.choice(ball)
            if proj(source.mul(x, y)) != target.mul(proj(x), proj(y)):
                raise GroupSpecError("quotient map is not a homomorphism")
        if len({proj(x) for x in ball}) != len(ball):
            where = "the whole group" if source.is_finite else f"the radius-{radius} ball"
            raise GroupSpecError(f"quotient is not injective on {where}")


def _identity_quotient(G: GroupHandle) -> FiniteQuotient:
    return FiniteQuotient(G, G, lambda x: x)


def build_quotient(G: GroupHandle, radius: int,
                   modulus: Optional[int] = None) -> FiniteQuotient:
    """A finite quotient injective on the radius ball.

    A finite factor is its own quotient.  Z maps onto Z/m and Z^d onto
    (Z/m)^d, m = ``modulus`` or 2 * radius + 1, reducing each coordinate
    mod m; (Z/m)^d is computed componentwise on int tuples, in base-m
    order, and no table is built.  A quotient of more than
    ``DEFAULT_BALL_CAP`` elements is refused before anything is built.
    Any other factor needs an explicit quotient, passed to
    ``Approximation``, which verifies every quotient it maps through.
    """
    if G.is_finite:
        return _identity_quotient(G)
    if G.kind not in ("integers", "lattice"):
        raise GroupSpecError(
            f"no finite quotient for kind {G.kind!r}; pass quotient_g/quotient_h"
        )
    m = modulus if modulus is not None else 2 * radius + 1
    if m < 2 * radius + 1:
        raise GroupSpecError(
            f"modulus {m} cannot be injective on the radius-{radius} ball"
        )
    d = G.d if G.kind == "lattice" else 1
    if m ** d > DEFAULT_BALL_CAP:
        raise BudgetError(
            f"{m ** d} quotient elements exceed the cap of {DEFAULT_BALL_CAP}"
        )
    if G.kind == "integers":
        target: GroupHandle = CyclicGroup(m)

        def proj(x: int) -> int:
            return x % m
    else:
        target = CyclicPowerGroup(m, d)

        def proj(x: tuple[int, ...]) -> tuple[int, ...]:
            return tuple([c % m for c in x])

    return FiniteQuotient(G, target, proj)


# ----------------------------------------------------------------------
# windows

@dataclass(frozen=True)
class Window:
    """The window F_n of one context, and the point window C_n it acts on.

    F_n is the set of (g, h, a) with g in ``g_ball``, h in ``h_ball`` and
    a a permutation of ``points`` that is even when ``even`` is set.  An
    absorbed (finite) factor's ball is [e], and C_n holds its whole side.
    """

    points: tuple[Point, ...]  # C_n in canonical order
    point_set: frozenset[Point]  # C_n as a set
    g_ball: tuple[Element, ...]
    h_ball: tuple[Element, ...]
    even: bool  # residuals are even
    residuals: int  # the number of residuals

    @property
    def size(self) -> int:
        """|F_n|."""
        return len(self.g_ball) * len(self.h_ball) * self.residuals

    @functools.cached_property
    def blocks(self) -> tuple[int, ...]:
        """The residuals that follow each choice of an image, for every
        point but the last two, whose images the parity or the last digit
        fixes.  Built on the first decode, since most windows never decode."""
        # with m points left, each image leaves (m - 1)! completions, half of them even
        halve = 2 if self.even else 1
        return tuple(math.factorial(m - 1) // halve for m in range(len(self.points), 2, -1))


@functools.lru_cache(maxsize=128)
def window(ctx: PvContext, n: int) -> Window:
    """F_n and C_n of ``ctx``, built once per context and radius.

    This is the one place the per-side rule shapes a window.
    """
    g_ball = ctx.G.ball(n) if ctx.g_kept else [ctx.G.identity]
    h_ball = ctx.H.ball(n) if ctx.h_kept else [ctx.H.identity]
    points = ((BASE,) + side_points(ctx.G, "g", n if ctx.g_kept else None)
              + side_points(ctx.H, "h", n if ctx.h_kept else None))
    even = not ctx.mixed_symmetric
    c = len(points)
    residuals = math.factorial(c) // (2 if even and c > 1 else 1)
    return Window(points, frozenset(points), tuple(g_ball), tuple(h_ball), even, residuals)


def window_points(ctx: PvContext, n: int) -> frozenset[Point]:
    """The point window C_n (the whole side of an absorbed factor)."""
    return window(ctx, n).point_set


def in_window(ctx: PvContext, s: PvElement, n: int) -> bool:
    """Whether an element lies in F_n (lengths, support, and parity)."""
    w = window(ctx, n)
    if ctx.G.length(s.g) > n:
        return False
    if ctx.H.length(s.h) > n:
        return False
    if not s.a.support() <= w.point_set:
        return False
    return not w.even or s.a.known_even()


def window_elements(ctx: PvContext, n: int) -> list[PvElement]:
    """All of F_n, enumerated deterministically."""
    w = window(ctx, n)
    perms = []
    for images in itertools.permutations(w.points):
        perm = FinPerm._trusted({p: q for p, q in zip(w.points, images) if p != q})
        if not w.even or perm.is_even():
            perms.append(perm)
    return [PvElement(g, h, a) for g in w.g_ball for h in w.h_ball for a in perms]


def window_element(ctx: PvContext, n: int, k: int) -> PvElement:
    """``window_elements(ctx, n)[k]``, decoded without building F_n.

    k is mixed radix over the g ball, the h ball and the residuals; the
    residual is the k-th permutation of C_n (the k-th even one when the
    window is even) in ``itertools.permutations`` order, unranked from
    its Lehmer code (Knuth, TAOCP 4A, 7.2.1.2).  Its parity is the parity
    of the digit sum, so it is set, not counted.
    """
    w = window(ctx, n)
    if not 0 <= k < w.size:
        raise MembershipError(f"position {k} is outside F_{n}, which has {w.size} elements")
    gh, r = divmod(k, w.residuals)
    g, h = divmod(gh, len(w.h_ball))
    left = list(w.points)
    images = []
    odd = 0
    for block in w.blocks:
        d, r = divmod(r, block)
        odd ^= d & 1
        images.append(left.pop(d))
    # the digit with two points left: r in a symmetric window, forced even otherwise
    last = odd if w.even else r
    if last:
        left.reverse()
    images += left
    perm = FinPerm._trusted({p: q for p, q in zip(w.points, images) if p != q})
    perm._even = odd == last
    return PvElement(w.g_ball[g], w.h_ball[h], perm)


def random_window_element(ctx: PvContext, n: int, rng: Random) -> PvElement:
    """A uniform element of F_n: the element at one uniform position."""
    return window_element(ctx, n, rng.randrange(window(ctx, n).size))


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


def _cases(mode: str, total: int, every: Callable[[], Iterable],
           draw: Callable[[], object], sample: int, unit: str) -> Iterable:
    """The cases of one check: all ``total`` of ``every()``, or ``sample``
    seeded ``draw()`` calls; never more than ``PAIR_BUDGET``.  Only the
    mode asked for is built, so a sample never touches the whole set."""
    if mode == "exhaustive":
        if total > PAIR_BUDGET:
            raise BudgetError(f"{total} {unit} exceed the budget of {PAIR_BUDGET}")
        return every()
    if mode == "sample":
        return (draw() for _ in range(min(sample, PAIR_BUDGET)))
    raise GroupSpecError(f"unknown mode {mode!r}")


class Approximation:
    """The map phi from the window F_2n into a finite glued product."""

    def __init__(self, ctx: PvContext, n: int,
                 quotient_g: Optional[FiniteQuotient] = None,
                 quotient_h: Optional[FiniteQuotient] = None,
                 modulus: Optional[int] = None):
        if n < 1:
            raise GroupSpecError(f"the window radius n must be at least 1, got {n}")
        self.ctx = ctx
        self.n = n
        self.qg = quotient_g or build_quotient(ctx.G, 4 * n, modulus)
        self.qh = quotient_h or build_quotient(ctx.H, 4 * n, modulus)
        for q in (self.qg, self.qh):
            q.verify(4 * n)
        self.target = PointedUnion(self.qg.target, self.qh.target)
        self._outers: dict[tuple[Element, Element], DensePerm] = {}
        # the point projection: all of C_4n now, any other point on first use
        self._point_images: dict[Point, int] = {}
        for p in window(ctx, 4 * n).points:
            self.point_image(p)
        # the element at each position of F_n, decoded once per approximation
        self._element = functools.cache(lambda k: window_element(ctx, n, k))

    # -- the map itself -------------------------------------------------

    def point_image(self, p: Point) -> int:
        """The set-theoretic projection onto the finite pointed union."""
        image = self._point_images.get(p)
        if image is None:
            side, x = p
            q = self.qg if side == "g" else self.qh
            image = self._point_images[p] = \
                0 if side == "e" else self.target.positions[side][q.proj(x)]
        return image

    def phi(self, s: PvElement) -> DensePerm:
        """T_g o T_h o a_*, where a_* pushes the residual a forward along
        the point projection; the outer translation T_g o T_h is cached
        per quotient pair, so only the residual's support is patched."""
        if not in_window(self.ctx, s, 2 * self.n):
            raise MembershipError(f"element outside the window F_{2 * self.n}")
        return self._image(s)

    def _image(self, s: PvElement) -> DensePerm:
        """phi of an element already known to lie in F_2n.

        A copy of the cached outer translation is patched at the
        residual's support: for each p -> q of a, the position of p takes
        the outer image of the position of q.  The copy and the outer
        composition run in C; the Python loop is over the support only.
        """
        gn, hn = self.qg.proj(s.g), self.qh.proj(s.h)
        outer = self._outers.get((gn, hn))
        if outer is None:
            outer = compose_dense(self.target.dense_translation("g", gn),
                                  self.target.dense_translation("h", hn))
            self._outers[gn, hn] = outer
        images = list(outer)
        index = self._point_images  # holds all of C_4n, which contains C_2n
        for p, q in s.a.items():
            images[index[p]] = outer[index[q]]
        return tuple(images)

    # -- harnesses -------------------------------------------------------

    def _pair_label(self, s1: PvElement, s2: PvElement) -> str:
        return f"{self.ctx.format_element(s1)} | {self.ctx.format_element(s2)}"

    def check_pairs(self, checks: tuple[str, ...] = PAIR_CHECKS, mode: str = "exhaustive",
                    sample: int = 10**5, seed: int = 0) -> list[CheckReport]:
        """Window closure (products of F_n land in F_2n) and multiplicativity
        (phi(s1 s2) = phi(s1) phi(s2)) in one walk over pairs of F_n.

        Each pair is multiplied once for all the checks asked for, and the
        reports share one wall time.  phi is not defined outside F_2n, so
        a product there fails both checks; window closure alone never
        calls phi.  phi of a window element is computed the first time a
        pair uses its position, so a sample costs O(sample) maps and
        decodes, not O(|F_n|).
        """
        start = time.perf_counter()
        unknown = set(checks) - set(PAIR_CHECKS)
        if unknown:
            raise GroupSpecError(f"unknown pair checks {sorted(unknown)}")
        ctx, element_at = self.ctx, self._element
        multiplicativity = "multiplicativity" in checks
        phi_at = functools.cache(lambda i: self._image(element_at(i)))
        count = window(ctx, self.n).size
        rng = Random(seed)
        pairs = _cases(mode, count * count,
                       lambda: itertools.product(range(count), repeat=2),
                       lambda: (rng.randrange(count), rng.randrange(count)), sample, "pairs")
        checked = 0
        failures: dict[str, list[str]] = {name: [] for name in checks}
        for i, j in pairs:
            checked += 1
            s1, s2 = element_at(i), element_at(j)
            product = ctx.multiply(s1, s2)
            inside = in_window(ctx, product, 2 * self.n)
            if inside and (not multiplicativity
                           or self._image(product) == compose_dense(phi_at(i), phi_at(j))):
                continue
            # outside F_2n fails every check; a wrong image fails multiplicativity
            label = self._pair_label(s1, s2)
            for name, failed in failures.items():
                if not inside or name == "multiplicativity":
                    failed.append(label)
        elapsed = time.perf_counter() - start
        return [CheckReport(name, checked, failures[name], elapsed) for name in checks]

    def check_multiplicativity(self, mode: str = "exhaustive", sample: int = 10**5,
                               seed: int = 0) -> CheckReport:
        """phi(s1 s2) = phi(s1) phi(s2) over pairs of F_n."""
        return self.check_pairs(("multiplicativity",), mode, sample, seed)[0]

    def check_window_closure(self, mode: str = "exhaustive", sample: int = 10**5,
                             seed: int = 0) -> CheckReport:
        """Products of F_n land in F_2n."""
        return self.check_pairs(("window-closure",), mode, sample, seed)[0]

    @_check("injectivity")
    def check_injectivity(self, samples: int = 10**5, seed: int = 0):
        """Distinct sampled elements of F_2n have distinct images."""
        rng = Random(seed)
        for _ in range(min(samples, PAIR_BUDGET)):
            s1 = s2 = None
            while s1 == s2:
                s1 = random_window_element(self.ctx, 2 * self.n, rng)
                s2 = random_window_element(self.ctx, 2 * self.n, rng)
            yield None if self._image(s1) != self._image(s2) else self._pair_label(s1, s2)

    @_check("point-bijection")
    def check_point_bijection(self):
        """The point projection restricted to C_4n is a bijection.

        One case per point; a collapse is reported once, at the first
        point whose image is already taken.
        """
        images: set[int] = set()
        for i, p in enumerate(window(self.ctx, 4 * self.n).points):
            image = self.point_image(p)
            first_collapse = image in images and len(images) == i
            images.add(image)
            yield f"projection collapses C_{4 * self.n}" if first_collapse else None

    @_check("equivariance")
    def check_equivariance(self, mode: str = "exhaustive",
                           sample: int = 10**4, seed: int = 0):
        """Weak equivariance of the point projection against ball elements.

        For x in the radius-2n ball of a factor and z in C_4n, projecting
        x.z equals translating the projection of z by the projected x.
        Both quotients are injective on the radius-4n balls, so no point
        of C_4n but the basepoint projects to the basepoint.
        """
        ctx, index = self.ctx, self._point_images
        points = window(ctx, 4 * self.n).points
        rng = Random(seed)
        plans = []  # both sides are planned, and so budgeted, before any case runs
        for side, handle, q in (("g", ctx.G, self.qg), ("h", ctx.H, self.qh)):
            ball = handle.ball(2 * self.n)
            plans.append((side, q, _cases(
                mode, len(ball) * len(points), lambda ball=ball: ball,
                functools.partial(rng.choice, ball), max(1, sample // len(points)), "cases")))
        for side, q, xs in plans:
            for x in xs:
                trans = self.target.dense_translation(side, q.proj(x))
                for z in points:
                    holds = self.point_image(ctx.union.apply_factor(side, x, z)) \
                        == trans[index[z]]
                    yield None if holds else \
                        f"{side}:{format_value(x)} at {ctx.union.format_point(z)}"

    @_check("pushforward")
    def check_pushforward(self, mode: str = "exhaustive",
                          sample: int = 10**4, seed: int = 0):
        """phi pushes a residual forward along the point projection.

        For every residual a supported in C_2n and every y in C_4n, phi
        of (e, e, a) sends the projection of y to the projection of a(y).
        With both factor parts trivial the outer translation is the
        identity, so this checks the map phi runs on its residual alone.
        """
        ctx, index = self.ctx, self._point_images
        w2 = window(ctx, 2 * self.n)
        pts2 = w2.points
        pts4 = window(ctx, 4 * self.n).points
        c = len(pts2)
        rng = Random(seed)

        def verify(sigma: tuple[int, ...]) -> bool:
            a = FinPerm._trusted({p: pts2[j] for p, j in zip(pts2, sigma) if p != pts2[j]})
            pushed = self._image(PvElement(ctx.G.identity, ctx.H.identity, a))
            return all(pushed[index[y]] == index[a(y)] for y in pts4)

        def shuffled() -> tuple[int, ...]:
            sigma = list(range(c))
            rng.shuffle(sigma)
            return tuple(sigma)

        for sigma in _cases(mode, math.factorial(c), lambda: itertools.permutations(range(c)),
                            shuffled, sample, "residuals"):
            if not w2.even or not parity_dense(sigma):
                yield None if verify(sigma) else f"residual {sigma}"

