"""The pointed union of two factor groups and its finitely supported permutations.

Points carry a side tag: ``'e'`` for the shared basepoint, ``'g'`` or
``'h'`` for a non-identity element value of the respective factor.  The
factor identities are always represented by the basepoint, which is what
glues the two copies together.
"""

from __future__ import annotations

import re
from functools import cached_property
from random import Random
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import WordParseError
from .groups import DensePerm, Element, GroupHandle, format_value, parity_dense


class Point(NamedTuple):
    """A point as a plain tuple, so hashing and equality run at C level.

    Hot paths build points with ``tuple.__new__(Point, (side, x))``,
    which skips the Python-level constructor.
    """

    side: str  # 'e', 'g' or 'h'
    payload: Element  # the element value; "" for the basepoint

    def __str__(self) -> str:
        """The text form: ``e`` for the basepoint, else ``side:payload``."""
        side, x = self
        return "e" if side == "e" else f"{side}:{format_value(x)}"


BASE = Point("e", "")


class FinPerm:
    """A finitely supported permutation of the pointed union.

    Only non-fixed points are stored; the identity is the empty mapping.
    Instances are immutable and hashable; the hash and the parity are
    computed on first use, since most intermediate products need neither.
    The inverse mapping is carried along: ``compose`` patches it as it
    patches the forward one, and ``inverse`` swaps the two.  A trusted
    perm built without it computes it on first use.
    """

    __slots__ = ("_moved", "_inv", "_hash", "_even")

    def __init__(self, moved: Mapping[Point, Point]):
        cleaned = {p: q for p, q in moved.items() if p != q}
        inv = {q: p for p, q in cleaned.items()}
        if inv.keys() != cleaned.keys():
            raise WordParseError("mapping is not a permutation of its support")
        self._moved = cleaned
        self._inv = inv
        self._hash = None
        self._even = None

    @classmethod
    def _trusted(cls, cleaned: dict[Point, Point],
                 inv: Optional[dict[Point, Point]] = None) -> "FinPerm":
        out = object.__new__(cls)
        out._moved = cleaned
        out._inv = inv
        out._hash = None
        out._even = None
        return out

    def _inverse_map(self) -> dict[Point, Point]:
        inv = self._inv
        if inv is None:
            inv = self._inv = dict(zip(self._moved.values(), self._moved.keys()))
        return inv

    @classmethod
    def identity(cls) -> "FinPerm":
        return _IDENTITY

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[Point]]) -> "FinPerm":
        """The product of disjoint cycles, its inverse and its parity built
        in one pass over the points; a 1-cycle claims its point and fixes it."""
        moved: dict[Point, Point] = {}
        inv: dict[Point, Point] = {}
        fixed = []
        flips = 0
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                text = " ".join(map(str, cycle))
                raise WordParseError(f"repeated point in cycle ({text})")
            for p, q in zip(cycle, (*cycle[1:], *cycle[:1])):
                if p in moved:
                    raise WordParseError(f"point {p} appears in two cycles")
                moved[p] = q
                inv[q] = p
            if len(cycle) > 1:
                # the cycles are disjoint: each of length k is k - 1 transpositions
                flips += len(cycle) - 1
            elif cycle:
                fixed.append(cycle[0])
        for p in fixed:
            del moved[p], inv[p]
        out = cls._trusted(moved, inv)
        out._even = flips % 2 == 0
        return out

    @property
    def moved(self) -> dict[Point, Point]:
        return dict(self._moved)

    def maps(self) -> tuple[dict[Point, Point], dict[Point, Point]]:
        """Fresh copies of the mapping and its inverse, to compose onto in
        place with ``compose_left``."""
        return dict(self._moved), dict(self._inverse_map())

    def items(self):
        """Iterate over (point, image) pairs of the support."""
        return self._moved.items()

    def __call__(self, p: Point) -> Point:
        return self._moved.get(p, p)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinPerm) and self._moved == other._moved

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._moved.items()))
        return self._hash

    def __bool__(self) -> bool:
        return bool(self._moved)

    def __repr__(self):
        if not self._moved:
            return "FinPerm(identity)"
        pairs = ", ".join(f"{p}->{q}" for p, q in sorted(self._moved.items()))
        return f"FinPerm({pairs})"

    def support(self) -> frozenset[Point]:
        return frozenset(self._moved)

    def compose(self, other: "FinPerm") -> "FinPerm":
        """(self o other): apply ``other`` first, then ``self``.

        Copies the larger operand's mappings and composes the smaller one
        onto them in place (``compose_left``), so the Python work is
        O(support of the smaller operand) plus C-level dict copies.  A
        larger ``self`` is composed onto through the inverses:
        self o other = (other^-1 o self^-1)^-1.
        """
        outer, inner = self._moved, other._moved
        if not inner:
            return self
        if not outer:
            return other
        if len(outer) >= len(inner):
            moved, inv = self.maps()
            compose_left(inv, moved, zip(inner.values(), inner))
        else:
            moved, inv = other.maps()
            compose_left(moved, inv, outer.items())
        return FinPerm._trusted(moved, inv)

    def inverse(self) -> "FinPerm":
        if not self._moved:
            return self
        out = FinPerm._trusted(self._inverse_map(), self._moved)
        out._even = self._even
        return out

    def cycles(self) -> list[tuple[Point, ...]]:
        """Cycle decomposition of the support, in traversal order."""
        seen: set[Point] = set()
        out = []
        for start in self._moved:
            if start in seen:
                continue
            cycle = [start]
            seen.add(start)
            p = self._moved[start]
            while p != start:
                cycle.append(p)
                seen.add(p)
                p = self._moved[p]
            out.append(tuple(cycle))
        return out

    def is_even(self) -> bool:
        """Parity via the cycle decomposition: sum of (length - 1)."""
        if self._even is None:
            self._even = sum(len(c) - 1 for c in self.cycles()) % 2 == 0
        return self._even

    def order(self) -> int:
        from math import lcm

        return lcm(*(len(c) for c in self.cycles())) if self._moved else 1


_IDENTITY = FinPerm._trusted({}, {})


def compose_left(moved: dict[Point, Point], inv: dict[Point, Point],
                 pairs: Iterable[tuple[Point, Point]]) -> None:
    """Turn a mapping m and its inverse, in place, into sigma o m and its
    inverse, where ``pairs`` are the (x, sigma(x)) of sigma's support.

    Only the preimages under m of supp(sigma) change: p = m^-1(x) now
    maps to r = sigma(x), and r's preimage is p.  All of them are read
    before the first patch, so no patched entry is read back.
    """
    for p, r in [(inv.get(x, x), r) for x, r in pairs]:
        if r == p:
            moved.pop(p, None)
            inv.pop(p, None)
        else:
            moved[p] = r
            inv[r] = p


def three_cycle(p: Point, q: Point, r: Point) -> FinPerm:
    """The permutation p -> q -> r -> p fixing everything else."""
    if len({p, q, r}) != 3:
        raise WordParseError(f"three_cycle needs distinct points, got {p}, {q}, {r}")
    return FinPerm._trusted({p: q, q: r, r: p}, {q: p, r: q, p: r})


def transposition(p: Point, q: Point) -> FinPerm:
    if p == q:
        raise WordParseError("transposition needs two distinct points")
    swap = {p: q, q: p}
    return FinPerm._trusted(swap, dict(swap))


def side_points(handle: GroupHandle, side: str,
                radius: Optional[int] = None) -> tuple[Point, ...]:
    """The non-basepoint points of one side in canonical order: those of
    the radius ball, or of the whole finite side when ``radius`` is None."""
    elements = handle.elements() if radius is None else handle.ball(radius)
    return tuple(Point(side, x) for x in elements if x != handle.identity)


def random_perm(points: Sequence[Point], rng: Random, even: bool) -> FinPerm:
    """A shuffle of ``points``; when ``even`` and the shuffle is odd, its
    first two images are swapped.

    The positions are shuffled, so the parity is that of the index
    permutation and no point cycle is counted.
    """
    order = list(range(len(points)))
    rng.shuffle(order)
    if even and parity_dense(order):
        order[0], order[1] = order[1], order[0]
    perm = FinPerm._trusted({points[i]: points[j] for i, j in enumerate(order) if i != j})
    if even:
        perm._even = True
    return perm


_PERM_RE = re.compile(r"(\s*\([^()]*\)\s*)*")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class PointedUnion:
    """The pointed set of both factors with the identified basepoint.

    Provides point constructors (which collapse factor identities to the
    basepoint), the regular-on-own-side/trivial-elsewhere factor action,
    a canonical total point order, the text forms for points and
    finitely supported permutations, and, for two finite factors, the
    dense numbering of the points.
    """

    def __init__(self, G: GroupHandle, H: GroupHandle):
        self.G = G
        self.H = H
        self._sides = {"g": G, "h": H}
        self._translations: dict[tuple[str, Element], FinPerm] = {}
        self._dense_translations: dict[tuple[str, Element], DensePerm] = {}

    def handle(self, side: str) -> GroupHandle:
        handle = self._sides.get(side)
        if handle is None:
            raise WordParseError(f"side must be 'g' or 'h', got {side!r}")
        return handle

    def point(self, side: str, x: Element) -> Point:
        """The point of the value ``x`` on the given side; the identity is BASE."""
        if x == self.handle(side).identity:
            return BASE
        return tuple.__new__(Point, (side, x))

    def g_point(self, x: Element) -> Point:
        return self.point("g", x)

    def h_point(self, x: Element) -> Point:
        return self.point("h", x)

    def apply_factor(self, side: str, x: Element, p: Point) -> Point:
        """Left multiplication by ``x`` on its own side, trivial elsewhere."""
        handle = self._sides.get(side) or self.handle(side)
        if p[0] == side:
            y = handle.mul(x, p[1])
        elif p[0] == "e":
            y = x
        else:
            return p
        return BASE if y == handle.identity else tuple.__new__(Point, (side, y))

    def translation(self, side: str, x: Element) -> FinPerm:
        """Left translation by ``x`` as a finitely supported permutation.

        Only defined when the factor is finite (otherwise the support
        would be the whole side).  Each translation is built once and
        kept with the union, so there are at most |G| + |H| of them.
        """
        cached = self._translations.get((side, x))
        if cached is not None:
            return cached
        handle = self.handle(side)
        if not handle.is_finite:
            raise WordParseError(
                f"translation by an element of infinite {handle!r} is not finitely supported"
            )
        points = {y: self.point(side, y) for y in handle.elements()}
        moved, inv = {}, {}
        for y, p in points.items():
            q = points[handle.mul(x, y)]
            if p != q:
                moved[p] = q
                inv[q] = p
        cached = self._translations[side, x] = FinPerm._trusted(moved, inv)
        return cached

    def dense_translation(self, side: str, x: Element) -> DensePerm:
        """``dense(translation(side, x))`` of a finite union, built straight
        from the positions of the side's elements and kept with the union."""
        cached = self._dense_translations.get((side, x))
        if cached is None:
            mul, position = self.handle(side).mul, self.positions[side]
            images = list(range(self.G.order() + self.H.order() - 1))
            for y, i in position.items():
                images[i] = position[mul(x, y)]
            cached = self._dense_translations[side, x] = tuple(images)
        return cached

    @cached_property
    def positions(self) -> dict[str, dict[Element, int]]:
        """The position in ``points`` of each element's point, per side, read
        off its enumeration: the identity 0, G's k-th element k, H's |G| - 1 + k."""
        g, h = self.G.elements(), self.H.elements()
        return {"g": {x: k for k, x in enumerate(g)},
                "h": {y: k + len(g) - 1 if k else 0 for k, y in enumerate(h)}}

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """All points of a finite union in dense order: the basepoint, then
        the G side, then the H side, each in canonical order."""
        return (BASE,) + side_points(self.G, "g") + side_points(self.H, "h")

    def position(self, p: Point) -> int:
        """The position of ``p`` in ``points``."""
        side, x = p
        return 0 if side == "e" else self.positions[side][x]

    def dense(self, a: FinPerm) -> DensePerm:
        """``a`` as the tuple of image positions over ``points``."""
        position = self.position
        images = list(range(self.G.order() + self.H.order() - 1))
        for p, q in a.items():
            images[position(p)] = position(q)
        return tuple(images)

    def sort_key(self, p: Point):
        """Canonical total order: basepoint, then the G side, then the H side."""
        side, x = p
        if side == "e":
            return (0, ())
        return (1 if side == "g" else 2, self._sides[side].sort_key(x))

    def sorted_points(self, points: Iterable[Point]) -> list[Point]:
        return sorted(points, key=self.sort_key)

    def enumerate_side(self, side: str) -> Iterable[Point]:
        """Non-basepoint points of one side in canonical order."""
        handle = self.handle(side)
        return (Point(side, x) for x in handle.enumerate_elements() if x != handle.identity)

    # ------------------------------------------------------------------
    # text forms

    def format_point(self, p: Point) -> str:
        return str(p)

    def parse_point(self, text: str) -> Point:
        """The point of a literal ``e`` or ``side:payload``; the payload is
        parsed once, by its side's handle."""
        text = text.strip()
        if text == "e":
            return BASE
        if len(text) < 3 or text[1] != ":" or text[0] not in "gh" or "\n" in text:
            raise WordParseError(f"bad point literal {text!r}")
        side = text[0]
        handle = self._sides[side]
        x = handle.parse(text[2:])
        return BASE if x == handle.identity else tuple.__new__(Point, (side, x))

    def format_perm(self, a: FinPerm) -> str:
        """Cycle text: each cycle from its least point, cycles by their least point."""
        if not a:
            return "()"
        key = self.sort_key
        cycles = []
        for cycle in a.cycles():
            keys = list(map(key, cycle))
            pivot = keys.index(min(keys))
            cycles.append((keys[pivot], cycle[pivot:] + cycle[:pivot]))
        cycles.sort(key=lambda kc: kc[0])
        return "".join("(" + " ".join(map(str, cycle)) + ")" for _, cycle in cycles)

    def parse_perm(self, text: str) -> FinPerm:
        text = text.strip()
        if not _PERM_RE.fullmatch(text):
            raise WordParseError(f"bad permutation literal {text!r}")
        cycles = []
        for chunk in _CYCLE_RE.findall(text):
            items = chunk.split()
            if items:
                cycles.append([self.parse_point(t) for t in items])
        return FinPerm.from_cycles(cycles)
