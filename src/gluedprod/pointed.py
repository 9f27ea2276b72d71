"""The pointed union of two factor groups and its finitely supported permutations.

Points carry a side tag: ``'e'`` for the shared basepoint, ``'g'`` or
``'h'`` for a non-identity element of the respective factor.  The factor
identities are always represented by the basepoint, which is what glues
the two copies together.
"""

from __future__ import annotations

import re
from functools import cached_property
from random import Random
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .errors import WordParseError
from .groups import DensePerm, GroupHandle


class Point(NamedTuple):
    side: str  # 'e', 'g' or 'h'
    payload: str  # canonical element string; "" for the basepoint

    def __str__(self) -> str:
        """The text form: ``e`` for the basepoint, else ``side:payload``."""
        return "e" if self.side == "e" else f"{self.side}:{self.payload}"


BASE = Point("e", "")


class FinPerm:
    """A finitely supported permutation of the pointed union.

    Only non-fixed points are stored; the identity is the empty mapping.
    Instances are immutable and hashable; the hash and the parity are
    computed on first use, since most intermediate products need neither.
    """

    __slots__ = ("_moved", "_hash", "_even")

    def __init__(self, moved: Mapping[Point, Point]):
        cleaned = {p: q for p, q in moved.items() if p != q}
        if set(cleaned.values()) != set(cleaned):
            raise WordParseError("mapping is not a permutation of its support")
        self._moved = cleaned
        self._hash = None
        self._even = None

    @classmethod
    def _trusted(cls, cleaned: dict[Point, Point]) -> "FinPerm":
        out = object.__new__(cls)
        out._moved = cleaned
        out._hash = None
        out._even = None
        return out

    @classmethod
    def identity(cls) -> "FinPerm":
        return _IDENTITY

    @classmethod
    def from_cycles(cls, cycles: Iterable[Sequence[Point]]) -> "FinPerm":
        moved: dict[Point, Point] = {}
        for cycle in cycles:
            if len(set(cycle)) != len(cycle):
                text = " ".join(map(str, cycle))
                raise WordParseError(f"repeated point in cycle ({text})")
            for p, q in zip(cycle, list(cycle[1:]) + list(cycle[:1])):
                if p in moved:
                    raise WordParseError(f"point {p} appears in two cycles")
                moved[p] = q
        return cls(moved)

    @property
    def moved(self) -> dict[Point, Point]:
        return dict(self._moved)

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

        Copies the larger operand's mapping and patches only the points
        the smaller one touches, so the Python work is O(support of the
        smaller operand) plus C-level dict copies.  Reads go to the
        unpatched operands: a patched entry must not be read back.
        """
        outer, inner = self._moved, other._moved
        if not inner:
            return self
        if not outer:
            return other
        if len(outer) >= len(inner):
            # p in supp(inner) maps to outer(inner(p)); elsewhere to outer(p)
            moved = dict(outer)
            patches = ((p, outer.get(q, q)) for p, q in inner.items())
        else:
            # only the preimages under inner of supp(outer) change: inner^-1(x) -> outer(x)
            preimage = dict(zip(inner.values(), inner.keys()))
            moved = dict(inner)
            patches = ((preimage.get(x, x), r) for x, r in outer.items())
        for p, r in patches:
            if r == p:
                moved.pop(p, None)
            else:
                moved[p] = r
        return FinPerm._trusted(moved)

    def inverse(self) -> "FinPerm":
        if not self._moved:
            return self
        return FinPerm._trusted(dict(zip(self._moved.values(), self._moved.keys())))

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


_IDENTITY = FinPerm._trusted({})


def three_cycle(p: Point, q: Point, r: Point) -> FinPerm:
    """The permutation p -> q -> r -> p fixing everything else."""
    if len({p, q, r}) != 3:
        raise WordParseError(f"three_cycle needs distinct points, got {p}, {q}, {r}")
    return FinPerm._trusted({p: q, q: r, r: p})


def transposition(p: Point, q: Point) -> FinPerm:
    if p == q:
        raise WordParseError("transposition needs two distinct points")
    return FinPerm._trusted({p: q, q: p})


def side_points(handle: GroupHandle, side: str,
                radius: Optional[int] = None) -> tuple[Point, ...]:
    """The non-basepoint points of one side in canonical order: those of
    the radius ball, or of the whole finite side when ``radius`` is None."""
    elements = handle.elements() if radius is None else handle.ball(radius)
    return tuple(Point(side, x) for x in elements if x != handle.identity)


def random_perm(points: Sequence[Point], rng: Random, even: bool) -> FinPerm:
    """A shuffle of ``points``; when ``even`` and the shuffle is odd, its
    first two images are swapped."""
    images = list(points)
    rng.shuffle(images)
    perm = FinPerm(dict(zip(points, images)))
    if even and not perm.is_even():
        images[0], images[1] = images[1], images[0]
        perm = FinPerm(dict(zip(points, images)))
    return perm


_POINT_RE = re.compile(r"^(e|[gh]:.+)$")


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

    def handle(self, side: str) -> GroupHandle:
        if side == "g":
            return self.G
        if side == "h":
            return self.H
        raise WordParseError(f"side must be 'g' or 'h', got {side!r}")

    def point(self, side: str, x: str) -> Point:
        """The point of ``x`` on the given side; the identity is BASE."""
        handle = self.handle(side)
        if x == handle.identity:
            return BASE
        return Point(side, x)

    def g_point(self, x: str) -> Point:
        return self.point("g", x)

    def h_point(self, x: str) -> Point:
        return self.point("h", x)

    def apply_factor(self, side: str, x: str, p: Point) -> Point:
        """Left multiplication by ``x`` on its own side, trivial elsewhere."""
        handle = self.handle(side)
        if p.side == side:
            return self.point(side, handle.mul(x, p.payload))
        if p.side == "e":
            return self.point(side, x)
        return p

    def translation(self, side: str, x: str) -> FinPerm:
        """Left translation by ``x`` as a finitely supported permutation.

        Only defined when the factor is finite (otherwise the support
        would be the whole side).
        """
        handle = self.handle(side)
        if not handle.is_finite:
            raise WordParseError(
                f"translation by an element of infinite {handle!r} is not finitely supported"
            )
        points = {y: self.point(side, y) for y in handle.elements()}
        images = ((p, points[handle.mul(x, y)]) for y, p in points.items())
        return FinPerm._trusted({p: q for p, q in images if p != q})

    @cached_property
    def points(self) -> tuple[Point, ...]:
        """All points of a finite union in dense order: the basepoint, then
        the G side, then the H side, each in canonical order."""
        return (BASE,) + side_points(self.G, "g") + side_points(self.H, "h")

    @cached_property
    def index(self) -> dict[Point, int]:
        """The position of each point in ``points``."""
        return {p: i for i, p in enumerate(self.points)}

    def dense(self, a: FinPerm) -> DensePerm:
        """``a`` as the tuple of image positions over ``points``."""
        index = self.index
        images = list(range(len(index)))
        for p, q in a.items():
            images[index[p]] = index[q]
        return tuple(images)

    def sort_key(self, p: Point):
        """Canonical total order: basepoint, then the G side, then the H side."""
        if p.side == "e":
            return (0, ())
        rank = 1 if p.side == "g" else 2
        return (rank, self.handle(p.side).sort_key(p.payload))

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
        text = text.strip()
        if not _POINT_RE.match(text):
            raise WordParseError(f"bad point literal {text!r}")
        if text == "e":
            return BASE
        side, payload = text.split(":", 1)
        return self.point(side, self.handle(side).parse(payload))

    def format_perm(self, a: FinPerm) -> str:
        if not a:
            return "()"
        cycles = []
        for cycle in a.cycles():
            pivot = min(range(len(cycle)), key=lambda i: self.sort_key(cycle[i]))
            cycles.append(cycle[pivot:] + cycle[:pivot])
        cycles.sort(key=lambda c: self.sort_key(c[0]))
        return "".join(
            "(" + " ".join(self.format_point(p) for p in cycle) + ")"
            for cycle in cycles
        )

    def parse_perm(self, text: str) -> FinPerm:
        text = text.strip()
        body = re.sub(r"\s+", " ", text)
        if not re.fullmatch(r"(\s*\([^()]*\)\s*)*", body):
            raise WordParseError(f"bad permutation literal {text!r}")
        cycles = []
        for chunk in re.findall(r"\(([^()]*)\)", body):
            items = chunk.split()
            if not items:
                continue
            cycles.append([self.parse_point(t) for t in items])
        return FinPerm.from_cycles(cycles)
