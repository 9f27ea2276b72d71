"""Elements of the glued product in canonical normal form.

An element is a triple ``(g, h, a)`` acting on the pointed union as the
permutation g o h o a (``a`` first).  One rule per side makes the triple
unique per group element: an infinite factor is kept as its part, and a
finite factor is absorbed into the finitely supported residual ``a``, so
its part is always e.  With both factors finite the element is
(e, e, a), the permutation of the finite union itself.  Odd residuals
are elements exactly when an absorbed factor has an odd translation.

The ground truth for every identity is the action on points; the closed
product law below is cross-checked against it when a context is built
with ``check=True``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Optional

from .errors import (
    BudgetError,
    GluedError,
    GroupSpecError,
    MembershipError,
    RegimeError,
    WordParseError,
)
from .finite import has_cyclic_two_sylow
from .groups import Element, GroupHandle, format_value
from .pointed import BASE, FinPerm, Point, PointedUnion, carry_parity, compose_left, three_cycle

ORDER_CAP = 10**9  # the largest element order computed
EMBED_SAMPLES = 24  # ball elements drawn to test each factor map
EMBED_SEED = 0

Letter = tuple[str, object]  # ("G", x) | ("H", y) | ("PERM", FinPerm); x, y literals or values

_WORD_TOKEN = re.compile(r"\s*(?:PERM:((?:\([^()]*\))+)|([GH]):(\S+))")
_SPACES = re.compile(r"\s*")


@dataclass(frozen=True, slots=True, init=False)
class PvElement:
    """Normal form (g, h, a) of a glued-product element.

    The factor parts are element values of the owning context's
    handles.  Equality and hashing are triple equality, which is element
    equality under the canonical-form conventions of the owning context.
    """

    g: Element
    h: Element
    a: FinPerm

    def __init__(self, g: Element, h: Element, a: FinPerm):
        # the slot descriptors set the fields past the frozen __setattr__,
        # at a third of the cost of object.__setattr__
        _set_g(self, g)
        _set_h(self, h)
        _set_a(self, a)


_set_g, _set_h, _set_a = PvElement.g.__set__, PvElement.h.__set__, PvElement.a.__set__


class PvContext:
    """A glued product of two nontrivial factor groups."""

    def __init__(self, G: GroupHandle, H: GroupHandle, *,
                 check: bool = False):
        if G.order() == 1 or H.order() == 1:
            # G glued with 1 is G acting regularly: it has no residual
            raise GroupSpecError("the glued product needs nontrivial factors")
        self.G = G
        self.H = H
        self.union = PointedUnion(G, H)
        self.check = check
        # the per-side rule: an infinite factor is kept as its part, a finite
        # one absorbed into the residual; odd residuals are elements exactly
        # when an absorbed factor has an odd translation
        self.g_kept, self.h_kept = not G.is_finite, not H.is_finite
        self.mixed_symmetric = has_cyclic_two_sylow(G) or has_cyclic_two_sylow(H)
        self.identity = PvElement(G.identity, H.identity, FinPerm.identity())

    def __repr__(self):
        return f"PvContext({self.G!r}, {self.H!r})"

    # ------------------------------------------------------------------
    # constructors

    def _check_residual(self, a: FinPerm) -> FinPerm:
        """Refuse a residual that is not an element; return it otherwise."""
        if not self.mixed_symmetric and not a.is_even():
            if self.g_kept and self.h_kept:
                raise MembershipError("an odd finitely supported permutation is not an "
                                      "element of the product of two infinite factors")
            finite = ("the finite factor has no" if self.g_kept or self.h_kept
                      else "neither finite factor has a")
            raise MembershipError(f"odd residual rejected: {finite} nontrivial cyclic "
                                  "2-Sylow, so residuals are even")
        for (side, x), _ in a.items():
            if side == "e":
                continue
            handle = self.G if side == "g" else self.H
            if not handle.is_canonical(x) or x == handle.identity:
                raise MembershipError(
                    f"support point {Point(side, x)} is not a canonical non-identity element"
                )
        return a

    def element(self, g=None, h=None, a: FinPerm = None) -> PvElement:
        """The element g o h o a of its parts (literals or values), validated
        and normalised as the word of those letters, so an absorbed part is
        moved into the residual past the parts to its right."""
        letters = (("G", g), ("H", h), ("PERM", a))
        return self.normalize([(kind, x) for kind, x in letters if x is not None])

    def from_g(self, x) -> PvElement:
        """The element of a G literal or value."""
        return self._g_element(self.G.parse(x))

    def _g_element(self, x: Element) -> PvElement:
        if self.g_kept:
            return PvElement(x, self.H.identity, FinPerm.identity())
        return PvElement(self.G.identity, self.H.identity, self.union.translation("g", x))

    def from_h(self, y) -> PvElement:
        """The element of an H literal or value."""
        return self._h_element(self.H.parse(y))

    def _h_element(self, y: Element) -> PvElement:
        if self.h_kept:
            return PvElement(self.G.identity, y, FinPerm.identity())
        return PvElement(self.G.identity, self.H.identity, self.union.translation("h", y))

    def from_perm(self, a: FinPerm) -> PvElement:
        self._check_residual(a)
        return PvElement(self.G.identity, self.H.identity, a)

    # ------------------------------------------------------------------
    # the action (ground truth)

    def act(self, s: PvElement, p: Point) -> Point:
        """Image of a point: residual first, then the H part, then the G part."""
        q = s.a(p)
        if s.h != self.H.identity:
            q = self.union.apply_factor("h", s.h, q)
        if s.g != self.G.identity:
            q = self.union.apply_factor("g", s.g, q)
        return q

    # ------------------------------------------------------------------
    # product law

    def multiply(self, s1: PvElement, s2: PvElement) -> PvElement:
        """Canonical form of the product s1 * s2: the product formula.

        With T_x the translation by a factor value x, s1 * s2 acts as
        T_g1 T_h1 a1 T_g2 T_h2 a2 = T_g1g2 T_h1h2 c (t a1 t^-1) a2, where
        t = T_h2^-1 T_g2^-1 transports the first residual and c is the
        commutator 3-cycle (e h1^-1 g2^-1) of h1 past g2, moved by
        h2^-1.  So s2's residual is copied once, mapping and inverse,
        and the transported a1 and then c are composed onto that copy
        in place, from the left: each step patches only its own few
        points.  Identity parts cost nothing: no group operation runs
        on them and no translation applies them.  The product's residual
        carries its parity when both residuals know theirs
        (``carry_parity``): conjugation keeps the cycle type and c is a
        3-cycle, so a is even exactly when a1 and a2 have the same parity.
        """
        G, H = self.G, self.H
        eg, eh = G.identity, H.identity
        g1, h1, a1 = s1.g, s1.h, s1.a
        g2, h2, a2 = s2.g, s2.h, s2.a
        g = g2 if g1 == eg else g1 if g2 == eg else G.mul(g1, g2)
        h = h2 if h1 == eh else h1 if h2 == eh else H.mul(h1, h2)

        commutes = h1 == eh or g2 == eg
        a = a2
        if a1 or not commutes:
            g2i = G.inv(g2) if g2 != eg else None
            h2i = H.inv(h2) if h2 != eh else None
            moved, inv = a2.maps()
            if a1:
                pairs = a1.items()
                if g2i is not None or h2i is not None:
                    # each support point is translated once, and a factor
                    # part is not applied to a point of the other side,
                    # which it fixes
                    apply = self.union.apply_factor
                    image = {}
                    for p, _ in pairs:
                        q = p if g2i is None or p[0] == "h" else apply("g", g2i, p)
                        image[p] = q if h2i is None or q[0] == "g" else apply("h", h2i, q)
                    pairs = [(image[p], image[q]) for p, q in pairs]
                compose_left(moved, inv, pairs)
            if not commutes:
                self._compose_commutator(moved, inv, h1, g2i, h2i)
            a = carry_parity(FinPerm._trusted(moved, inv), a1, a2)
        out = PvElement(g, h, a)
        if self.check:
            self._verify_product(s1, s2, out)
        return out

    def _compose_commutator(self, moved: dict, inv: dict, h1, g2i, h2i) -> None:
        """Compose the 3-cycle (e h1^-1 g2^-1), moved by h2^-1 unless
        ``h2i`` is None, onto a mapping and its inverse, in place, from
        the left.  h1 and g2 are not e, so its three points differ, and
        h2^-1 fixes the g-side point."""
        e = BASE
        hp = tuple.__new__(Point, ("h", self.H.inv(h1)))
        gp = tuple.__new__(Point, ("g", g2i))
        if h2i is not None:
            apply = self.union.apply_factor
            e, hp = apply("h", h2i, e), apply("h", h2i, hp)
        compose_left(moved, inv, ((e, hp), (hp, gp), (gp, e)))

    def _verify_product(self, s1: PvElement, s2: PvElement, out: PvElement):
        """Compare ``out`` with the action of s1 then s2 at a finite probe set.

        Lemma: with the factor parts g1 g2 and h1 h2, ``out`` and s1 * s2
        act as T_g T_h a and T_g T_h a', with a' = c (t a1 t^-1) a2 as in
        ``multiply``; so they differ exactly where a and a' do, and that
        set lies in supp(a) | supp(a').  supp(a') lies in supp(a2), in
        t(supp(a1)), the transported residual's support, and in the three
        points of c: T_h2^-1(e), T_h2^-1(h:h1^-1) and g:g2^-1.  Every one
        of those is a probe, so a wrong residual is caught; the points are
        tried in canonical order and the least mismatch is reported.
        """
        G, H, pu = self.G, self.H, self.union
        g2i, h2i, h1i = G.inv(s2.g), H.inv(s2.h), H.inv(s1.h)
        probes = set(s2.a.support()) | set(out.a.support())
        probes |= {pu.apply_factor("h", h2i, pu.apply_factor("g", g2i, p))
                   for p in s1.a.support()}
        probes |= {pu.h_point(h2i), pu.h_point(H.mul(h2i, h1i)), pu.g_point(g2i)}
        for p in pu.sorted_points(probes):
            if self.act(out, p) != self.act(s1, self.act(s2, p)):
                raise GluedError(
                    f"product law mismatch at {pu.format_point(p)} for "
                    f"{self.format_element(s1)} * {self.format_element(s2)}"
                )

    def invert(self, s: PvElement) -> PvElement:
        """Normalise a^-1 h^-1 g^-1 by multiplying the letter blocks.

        The blocks are parts of a valid element, so they are built
        without validation; an absorbed part is e.
        """
        eg, eh, e = self.G.identity, self.H.identity, FinPerm.identity()
        out = PvElement(eg, eh, s.a.inverse())
        if s.h != eh:
            out = self.multiply(out, PvElement(eg, self.H.inv(s.h), e))
        if s.g != eg:
            out = self.multiply(out, PvElement(self.G.inv(s.g), eh, e))
        return out

    def normalize(self, word: Iterable[Letter]) -> PvElement:
        """Normal form of the product of a word of letters, one product-law
        step per syllable.

        Syllable lemma: x -> T_x is a homomorphism on each factor, so a run
        of G letters x1 ... xk acts as the one letter x1 ... xk, a run of H
        letters likewise, and a run of PERM letters as their composite.
        Each letter is parsed and validated on its own, left to right, and
        only then merged into its run, so the first bad letter is the one
        reported even when its run's product would be valid.  Each maximal
        run becomes one syllable, multiplied inside its factor or composed.

        The syllables are folded from the right.  ``multiply(s1, s2)``
        transports ``s1.a`` through the factor parts of ``s2`` point by
        point but only copies ``s2.a``; with the single syllable on the
        left, each step moves at most that syllable's few residual points
        instead of the whole accumulated residual, so a word of L letters
        costs O(L) group operations, not O(L^2).  The normal form is
        canonical, so the result equals the letter-by-letter fold.
        """
        G, H = self.G, self.H
        parse = {"G": G.parse, "H": H.parse, "PERM": self._check_residual}
        merge = {"G": G.mul, "H": H.mul, "PERM": FinPerm.compose}
        syllables = []
        last = [None, None]  # the open syllable: [kind, value]
        for kind, value in word:
            step = parse.get(kind)
            if step is None:
                raise WordParseError(f"unknown letter kind {kind!r}")
            x = step(value)
            if kind == last[0]:
                last[1] = merge[kind](last[1], x)
            else:
                last = [kind, x]
                syllables.append(last)
        eg, eh, e = G.identity, H.identity, FinPerm.identity()
        g_kept = self.g_kept
        out = self.identity
        for kind, x in reversed(syllables):
            if kind == "G":
                syllable = PvElement(x, eh, e) if g_kept else self._g_element(x)
            elif kind == "H":
                syllable = self._h_element(x)
            else:
                syllable = PvElement(eg, eh, x)
            out = self.multiply(syllable, out)
        return out

    # ------------------------------------------------------------------
    # structure maps

    def commutator(self, g, h) -> PvElement:
        """[g, h] = g h g^-1 h^-1; the 3-cycle (e g h) when both are nontrivial."""
        g = self.G.parse(g)
        h = self.H.parse(h)
        if g == self.G.identity or h == self.H.identity:
            return self.identity
        cyc = three_cycle(BASE, Point("g", g), Point("h", h))
        return PvElement(self.G.identity, self.H.identity, cyc)

    def project(self, s: PvElement) -> tuple:
        """The canonical epimorphism onto G x H (both factors infinite)."""
        g = self.project_g(s)
        if not self.h_kept:
            raise RegimeError("the H-projection is undefined when H is finite; use project_g")
        return (g, s.h)

    def project_g(self, s: PvElement):
        """The canonical epimorphism onto G (an infinite factor)."""
        if not self.g_kept:
            raise RegimeError("the G-projection is undefined when G is finite")
        return s.g

    def in_monolith(self, s: PvElement) -> bool:
        """Membership in the minimal normal subgroup (kernel of project)."""
        if not (self.g_kept and self.h_kept):
            raise RegimeError("the monolith test requires both factors infinite")
        return s.g == self.G.identity and s.h == self.H.identity

    def element_order(self, s: PvElement) -> Optional[int]:
        """Exact order of an element, None when infinite.

        s -> (g, h) is a homomorphism onto the kept factors, which are
        torsion-free, and an absorbed part is e, so an element has finite
        order exactly when its kept parts are trivial, and then it is its
        residual's order.  Raises BudgetError over ``ORDER_CAP``.
        """
        if s.g != self.G.identity or s.h != self.H.identity:
            return None
        order = s.a.order()
        if order > ORDER_CAP:
            raise BudgetError(f"element order exceeds cap {ORDER_CAP}")
        return order

    def stabilizer_lift(self, h, h_prime) -> PvElement:
        """A lift of h fixing every point of the G side.

        Multiplies the 3-cycle through the basepoint by h itself, so the
        result projects to (e, h) but moves no point of the G copy.
        """
        h = self.H.parse(h)
        h_prime = self.H.parse(h_prime)
        if h == self.H.identity:
            raise WordParseError("h must be nontrivial")
        if h_prime in (self.H.identity, h):
            raise WordParseError("h' must differ from both h and the identity")
        sigma = three_cycle(Point("h", h), BASE, Point("h", h_prime))
        return self.multiply(self.from_perm(sigma), self.from_h(h))

    # ------------------------------------------------------------------
    # word and element text forms

    def parse_word(self, text: str) -> list[Letter]:
        """The letters of a word: ("G" | "H", literal) or ("PERM", FinPerm)."""
        letters: list[Letter] = []
        pos = 0
        while True:
            m = _WORD_TOKEN.match(text, pos)
            if m is None:
                pos = _SPACES.match(text, pos).end()
                if pos == len(text):
                    return letters
                raise WordParseError(f"bad word at position {pos}: {text[pos:]!r}")
            perm, side, literal = m.groups()
            letters.append(("PERM", self.union.parse_perm(perm)) if perm else (side, literal))
            pos = m.end()

    def eval_word(self, text: str) -> PvElement:
        return self.normalize(self.parse_word(text))

    def format_element(self, s: PvElement) -> str:
        return f"g={format_value(s.g)} h={format_value(s.h)} a={self.union.format_perm(s.a)}"


def embed(source: PvContext, target: PvContext,
          g_map: Callable, h_map: Callable, s: PvElement) -> PvElement:
    """Push an element along factor inclusions K -> G, L -> H.

    Both source factors must be infinite; the maps take element values
    to literals or values of the target, and are checked to be injective
    homomorphisms on ``EMBED_SAMPLES`` seeded draws from their radius-2
    balls before relabelling the normal form.  The result satisfies
    embed(xy) = embed(x)embed(y).
    """
    if not (source.g_kept and source.h_kept):
        raise RegimeError("embedding is only canonical for infinite source factors")
    rng = Random(EMBED_SEED)
    for handle, mapping, tgt in ((source.G, g_map, target.G),
                                 (source.H, h_map, target.H)):
        pool = handle.ball(2)
        picks = [pool[rng.randrange(len(pool))] for _ in range(EMBED_SAMPLES)]
        if tgt.parse(mapping(handle.identity)) != tgt.identity:
            raise MembershipError("factor map does not preserve the identity")
        images = {}
        for x in picks:
            fx = tgt.parse(mapping(x))
            if images.setdefault(x, fx) != fx:
                raise MembershipError("factor map is not a function")
        for x, y in zip(picks, reversed(picks)):
            if tgt.parse(mapping(handle.mul(x, y))) != tgt.mul(images[x], images[y]):
                raise MembershipError("factor map is not a homomorphism on samples")
        if len(set(images.values())) != len(set(picks)):
            raise MembershipError("factor map is not injective on samples")

    def relabel(p: Point) -> Point:
        if p.side == "e":
            return BASE
        if p.side == "g":
            return target.union.g_point(target.G.parse(g_map(p.payload)))
        return target.union.h_point(target.H.parse(h_map(p.payload)))

    a = FinPerm({relabel(p): relabel(q) for p, q in s.a.moved.items()})
    return target.element(g=g_map(s.g), h=h_map(s.h), a=a)
