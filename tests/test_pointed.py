"""Points, finitely supported permutations, parity, and text forms."""

from __future__ import annotations

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    CyclicGroup,
    FinPerm,
    IntegersGroup,
    Point,
    PointedUnion,
    PvContext,
    WordParseError,
    three_cycle,
    transposition,
)
from gluedprod.lef import window, window_element
from gluedprod.pointed import random_perm
from gluedprod.sampling import points as random_points


@pytest.fixture
def pu():
    return PointedUnion(IntegersGroup(), IntegersGroup())


def test_point_constructors_collapse_identity(pu):
    assert pu.g_point(0) == BASE
    assert pu.h_point(0) == BASE
    assert pu.g_point(3) == Point("g", 3)
    assert pu.g_point(3) != pu.h_point(3)


def test_apply_factor_examples(pu):
    # regular action on the basepoint
    assert pu.apply_factor("g", 1, BASE) == Point("g", 1)
    # trivially elsewhere: the other side is fixed
    assert pu.apply_factor("h", 1, Point("g", 5)) == Point("g", 5)
    # products collapsing to the identity return the basepoint
    assert pu.apply_factor("g", -3, Point("g", 3)) == BASE


def test_apply_factor_inverse_roundtrip(pu):
    rng = Random(5)
    for p in random_points(pu, rng, 100):
        for side in "gh":
            x = rng.randint(-6, 6)
            xi = -x
            q = pu.apply_factor(side, xi, pu.apply_factor(side, x, p))
            assert q == p


def test_identity_and_compose(pu):
    ident = FinPerm.identity()
    cyc = three_cycle(BASE, Point("g", "1"), Point("h", "1"))
    assert ident.compose(cyc) == cyc
    assert cyc.compose(ident) == cyc
    assert cyc.compose(cyc).compose(cyc) == ident


def test_compose_transpositions_gives_three_cycle(pu):
    # evaluated on the three points: (e g454) after (g454 h7) cycles e -> g -> h -> e
    a = transposition(BASE, Point("g", "454"))
    b = transposition(Point("g", "454"), Point("h", "7"))
    c = a.compose(b)
    assert c(BASE) == Point("g", "454")
    assert c(Point("g", "454")) == Point("h", "7")
    assert c(Point("h", "7")) == BASE
    assert c == three_cycle(BASE, Point("g", "454"), Point("h", "7"))


def test_parity():
    assert FinPerm.identity().is_even()
    assert not transposition(BASE, Point("g", "1")).is_even()
    assert three_cycle(BASE, Point("g", "1"), Point("h", "1")).is_even()


def test_three_cycle_rotation_invariance():
    p, q, r = BASE, Point("g", "2"), Point("h", "1")
    assert three_cycle(p, q, r) == three_cycle(q, r, p) == three_cycle(r, p, q)
    with pytest.raises(WordParseError):
        three_cycle(p, q, q)


def test_no_fixed_points_stored():
    perm = FinPerm({Point("g", "1"): Point("g", "1"), BASE: Point("h", "1"),
                    Point("h", "1"): BASE})
    assert perm.support() == {BASE, Point("h", "1")}


def test_transposition_refuses_a_repeated_point():
    with pytest.raises(WordParseError, match="^transposition needs two distinct points$"):
        transposition(BASE, BASE)


def test_a_side_other_than_g_or_h_is_refused(pu):
    with pytest.raises(WordParseError, match="^side must be 'g' or 'h', got 'x'$"):
        pu.handle("x")


def test_rejects_non_permutation():
    with pytest.raises(WordParseError):
        FinPerm({BASE: Point("g", "1")})


@st.composite
def fin_perms(draw):
    span = [Point("g", str(k)) for k in (-2, -1, 1, 2)]
    span += [Point("h", str(k)) for k in (-2, -1, 1, 2)]
    span += [BASE]
    points = draw(st.permutations(span))
    size = draw(st.integers(min_value=0, max_value=len(span)))
    chosen = list(points[:size])
    images = draw(st.permutations(chosen)) if chosen else []
    return FinPerm(dict(zip(chosen, images)))


@settings(max_examples=150, deadline=None)
@given(fin_perms(), fin_perms(), fin_perms())
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=150, deadline=None)
@given(fin_perms(), fin_perms())
def test_parity_is_multiplicative(a, b):
    assert a.compose(b).is_even() == (a.is_even() == b.is_even())
    assert a.inverse().is_even() == a.is_even()
    assert a.compose(a.inverse()) == FinPerm.identity()


@settings(max_examples=100, deadline=None)
@given(fin_perms())
def test_support_closure(a):
    for p in a.support():
        assert a(p) != p
        assert a(p) in a.support()


POOL = [BASE] + [Point(side, str(k)) for side in "gh" for k in range(-6, 7) if k]


@st.composite
def deranged(draw, pool, min_size, max_size):
    """A FinPerm whose support is exactly ``min_size``..``max_size`` points of ``pool``."""
    chosen = draw(st.lists(st.sampled_from(pool), unique=True,
                           min_size=min_size, max_size=max_size))
    if len(chosen) < 2:
        return FinPerm.identity()
    # one cycle, or two when a cut leaves at least two points on each side
    cut = draw(st.sampled_from([len(chosen)] + list(range(2, len(chosen) - 1))))
    return FinPerm.from_cycles(c for c in (chosen[:cut], chosen[cut:]) if c)


@st.composite
def compose_operands(draw, shape):
    """(left, right) for ``left.compose(right)``, overlapping or disjoint."""
    pool = draw(st.permutations(POOL))
    overlap = draw(st.booleans())
    big_pool, small_pool = (pool, pool) if overlap else (pool[:16], pool[16:])
    big = draw(deranged(big_pool, 5, 14))
    small = draw(deranged(small_pool, 2, 4))
    if shape == "left-larger":
        return big, small
    if shape == "right-larger":
        return small, big
    other = draw(st.sampled_from([big, small]))
    return (FinPerm.identity(), other) if shape == "left-identity" else (other, FinPerm({}))


@pytest.mark.parametrize("shape", ["left-larger", "right-larger",
                                   "left-identity", "right-identity"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_matches_the_pointwise_definition(shape, data):
    a, b = data.draw(compose_operands(shape))
    before = (a.moved, b.moved)
    c = a.compose(b)
    pointwise = {p: a(b(p)) for p in a.support() | b.support() if a(b(p)) != p}
    assert c.moved == pointwise
    assert (a.moved, b.moved) == before
    rebuilt = FinPerm(c.moved)
    assert c == rebuilt and hash(c) == hash(rebuilt)
    for x in (a, b, c):
        assert not x.compose(x.inverse()) and not x.inverse().compose(x)


def parity_from_cycles(moved: dict) -> bool:
    """Evenness counted afresh: support size minus cycle count is even."""
    seen: set = set()
    cycles = 0
    for start in moved:
        if start not in seen:
            cycles += 1
            p = start
            while p not in seen:
                seen.add(p)
                p = moved[p]
    return (len(moved) - cycles) % 2 == 0


# windows with even (Z x Z, 9 points at n = 2) and with odd residuals (Z x Z/2, 6 points)
WINDOW_CONTEXTS = [PvContext(IntegersGroup(), IntegersGroup()),
                   PvContext(IntegersGroup(), CyclicGroup(2))]


@pytest.mark.parametrize("shape", ["left-larger", "right-larger",
                                   "left-identity", "right-identity"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_cached_parity_matches_the_cycle_count(shape, data):
    """The parity stored on first use belongs to its own object: products
    (including an operand returned by the identity shortcut), inverses, the
    identity and trusted perms all report their own cycle parity, twice.
    So does the parity set at construction on decoded window residuals
    and on even shuffles, and a product of those carries none until asked."""
    a, b = data.draw(compose_operands(shape))
    if data.draw(st.booleans()):
        a.is_even(), b.is_even()  # warm the operands' caches first
    c = a.compose(b)
    ctx = data.draw(st.sampled_from(WINDOW_CONTEXTS))
    decoded = window_element(ctx, 2, data.draw(
        st.integers(min_value=0, max_value=window(ctx, 2).size - 1))).a
    even = data.draw(st.booleans())
    shuffled = random_perm(data.draw(st.lists(st.sampled_from(POOL), unique=True, min_size=1)),
                           Random(data.draw(st.integers())), even)
    for x in (decoded, shuffled) if even else (decoded,):
        assert x._even is not None and x._even == parity_from_cycles(x.moved)
    known = decoded.compose(shuffled)
    assert known._even is None or known is decoded or known is shuffled
    for x in (c, a, b, a.inverse(), c.inverse(), FinPerm.identity(),
              FinPerm._trusted(c.moved), FinPerm(b.moved), known, known.compose(a)):
        first = x.is_even()
        assert x.is_even() == first == parity_from_cycles(x.moved)


def test_perm_text_roundtrip(pu):
    cyc = three_cycle(BASE, Point("g", 1), Point("h", 2))
    text = pu.format_perm(cyc)
    assert text == "(e g:1 h:2)"
    assert pu.parse_perm(text) == cyc
    assert pu.format_perm(FinPerm.identity()) == "()"
    assert pu.parse_perm("()") == FinPerm.identity()
    two = cyc.compose(transposition(Point("g", 5), Point("g", 7)))
    assert pu.parse_perm(pu.format_perm(two)) == two
    # whitespace-separated cycles parse too
    assert pu.parse_perm("(e g:1) (h:1 h:2)") == FinPerm.from_cycles(
        [[BASE, Point("g", 1)], [Point("h", 1), Point("h", 2)]]
    )


def test_perm_text_deterministic_under_cycle_rotation(pu):
    a = FinPerm.from_cycles([[Point("g", 1), Point("h", 1), BASE]])
    b = FinPerm.from_cycles([[BASE, Point("g", 1), Point("h", 1)]])
    assert a == b
    assert pu.format_perm(a) == pu.format_perm(b)


def test_perm_text_reads_one_sort_key_per_support_point(pu, monkeypatch):
    """Cycles by their least point, each from its least point, with the
    support sorted once."""
    a = FinPerm.from_cycles([[Point("h", 2), Point("g", -1)],
                             [Point("g", 3), BASE, Point("h", -4)],
                             [Point("h", 1), Point("g", 2), Point("h", -1)]])
    calls = 0
    original = PointedUnion.sort_key

    def counting(self, p):
        nonlocal calls
        calls += 1
        return original(self, p)

    monkeypatch.setattr(PointedUnion, "sort_key", counting)
    assert pu.format_perm(a) == "(e h:-4 g:3)(g:-1 h:2)(g:2 h:-1 h:1)"
    assert calls == len(a.support()) == 8


def test_translation_finite_side():
    pu = PointedUnion(IntegersGroup(), CyclicGroup(3))
    t = pu.translation("h", 1)
    assert t(BASE) == Point("h", 1)
    assert t(Point("h", 1)) == Point("h", 2)
    assert t(Point("h", 2)) == BASE
    assert t(Point("g", 4)) == Point("g", 4)
    with pytest.raises(WordParseError):
        pu.translation("g", 1)


def test_sorted_points_canonical_order(pu):
    pts = [Point("h", 2), Point("g", -1), BASE, Point("g", 1), Point("h", -2)]
    ordered = pu.sorted_points(pts)
    assert ordered[0] == BASE
    assert ordered[1:3] == [Point("g", 1), Point("g", -1)]
    assert ordered[3:] == [Point("h", 2), Point("h", -2)]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_carried_parity_is_the_cycle_parity(data):
    """compose carries the parity its operands imply, as multiply does
    (``carry_parity``): along chains of composes and inverses over operands
    whose parity is known or not, a carried parity is the cycle parity, and
    two known operands always give a product that knows its own."""
    def known(p: FinPerm) -> bool:
        return p._even is not None or p._carried is not None

    x = FinPerm.identity()
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        left, right = data.draw(compose_operands(data.draw(st.sampled_from(SHAPES))))
        if data.draw(st.booleans()):
            left = FinPerm(left.moved)  # its parity is not known yet
        y = left.compose(right)
        assert known(y) == (known(left) and known(right)) or y is left or y is right
        step = data.draw(st.sampled_from(["after", "before", "inverse", "restart"]))
        x = {"after": lambda: y.compose(x), "before": lambda: x.compose(y),
             "inverse": x.inverse, "restart": lambda: y}[step]()
        for z in (y, x):
            if z._carried is not None:
                assert z._carried == parity_from_cycles(z.moved)


def test_a_perm_run_carries_its_parity():
    """A run of PERM letters is merged by compose, so the word's residual
    knows its parity without counting it."""
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    for word in ("PERM:(g:1 g:2 g:3) PERM:(g:4 g:5 g:6)",
                 "PERM:(g:1 g:2 g:3) G:1 PERM:(g:4 g:5 g:6)"):
        assert ctx.eval_word(word).a._carried is True


def assert_carries_its_inverse(x: FinPerm):
    """The stored inverse is the swapped mapping, and undoes x from both sides."""
    assert x._inv is not None
    assert x._inv == dict(zip(x.moved.values(), x.moved.keys()))
    for y in (x.compose(x.inverse()), x.inverse().compose(x)):
        assert not y and y._inv == {}


SHAPES = ["left-larger", "right-larger", "left-identity", "right-identity"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_carried_inverse_survives_compose_and_inverse_chains(data):
    """compose patches the inverse mapping as it patches the forward one
    (including where a point becomes fixed), over all four operand shapes
    and both identity shortcuts; inverse swaps the two mappings."""
    x = FinPerm.identity()
    for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
        left, right = data.draw(compose_operands(data.draw(st.sampled_from(SHAPES))))
        y = left.compose(right)
        assert_carries_its_inverse(y)
        step = data.draw(st.sampled_from(["after", "before", "inverse", "restart"]))
        if step == "after":
            x = y.compose(x)
        elif step == "before":
            x = x.compose(y)
        elif step == "inverse":
            x = x.inverse()
        else:
            x = y
        assert_carries_its_inverse(x)
