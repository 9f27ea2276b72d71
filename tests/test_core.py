"""Normal form, product law, projections, and structure maps."""

from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    BudgetError,
    CyclicGroup,
    FinPerm,
    FreeGroup,
    GroupSpecError,
    IntegersGroup,
    MembershipError,
    Point,
    PointedUnion,
    PvContext,
    PvElement,
    RegimeError,
    TableGroup,
    WordParseError,
    symmetric_group_table,
    three_cycle,
    transposition,
)
from gluedprod import core
from gluedprod.core import embed
from gluedprod.dynamics import free_semigroup_check
from gluedprod.pointed import side_points
from gluedprod.sampling import element as random_element
from gluedprod.sampling import even_perm
from gluedprod.sampling import points as random_points


def test_regime_detection():
    """One rule per side: every pair of nontrivial factors makes a context,
    which keeps an infinite factor and absorbs a finite one."""
    for G, H in itertools.product((IntegersGroup(), CyclicGroup(2)), repeat=2):
        ctx = PvContext(G, H)
        assert (ctx.g_kept, ctx.h_kept) == (not G.is_finite, not H.is_finite)


@pytest.mark.parametrize("trivial", [CyclicGroup(1), TableGroup([[0]])])
def test_a_trivial_factor_is_refused(trivial):
    """G glued with 1 is G acting regularly: it has no finitary residual."""
    for G, H in ((IntegersGroup(), trivial), (trivial, IntegersGroup()),
                 (CyclicGroup(3), trivial)):
        with pytest.raises(GroupSpecError, match="^the glued product needs nontrivial factors$"):
            PvContext(G, H)


# the factor pairs with an absorbed (finite) factor, one per shape
SHAPES = {"C3 x C4": (CyclicGroup(3), CyclicGroup(4)),
          "C3 x Z": (CyclicGroup(3), IntegersGroup()),
          "Z x C3": (IntegersGroup(), CyclicGroup(3))}


@pytest.mark.parametrize("shape", SHAPES)
def test_check_mode_agrees_on_every_shape(shape):
    """Sampled elements act as g o h o a whichever parts are absorbed, and
    their products, inverses and words pass the pointwise product law on
    a finite left factor and on two finite factors, as on the others."""
    ctx = PvContext(*SHAPES[shape], check=True)
    apply = ctx.union.apply_factor
    rng = Random(3)
    for _ in range(300):
        g, h, a = rng.choice(ctx.G.ball(2)), rng.choice(ctx.H.ball(2)), even_perm(ctx, rng)
        s1, s2 = ctx.element(g=g, h=h, a=a), random_element(ctx, rng)
        product = ctx.multiply(s1, s2)
        assert ctx.multiply(product, ctx.invert(product)) == ctx.identity
        for p in random_points(ctx, rng, 4) + list(a.support()):
            assert ctx.act(s1, p) == apply("g", g, apply("h", h, a(p)))
            assert ctx.act(product, p) == ctx.act(s1, ctx.act(s2, p))
    assert ctx.eval_word("G:1 H:1 G:-1 H:-1") == ctx.commutator("1", "1")


@pytest.mark.parametrize("right", [IntegersGroup(), CyclicGroup(4)])
def test_a_finite_left_factor_refuses_what_needs_it_kept(right):
    """Each refusal states its side: an absorbed G has no projection, and
    the monolith test and embeddings need both factors kept."""
    ctx = PvContext(CyclicGroup(3), right)
    s = ctx.eval_word("G:1 H:1")
    for call, message in ((ctx.project, "the G-projection is undefined when G is finite"),
                          (ctx.project_g, "the G-projection is undefined when G is finite"),
                          (ctx.in_monolith, "the monolith test requires both factors infinite")):
        with pytest.raises(RegimeError, match=f"^{message}$"):
            call(s)
    with pytest.raises(RegimeError, match="^embedding is only canonical"):
        embed(ctx, ctx, lambda x: x, lambda y: y, s)


def test_element_orders_on_absorbed_factors():
    """An element has finite order exactly when its kept parts are trivial."""
    z_c3 = PvContext(IntegersGroup(), CyclicGroup(3))
    assert z_c3.element_order(z_c3.eval_word("H:1")) == 3
    assert z_c3.element_order(z_c3.eval_word("G:1 H:1")) is None
    c3_c4 = PvContext(CyclicGroup(3), CyclicGroup(4))
    assert c3_c4.element_order(c3_c4.eval_word("G:1 H:1")) == 6


def test_element_contract(zz):
    """Field equality between elements only, the hash of the field tuple,
    and fields that cannot be reassigned."""
    a = three_cycle(BASE, Point("g", 1), Point("h", 1))
    s, t = PvElement(1, 2, a), PvElement(1, 2, FinPerm(a.moved))
    assert s == t and s is not t
    assert s != PvElement(1, 2, FinPerm.identity())
    assert s != (1, 2, a) and (1, 2, a) != s
    assert PvElement(1, 0, FinPerm.identity()) != Point("g", 1)
    assert hash(s) == hash(t) == hash((1, 2, a))
    with pytest.raises(AttributeError):
        s.g = 3
    assert s.g == 1
    assert len({s, t, zz.identity, zz.from_g(0)}) == 2
    assert {s: "s"}[t] == "s"
    assert free_semigroup_check(zz, "1", "1", 4).ok


def test_act_examples(zz):
    assert zz.act(zz.from_g("1"), BASE) == Point("g", 1)
    # the H copy moves nothing on the other side
    assert zz.act(zz.from_h("1"), Point("g", 5)) == Point("g", 5)
    assert zz.act(zz.commutator("1", "1"), BASE) == Point("g", 1)


def test_multiply_examples(zz):
    gh = zz.multiply(zz.from_g("1"), zz.from_h("1"))
    assert gh == PvElement(1, 1, FinPerm.identity())
    hg = zz.multiply(zz.from_h("1"), zz.from_g("1"))
    assert hg.g == 1 and hg.h == 1
    # residual is the commutator of the inverses: e -> h:-1 -> g:-1 -> e
    want = three_cycle(BASE, Point("h", -1), Point("g", -1))
    assert hg.a == want
    sigma = random_element(zz, Random(1))
    assert zz.multiply(sigma, zz.identity) == sigma
    assert zz.multiply(zz.identity, sigma) == sigma


def test_multiply_matches_action_oracle(zz_fast):
    ctx = zz_fast
    rng = Random(42)
    for _ in range(400):
        s1 = random_element(ctx, rng)
        s2 = random_element(ctx, rng)
        prod = ctx.multiply(s1, s2)
        probes = set(s1.a.support()) | set(s2.a.support()) | set(prod.a.support())
        probes.update(random_points(ctx, rng, 10))
        probes.add(BASE)
        for p in probes:
            assert ctx.act(prod, p) == ctx.act(s1, ctx.act(s2, p))


def test_commutator_is_tricycle(zz):
    c = zz.commutator("1", "1")
    assert c == zz.normalize([("G", "1"), ("H", "1"), ("G", "-1"), ("H", "-1")])
    assert c.a == three_cycle(BASE, Point("g", 1), Point("h", 1))
    # the three evaluations of the proof
    assert zz.act(c, BASE) == Point("g", 1)
    assert zz.act(c, Point("g", 1)) == Point("h", 1)
    assert zz.act(c, Point("h", 1)) == BASE
    assert zz.commutator("0", "5") == zz.identity
    assert zz.commutator("5", "0") == zz.identity


def test_commutator_cube_trivial(zz):
    rng = Random(9)
    for _ in range(200):
        g = str(rng.choice([k for k in range(-9, 10) if k]))
        h = str(rng.choice([k for k in range(-9, 10) if k]))
        c = zz.commutator(g, h)
        assert zz.normalize([("G", g), ("H", h), ("G", str(-int(g))), ("H", str(-int(h)))]) == c
        cube = zz.multiply(zz.multiply(c, c), c)
        assert cube == zz.identity


def test_commutator_over_free_factor():
    ctx = PvContext(FreeGroup(2), IntegersGroup(), check=True)
    c = ctx.commutator("aB", "2")
    assert c.a == three_cycle(BASE, Point("g", "aB"), Point("h", 2))
    word = [("G", "aB"), ("H", "2"), ("G", "bA"), ("H", "-2")]
    assert ctx.normalize(word) == c
    cube = ctx.multiply(ctx.multiply(c, c), c)
    assert cube == ctx.identity


def test_invert(zz):
    assert zz.invert(zz.identity) == zz.identity
    assert zz.invert(zz.from_g("1")) == zz.from_g("-1")
    c = zz.commutator("2", "3")
    assert zz.invert(c) == zz.multiply(c, c)
    rng = Random(17)
    for _ in range(300):
        s = random_element(zz, rng)
        assert zz.multiply(s, zz.invert(s)) == zz.identity
        assert zz.multiply(zz.invert(s), s) == zz.identity


def test_normalize_examples(zz):
    assert zz.normalize([("G", "2"), ("G", "3")]) == zz.from_g("5")
    assert zz.normalize([]) == zz.identity
    with pytest.raises(MembershipError):
        zz.normalize([("PERM", transposition(BASE, Point("g", 1)))])


def test_normalize_refuses_an_unknown_letter_kind(zz):
    with pytest.raises(WordParseError, match="^unknown letter kind 'X'$"):
        zz.normalize([("X", "1")])


def test_residual_parity_always_even(zz_fast):
    rng = Random(23)
    for _ in range(500):
        s1 = random_element(zz_fast, rng)
        s2 = random_element(zz_fast, rng)
        assert zz_fast.multiply(s1, s2).a.is_even()


PARITY_FACTORS = {
    "Z x Z": (IntegersGroup(), IntegersGroup()),
    "F2 x Z": (FreeGroup(2), IntegersGroup()),
    "Z x Z/3": (IntegersGroup(), CyclicGroup(3)),
    "Z x S3": (IntegersGroup(), TableGroup(symmetric_group_table(3))),
}


def cycle_parity(a: FinPerm) -> bool:
    """Even by counting cycles, never by a carried parity."""
    return sum(len(c) - 1 for c in a.cycles()) % 2 == 0


@st.composite
def known_parity_elements(draw, ctx):
    """from_g(g) * from_h(h) * from_perm(a), a two cycles of small points."""
    pool = side_points(ctx.G, "g", 2) + side_points(ctx.H, "h", 2) + (BASE,)
    support = draw(st.lists(st.sampled_from(pool), unique=True, max_size=7))
    cut = draw(st.integers(0, len(support)))
    a = FinPerm.from_cycles([support[:cut], support[cut:]])
    assume(a.is_even() or ctx.mixed_symmetric)
    g = draw(st.sampled_from(ctx.G.ball(2)))
    h = draw(st.sampled_from(ctx.H.ball(2)))
    return ctx.multiply(ctx.multiply(ctx.from_g(g), ctx.from_h(h)), ctx.from_perm(a))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PARITY_FACTORS)), check=st.booleans())
def test_products_and_inverses_carry_their_parity(data, name, check):
    ctx = PvContext(*PARITY_FACTORS[name], check=check)
    s1 = data.draw(known_parity_elements(ctx))
    s2 = data.draw(known_parity_elements(ctx))
    inv = ctx.invert(s1)
    for out in (s1, s2, ctx.multiply(s1, s2), ctx.multiply(s2, s1), inv,
                ctx.multiply(inv, s2), ctx.multiply(s1, inv)):
        a = out.a
        assert a._even is not None or a._carried is not None
        assert a.known_even() == cycle_parity(a), ctx.format_element(out)


def test_is_even_counts_a_product_whatever_it_carried():
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    a = ctx.eval_word("PERM:(g:1 g:2 g:3) G:2 H:1 PERM:(e h:1 h:2)").a
    assert a._even is None and a._carried is True
    a._carried = False
    assert a.is_even() and not a.known_even()


def test_project_homomorphism_and_monolith(zz_fast):
    ctx = zz_fast
    rng = Random(31)
    for _ in range(500):
        s1 = random_element(ctx, rng)
        s2 = random_element(ctx, rng)
        prod = ctx.multiply(s1, s2)
        assert ctx.project(prod) == (
            ctx.G.mul(s1.g, s2.g),
            ctx.H.mul(s1.h, s2.h),
        )
        assert ctx.in_monolith(prod) == (ctx.project(prod) == (0, 0))
    assert ctx.project(ctx.commutator("4", "-2")) == (0, 0)
    assert ctx.in_monolith(ctx.commutator("4", "-2"))
    assert not ctx.in_monolith(ctx.from_g("1"))
    assert ctx.in_monolith(ctx.identity)


def test_element_orders_of_commutator_products(zz):
    # distinct nontrivial entries: the product of the two 3-cycles is a 5-cycle
    s = zz.multiply(zz.commutator("1", "1"), zz.commutator("2", "2"))
    assert zz.element_order(s) == 5
    # shared g: a product of two disjoint transpositions
    s2 = zz.multiply(zz.commutator("1", "1"), zz.commutator("1", "2"))
    assert zz.element_order(s2) == 2
    # both shared: the commutator itself squared still has order 3
    c = zz.commutator("1", "1")
    assert zz.element_order(zz.multiply(c, c)) == 3
    assert zz.element_order(zz.from_g("1")) is None
    assert zz.element_order(zz.identity) == 1


def test_element_order_cap(zz, monkeypatch):
    big = FinPerm.from_cycles([
        [Point("g", k) for k in range(1, 6)],
        [Point("h", k) for k in range(1, 8)],
    ])
    s = zz.from_perm(big)
    assert zz.element_order(s) == 35
    monkeypatch.setattr(core, "ORDER_CAP", 10)
    with pytest.raises(BudgetError):
        zz.element_order(s)


def test_stabilizer_lift(zz):
    lift = zz.stabilizer_lift("1", "2")
    assert zz.project(lift) == (0, 1)
    rng = Random(3)
    for k in list(range(-20, 21)):
        p = BASE if k == 0 else Point("g", k)
        assert zz.act(lift, p) == p
    # action on the H side matches the defining product
    sigma = zz.from_perm(three_cycle(Point("h", 1), BASE, Point("h", 2)))
    expected = zz.multiply(sigma, zz.from_h("1"))
    for p in random_points(zz, rng, 50):
        assert zz.act(lift, p) == zz.act(expected, p)
    with pytest.raises(Exception):
        zz.stabilizer_lift("0", "2")
    with pytest.raises(Exception):
        zz.stabilizer_lift("1", "1")


def test_embed_inclusion_of_even_integers(zz):
    # 2Z x 2Z inside Z x Z: relabel through multiplication by 2
    sub = PvContext(IntegersGroup(), IntegersGroup())
    double = lambda x: str(2 * int(x))
    s = sub.element(g="1", h="2")
    image = embed(sub, zz, double, double, s)
    assert image == zz.element(g="2", h="4")
    assert embed(sub, zz, double, double, sub.identity) == zz.identity


def test_embed_is_homomorphism_on_samples(zz):
    sub = PvContext(IntegersGroup(), IntegersGroup())
    double = lambda x: str(2 * int(x))
    rng = Random(5)
    for _ in range(50):
        x = random_element(sub, rng, span=3)
        y = random_element(sub, rng, span=3)
        lhs = embed(sub, zz, double, double, sub.multiply(x, y))
        rhs = zz.multiply(embed(sub, zz, double, double, x),
                          embed(sub, zz, double, double, y))
        assert lhs == rhs
    # commutators map to commutators of the images
    c = embed(sub, zz, double, double, sub.commutator("3", "1"))
    assert c == zz.commutator("6", "2")


def test_embed_rejects_finite_source(z_mod2, zz):
    with pytest.raises(RegimeError):
        embed(z_mod2, zz, lambda x: x, lambda y: y, z_mod2.identity)


def test_embed_rejects_non_homomorphism(zz):
    sub = PvContext(IntegersGroup(), IntegersGroup())
    bad = lambda x: str(int(x) ** 2)
    with pytest.raises(MembershipError):
        embed(sub, zz, bad, bad, sub.identity)


def test_embed_rejects_a_map_that_moves_the_identity(zz):
    sub = PvContext(IntegersGroup(), IntegersGroup())
    shift = lambda x: str(int(x) + 1)
    with pytest.raises(MembershipError, match="^factor map does not preserve the identity$"):
        embed(sub, zz, shift, shift, sub.identity)


def test_embed_rejects_a_map_that_is_not_a_function(zz):
    """Each call after the identity's flips the sign, so a repeated draw
    gets two images."""
    sub = PvContext(IntegersGroup(), IntegersGroup())
    calls = itertools.count()
    flip = lambda x: str(int(x) * (-1) ** next(calls))
    with pytest.raises(MembershipError, match="^factor map is not a function$"):
        embed(sub, zz, flip, flip, sub.identity)


def test_embed_rejects_a_map_that_is_not_injective(zz):
    sub = PvContext(IntegersGroup(), IntegersGroup())
    trivial = lambda x: "0"
    with pytest.raises(MembershipError, match="^factor map is not injective on samples$"):
        embed(sub, zz, trivial, trivial, sub.identity)


def test_mixed_regime_conventions(z_mod2):
    ctx = z_mod2
    s = ctx.from_h("1")
    assert s.h == 0
    assert s.a(BASE) == Point("h", 1)
    assert s.a(Point("h", 1)) == BASE
    # squaring the involution gives the identity
    assert ctx.multiply(s, s) == ctx.identity
    assert ctx.project_g(ctx.multiply(ctx.from_g("4"), s)) == 4
    mixed = ctx.multiply(ctx.from_g("2"), s)
    assert ctx.multiply(mixed, ctx.invert(mixed)) == ctx.identity
    with pytest.raises(RegimeError):
        ctx.project(s)
    with pytest.raises(RegimeError):
        ctx.in_monolith(s)


def test_mixed_translations_are_built_once_per_element(monkeypatch):
    ctx = PvContext(IntegersGroup(), CyclicGroup(12))
    calls = []
    mul = ctx.H.mul
    monkeypatch.setattr(ctx.H, "mul", lambda a, b: calls.append(1) or mul(a, b))
    letters = [ctx.from_h("5") for _ in range(100)]
    assert len(calls) <= 12
    fresh = PointedUnion(IntegersGroup(), CyclicGroup(12)).translation("h", 5)
    assert all(s == PvElement(0, 0, fresh) for s in letters)
    assert ctx.element(g="1", h="5") == PvElement(1, 0, fresh)
    assert len(calls) <= 12


def test_mixed_membership_convention():
    # Z/2 has a cyclic 2-Sylow: odd residuals are genuine elements
    sym_ctx = PvContext(IntegersGroup(), CyclicGroup(2))
    odd = transposition(BASE, Point("h", 1))
    assert sym_ctx.from_perm(odd).a == odd
    # Z/3 does not: odd residuals are rejected
    alt_ctx = PvContext(IntegersGroup(), CyclicGroup(3))
    with pytest.raises(MembershipError):
        alt_ctx.from_perm(transposition(BASE, Point("h", 1)))


def test_mixed_multiply_matches_action(z_mod3):
    ctx = z_mod3
    rng = Random(8)
    h_points = [BASE, Point("h", 1), Point("h", 2)]

    def random_mixed():
        g = str(rng.randint(-4, 4))
        word = [("G", g)]
        if rng.random() < 0.8:
            word.append(("H", str(rng.randint(0, 2))))
        if rng.random() < 0.5:
            word.append(("G", str(rng.randint(-2, 2))))
        return ctx.normalize(word)

    for _ in range(200):
        s1, s2 = random_mixed(), random_mixed()
        prod = ctx.multiply(s1, s2)
        assert prod.h == 0
        probes = set(h_points) | set(prod.a.support()) | set(random_points(ctx, rng, 6))
        for p in probes:
            assert ctx.act(prod, p) == ctx.act(s1, ctx.act(s2, p))


def test_word_parsing_and_formatting(zz):
    s = zz.eval_word("G:1 H:1 G:-1 H:-1")
    assert zz.format_element(s) == "g=0 h=0 a=(e g:1 h:1)"
    assert zz.format_element(zz.eval_word("")) == "g=0 h=0 a=()"
    assert zz.format_element(zz.eval_word("G:2 G:3")) == "g=5 h=0 a=()"
    t = zz.eval_word("PERM:(e g:1 h:1) H:2")
    assert t == zz.multiply(zz.from_perm(three_cycle(BASE, Point("g", 1), Point("h", 1))),
                            zz.from_h("2"))


def test_action_homomorphism_bulk(zz_fast):
    ctx = zz_fast
    rng = Random(77)
    for _ in range(1000):
        s1 = random_element(ctx, rng, span=4)
        s2 = random_element(ctx, rng, span=4)
        p = random_points(ctx, rng, 1)[0]
        assert ctx.act(ctx.multiply(s1, s2), p) == ctx.act(s1, ctx.act(s2, p))
