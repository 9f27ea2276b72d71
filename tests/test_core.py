"""Normal form, product law, projections, and structure maps."""

from __future__ import annotations

from random import Random

import pytest

from gluedprod import (
    BASE,
    BudgetError,
    CyclicGroup,
    FinPerm,
    FreeGroup,
    IntegersGroup,
    MembershipError,
    Point,
    PointedUnion,
    PvContext,
    PvElement,
    RegimeError,
    three_cycle,
    transposition,
)
from gluedprod import core
from gluedprod.core import embed
from gluedprod.dynamics import free_semigroup_check
from gluedprod.sampling import element as random_element
from gluedprod.sampling import points as random_points


def test_regime_detection():
    with pytest.raises(RegimeError):
        PvContext(CyclicGroup(2), CyclicGroup(2))
    with pytest.raises(RegimeError):
        PvContext(CyclicGroup(2), IntegersGroup())
    assert PvContext(IntegersGroup(), IntegersGroup()).regime == "both-infinite"
    assert PvContext(IntegersGroup(), CyclicGroup(2)).regime == "mixed"


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


def test_residual_parity_always_even(zz_fast):
    rng = Random(23)
    for _ in range(500):
        s1 = random_element(zz_fast, rng)
        s2 = random_element(zz_fast, rng)
        assert zz_fast.multiply(s1, s2).a.is_even()


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
