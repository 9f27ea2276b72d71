"""Cube complex: s-invariant, action, fixed points, transporters."""

from __future__ import annotations

import time
from random import Random

import pytest

from gluedprod import (
    BASE,
    BudgetError,
    FiberMismatchError,
    FreeGroup,
    IntegersGroup,
    Point,
    PvContext,
    RegimeError,
)
from gluedprod.cubes import (
    BALL_VERTEX_CAP,
    CubeVertex,
    act_vertex,
    adjacent,
    contains,
    distance,
    edges,
    fixed_by_G,
    fixed_by_H,
    g_side_without_base,
    growth_witness,
    s_invariant,
    template_vertex,
    transporter,
    vertex_ball,
    whole_g_side,
)
from gluedprod.sampling import element as random_element
from gluedprod.sampling import points as random_points
from gluedprod.sampling import vertex as random_vertex


def test_s_invariant_examples():
    assert s_invariant(whole_g_side()) == 0
    assert s_invariant(g_side_without_base()) == -1
    assert s_invariant(CubeVertex(frozenset(), frozenset([Point("h", 1)]))) == 1


def test_distance_examples():
    v = whole_g_side()
    assert distance(v, v) == 0
    assert distance(v, g_side_without_base()) == 1
    assert adjacent(v, g_side_without_base())
    w = CubeVertex(frozenset([Point("g", 2)]), frozenset([Point("h", 1)]))
    assert distance(v, w) == 2


def test_fixed_points():
    assert fixed_by_G(whole_g_side()) and not fixed_by_H(whole_g_side())
    assert fixed_by_H(g_side_without_base()) and not fixed_by_G(g_side_without_base())
    plus = CubeVertex(frozenset(), frozenset([Point("h", 1)]))
    assert fixed_by_G(plus) and s_invariant(plus) == 1


def test_act_vertex_fixed_vertices(zz):
    for k in ("1", "-3", "7"):
        assert act_vertex(zz, zz.from_g(k), whole_g_side()) == whole_g_side()
        assert act_vertex(zz, zz.from_h(k), g_side_without_base()) == g_side_without_base()


def test_act_vertex_translation(zz):
    moved = act_vertex(zz, zz.from_g("1"), g_side_without_base())
    assert moved == CubeVertex(frozenset([Point("g", 1)]), frozenset())


def test_act_vertex_h_on_base(zz):
    # h sends the G side to (G minus basepoint) plus the h point
    moved = act_vertex(zz, zz.from_h("1"), whole_g_side())
    assert moved == CubeVertex(frozenset([BASE]), frozenset([Point("h", 1)]))


def test_act_vertex_membership_oracle(zz_fast):
    ctx = zz_fast
    rng = Random(13)
    for _ in range(150):
        s = random_element(ctx, rng)
        v = random_vertex(ctx, rng)
        image = act_vertex(ctx, s, v)
        s_inv = ctx.invert(s)
        probes = set(random_points(ctx, rng, 25, span=12))
        probes |= set(v.removed) | set(v.added) | set(image.removed) | set(image.added)
        probes |= set(s.a.support()) | {BASE}
        for q in probes:
            assert contains(image, q) == contains(v, ctx.act(s_inv, q))


def test_s_invariance_and_isometry(zz_fast):
    ctx = zz_fast
    rng = Random(29)
    for _ in range(300):
        s = random_element(ctx, rng)
        v = random_vertex(ctx, rng)
        w = random_vertex(ctx, rng)
        sv = act_vertex(ctx, s, v)
        sw = act_vertex(ctx, s, w)
        assert s_invariant(sv) == s_invariant(v)
        assert distance(sv, sw) == distance(v, w)


def test_act_vertex_is_an_action(zz_fast):
    ctx = zz_fast
    rng = Random(37)
    for _ in range(200):
        s1 = random_element(ctx, rng)
        s2 = random_element(ctx, rng)
        v = random_vertex(ctx, rng)
        assert act_vertex(ctx, ctx.multiply(s1, s2), v) == \
            act_vertex(ctx, s1, act_vertex(ctx, s2, v))


def test_templates(zz):
    assert template_vertex(zz, 0) == whole_g_side()
    assert template_vertex(zz, -1) == g_side_without_base()
    t2 = template_vertex(zz, 2)
    assert t2.removed == frozenset()
    assert t2.added == frozenset([Point("h", 1), Point("h", -1)])


def test_transporter_examples(zz):
    v = whole_g_side()
    assert transporter(zz, v, v) == zz.identity
    a = CubeVertex(frozenset([Point("g", 1)]), frozenset())
    b = CubeVertex(frozenset([Point("g", 2)]), frozenset())
    t = transporter(zz, a, b)
    assert act_vertex(zz, t, a) == b
    assert t.a.is_even()
    with pytest.raises(FiberMismatchError):
        transporter(zz, whole_g_side(), g_side_without_base())


def test_transporter_random_pairs(zz_fast):
    ctx = zz_fast
    rng = Random(41)
    done = 0
    while done < 60:
        v = random_vertex(ctx, rng)
        w = random_vertex(ctx, rng)
        if s_invariant(v) != s_invariant(w):
            with pytest.raises(FiberMismatchError):
                transporter(ctx, v, w)
            continue
        t = transporter(ctx, v, w)
        assert act_vertex(ctx, t, v) == w
        assert ctx.in_monolith(t)
        assert t.a.is_even()
        done += 1


def test_unique_adjacent_fixed_pair(zz_fast):
    vertices = vertex_ball(zz_fast, radius=3, payload_bound=3)
    assert len(vertices) == 378
    pairs = [
        (x, y)
        for x in vertices
        if fixed_by_G(x)
        for y in vertices
        if fixed_by_H(y) and adjacent(x, y)
    ]
    assert pairs == [(whole_g_side(), g_side_without_base())]


def test_vertex_ball_has_edges(zz_fast):
    vertices = vertex_ball(zz_fast, radius=1, payload_bound=1)
    # base vertex, remove one of {e, g1, g-1}, add one of {h1, h-1}
    assert len(vertices) == 6
    e = edges(vertices)
    base_index = vertices.index(whole_g_side())
    assert all(base_index in pair for pair in e)
    assert len(e) == 5


@pytest.mark.parametrize("left, payload_bound", [
    (IntegersGroup(), 3),
    (FreeGroup(2), 1),
])
def test_edges_match_the_pairwise_definition(left, payload_bound):
    ctx = PvContext(left, IntegersGroup())
    for radius in range(4):
        vertices = vertex_ball(ctx, radius, payload_bound)
        Random(radius).shuffle(vertices)  # any order of distinct vertices
        pairwise = [(i, j) for i in range(len(vertices))
                    for j in range(i + 1, len(vertices))
                    if adjacent(vertices[i], vertices[j])]
        assert edges(vertices) == pairwise


def test_vertex_ball_size_is_capped_before_enumeration(zz_fast, monkeypatch):
    # 13 ledger points, at most 3 of them: 1 + 13 + 78 + 286 vertices
    assert len(vertex_ball(zz_fast, 3, 3)) == 378
    f2 = PvContext(FreeGroup(2), IntegersGroup())
    assert len(vertex_ball(f2, 3, 3)) == 34280 < BALL_VERTEX_CAP

    def built(*args):
        raise AssertionError("a vertex was built")

    monkeypatch.setattr(CubeVertex, "__init__", built)
    with pytest.raises(BudgetError, match="245506 vertices exceed the cap of 100000"):
        vertex_ball(zz_fast, 6, 6)


def test_vertex_ball_radius_past_the_pools_adds_nothing(zz_fast):
    # 5 ledger points at payload bound 1, so every radius from 5 on is the
    # whole power set
    start = time.perf_counter()
    vertices = vertex_ball(zz_fast, 10**6, 1)
    assert time.perf_counter() - start < 0.05
    assert len(vertices) == 32
    assert vertices == vertex_ball(zz_fast, 5, 1)


def test_growth_witness(zz_fast):
    rows = growth_witness(zz_fast, 40)
    dists = [d for _, d in rows]
    assert dists == [2 * k for k in range(1, 21)]
    for word, d in rows:
        assert d >= len(word) / 2
        assert zz_fast.normalize(word) is not None


def test_regime_guard(z_mod2):
    with pytest.raises(RegimeError):
        act_vertex(z_mod2, z_mod2.identity, whole_g_side())
