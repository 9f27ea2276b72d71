"""Dense numbering of the pointed union, and the seeded draws it feeds."""

from __future__ import annotations

import hashlib
import itertools
import math
from random import Random

import pytest

from gluedprod import (
    BASE,
    CyclicGroup,
    FreeGroup,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    PointedUnion,
    PvContext,
    TableGroup,
)
from gluedprod import finite, sampling
from gluedprod.finite import realize_finite
from gluedprod.groups import symmetric_group_table
from gluedprod.lef import Approximation, random_window_element

from conftest import finite_catalog

# SHA-256 of the draws below, recorded when a random window element
# became the element at a uniform position of F_n; any change to a
# seeded draw or to the dense numbering changes it
DRAWS_DIGEST = "638a7323e78d43004af53cc9d963aff31e127db4c6abc440e107043970d4c8a3"


def shifted_cyclic(n: int, shift: int) -> TableGroup:
    """Z/n as a table whose element k is labelled (k + shift) mod n."""
    def label(k):
        return (k + shift) % n

    table = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        table[label(a)][label(b)] = label(a + b)
    return TableGroup(table)


def _draws() -> bytes:
    lines = []
    contexts = [
        PvContext(IntegersGroup(), IntegersGroup()),
        PvContext(FreeGroup(2), IntegersGroup()),
        PvContext(LatticeGroup(2), IntegersGroup()),
        PvContext(IntegersGroup(), CyclicGroup(3)),
        PvContext(IntegersGroup(), TableGroup(symmetric_group_table(3))),
    ]
    for k, ctx in enumerate(contexts):
        rng = Random(1000 + k)
        for _ in range(40):
            lines.append(ctx.format_element(sampling.element(ctx, rng)))
            lines.append(" ".join(map(str, sampling.points(ctx, rng, 5))))
            v = sampling.vertex(ctx, rng)
            lines.append(" ".join(sorted(map(str, v.removed))) + " | "
                         + " ".join(sorted(map(str, v.added))))
    for k, (ctx, modulus) in enumerate([(contexts[0], 17), (contexts[2], 9),
                                        (contexts[3], None)]):
        approx = Approximation(ctx, 1, modulus=modulus)
        rng = Random(2000 + k)
        for _ in range(60):
            s = random_window_element(ctx, 2, rng)
            lines.append(ctx.format_element(s) + " -> " + repr(approx.phi(s)))
    factors = list(finite_catalog().values()) + [shifted_cyclic(3, 1)]
    for a, b in itertools.product(factors, repeat=2):
        lines.append(f"{a!r} {b!r} {realize_finite(a, b)}")
    return "\n".join(lines).encode()


def test_seeded_draws_and_numbering_are_pinned():
    assert hashlib.sha256(_draws()).hexdigest() == DRAWS_DIGEST


@pytest.mark.parametrize("G, H", [
    (CyclicGroup(4), CyclicGroup(3)),
    (shifted_cyclic(5, 2), TableGroup(symmetric_group_table(3))),
])
def test_points_are_the_basepoint_then_each_side_in_canonical_order(G, H):
    union = PointedUnion(G, H)
    others = [union.point("g", x) for x in G.elements()]
    others += [union.point("h", y) for y in H.elements()]
    assert union.points == (BASE,) + tuple(union.sorted_points(set(others) - {BASE}))
    assert len(union.points) == G.order() + H.order() - 1
    assert [union.position(p) for p in union.points] \
        == [union.points.index(p) for p in union.points] == list(range(len(union.points)))


def test_dense_translation_is_the_index_of_the_product():
    G, H = shifted_cyclic(5, 2), TableGroup(symmetric_group_table(3))
    assert G.identity == 2
    union = PointedUnion(G, H)
    for side, handle in (("g", G), ("h", H)):
        for x in handle.elements():
            direct = list(range(len(union.points)))
            for y in handle.elements():
                target = union.point(side, handle.mul(x, y))
                direct[union.points.index(union.point(side, y))] = union.points.index(target)
            assert union.dense(union.translation(side, x)) == tuple(direct)
            assert union.dense_translation(side, x) == tuple(direct)


def test_an_approximation_and_an_order_number_points_without_building_them(monkeypatch):
    """The target of an Approximation, and the union glued_order realises,
    read positions off each side's enumeration; ``points`` is never built."""
    monkeypatch.setattr(PointedUnion, "points",
                        property(lambda self: pytest.fail("the union's points were built")))
    approx = Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1, modulus=17)
    reports = approx.check_pairs(mode="sample", sample=20, seed=3)
    assert [(r.pairs_checked, r.ok) for r in reports] == [(20, True), (20, True)]
    assert finite.glued_order(CyclicGroup(9), CyclicGroup(10)) == math.factorial(18)


def test_realize_finite_rejects_an_infinite_factor_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("a union was built")

    monkeypatch.setattr(finite, "PointedUnion", built)
    for G, H, generators in ((IntegersGroup(), CyclicGroup(2), (["1"], ["1"])),
                             (CyclicGroup(2), FreeGroup(2), (["1"], ["a"]))):
        with pytest.raises(GroupSpecError):
            realize_finite(G, H)
        with pytest.raises(GroupSpecError):
            realize_finite(G, H, generators=generators)
