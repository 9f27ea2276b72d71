"""Dense backend: realization, translation signs, Alt/Sym classification."""

from __future__ import annotations

import gc
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    CyclicGroup,
    GroupSpecError,
    IntegersGroup,
    PointedUnion,
    PvContext,
    groups,
    schreier_sims_order,
)
from gluedprod.finite import (
    classify,
    glued_order,
    has_cyclic_two_sylow,
    realize_finite,
    translation_sign,
    verify_classification,
)
from gluedprod.groups import compose_dense, parity_dense

from conftest import finite_catalog, mulclose


def test_realize_z2_z2():
    gens = realize_finite(CyclicGroup(2), CyclicGroup(2))
    # the transpositions (0 1) and (0 2) as image tuples
    assert sorted(gens) == [(1, 0, 2), (2, 1, 0)]
    # brute-force closure on three points is the full symmetric group
    assert len(mulclose(gens)) == 6


def test_realize_z3_z2():
    gens = realize_finite(CyclicGroup(3), CyclicGroup(2))
    assert (1, 2, 0, 3) in gens and (2, 0, 1, 3) in gens and (3, 1, 2, 0) in gens
    n = 4
    for p in gens:
        # each generator fixes the other block pointwise
        assert len(p) == n
        moved = {i for i in range(n) if p[i] != i}
        assert moved <= {0, 1, 2} or moved <= {0, 3}


def test_translation_sign_formula_vs_cycle_parity():
    for name, G in finite_catalog().items():
        union = PointedUnion(G, CyclicGroup(2))
        for x in G.elements():
            perm = union.dense(union.translation("g", x))
            assert translation_sign(G, x) == (1 if parity_dense(perm) == 0 else -1), name


def test_translation_sign_examples():
    z4 = CyclicGroup(4)
    assert translation_sign(z4, "0") == 1
    # the generator is a 4-cycle: odd
    assert translation_sign(z4, "1") == -1
    # the order-2 element splits into two transpositions: even
    assert translation_sign(z4, "2") == 1


def test_cyclic_two_sylow_criterion():
    catalog = finite_catalog()
    assert has_cyclic_two_sylow(catalog["Z2"])
    assert has_cyclic_two_sylow(catalog["Z4"])
    assert has_cyclic_two_sylow(catalog["S3"])
    assert not has_cyclic_two_sylow(catalog["Z3"])
    assert not has_cyclic_two_sylow(catalog["Z5"])
    assert not has_cyclic_two_sylow(catalog["V4"])


@pytest.mark.parametrize("G", [CyclicGroup(n) for n in range(1, 65)]
                         + list(finite_catalog().values()), ids=repr)
def test_cyclic_two_sylow_against_odd_translations(G):
    """Oracle: some translation, as a dense permutation, is odd."""
    union = PointedUnion(G, CyclicGroup(2))
    odd = any(parity_dense(union.dense_translation("g", x)) for x in G.elements())
    assert has_cyclic_two_sylow(G) == odd


def test_cyclic_two_sylow_reads_elements_lazily(monkeypatch):
    def refuse(self):
        raise AssertionError("elements() was built")

    monkeypatch.setattr(groups.GroupHandle, "elements", refuse)
    tracemalloc.start()
    try:
        ctx = PvContext(IntegersGroup(), CyclicGroup(2 * 10**6))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ctx.mixed_symmetric
    assert peak < 2**20


def test_classify_examples():
    catalog = finite_catalog()
    assert classify(catalog["Z2"], catalog["Z2"]) == "Sym"
    assert classify(catalog["Z3"], catalog["Z3"]) == "Alt"
    assert classify(catalog["V4"], catalog["Z3"]) == "Alt"
    # independent verification of the V4 x Z3 case by group order
    assert glued_order(catalog["V4"], catalog["Z3"]) == math.factorial(6) // 2 == 360
    with pytest.raises(GroupSpecError):
        classify(CyclicGroup(1), catalog["Z2"])


def test_classify_symmetric_in_arguments():
    catalog = finite_catalog()
    for a, b in itertools.combinations(catalog.values(), 2):
        if a.order() + b.order() - 1 <= 10:
            assert classify(a, b) == classify(b, a)


def test_verify_classification_catalog():
    catalog = finite_catalog()
    for a, b in itertools.combinations_with_replacement(catalog.values(), 2):
        if a.order() + b.order() - 1 <= 10:
            assert verify_classification(a, b), (a, b)


def test_expected_orders():
    assert glued_order(CyclicGroup(2), CyclicGroup(2)) == 6
    assert glued_order(CyclicGroup(3), CyclicGroup(3)) == 60
    assert glued_order(CyclicGroup(4), CyclicGroup(3)) == math.factorial(6)


def test_schreier_sims_agrees_with_closure_on_small_products():
    """Every catalog product on at most 8 points, against brute-force closure."""
    catalog = finite_catalog()
    for a, b in itertools.combinations_with_replacement(catalog.values(), 2):
        if a.order() + b.order() - 1 <= 8:
            gens = realize_finite(a, b)
            assert schreier_sims_order(gens) == len(mulclose(gens)), (a, b)


def test_generators_generate_every_catalog_factor():
    for G in list(finite_catalog().values()) + [CyclicGroup(1)]:
        gens = G.generators()
        reached = {G.identity}
        frontier = list(reached)
        while frontier:
            x = frontier.pop()
            for s in gens:
                y = G.mul(x, s)
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        assert reached == set(G.elements()), G
    assert CyclicGroup(1).generators() == []


def test_a_table_factor_picks_its_generators_once(monkeypatch):
    """Light's associativity test at parse time and glued_order share one
    greedy closure per handle."""
    picks = 0
    original = groups.GroupHandle._pick_generators

    def counting(self):
        nonlocal picks
        picks += 1
        return original(self)

    monkeypatch.setattr(groups.GroupHandle, "_pick_generators", counting)
    s3 = groups.parse_group({"type": "table", "table": groups.symmetric_group_table(3)})
    assert picks == 1
    assert glued_order(s3, CyclicGroup(2)) == math.factorial(7)
    assert picks == 2  # the second is Z2's


def test_glued_order_leaves_no_reference_cycle():
    """A self-referring closure would park the engine's orbits until a
    generation-2 collection, and raise the peak memory of a run."""
    gc.disable()
    try:
        gc.collect()
        glued_order(CyclicGroup(9), CyclicGroup(10))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_glued_order_inverts_each_transversal_entry_once(monkeypatch):
    """18 points: Sym(18) has 17 + 16 + ... + 1 = 153 non-identity
    transversal entries, each inverted at most once, and the
    composition count stays far below the 82,661 of a non-incremental
    engine over every element's translation."""
    calls = {"compose": 0, "inverse": 0}
    compose, inverse = groups.compose_dense, groups.inverse_dense

    def counted_compose(p, q):
        calls["compose"] += 1
        return compose(p, q)

    def counted_inverse(p):
        calls["inverse"] += 1
        return inverse(p)

    monkeypatch.setattr(groups, "compose_dense", counted_compose)
    monkeypatch.setattr(groups, "inverse_dense", counted_inverse)
    assert glued_order(CyclicGroup(9), CyclicGroup(10)) == math.factorial(18)
    assert 0 < calls["inverse"] <= 153
    assert 0 < calls["compose"] < 30000


def test_glued_order_at_31_points():
    assert glued_order(CyclicGroup(16), CyclicGroup(16)) == math.factorial(31)


def test_one_bracketing_of_an_iterated_product_at_the_point_cap():
    """(C3 glued C3) glued C5: C3 glued C3 is Alt(5), whose 60 elements
    and C5 make 64 points, the order engine's cap.  The other bracketing,
    C3 glued Alt(7), has 2,522 points."""
    alt5 = sorted(mulclose(realize_finite(CyclicGroup(3), CyclicGroup(3))))
    assert len(alt5) == 60
    position = {p: i for i, p in enumerate(alt5)}
    A5 = groups.TableGroup([[position[compose_dense(p, q)] for q in alt5] for p in alt5])
    assert A5.order() + 5 - 1 == groups.POINT_CAP
    assert classify(A5, CyclicGroup(5)) == "Alt"
    assert glued_order(A5, CyclicGroup(5)) == math.factorial(64) // 2


def test_compose_dense_convention():
    p = (1, 0, 2)
    q = (0, 2, 1)
    assert compose_dense(p, q) == tuple(p[q[i]] for i in range(3))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_compose_dense_below_the_gather(n):
    """At n = 0 and 1 itemgetter would take no index or return a bare item."""
    for p, q in itertools.product(itertools.permutations(range(n)), repeat=2):
        assert compose_dense(p, q) == tuple(p[i] for i in q)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=200).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n)))))
def test_compose_dense_is_the_pointwise_gather(pair):
    p, q = map(tuple, pair)
    assert compose_dense(p, q) == tuple(p[i] for i in q)
