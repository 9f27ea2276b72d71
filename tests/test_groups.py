"""Factor-group catalog: laws, balls, orders, and the order engine."""

from __future__ import annotations

import itertools
import math
import re
import time
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import groups
from gluedprod import (
    BASE,
    BudgetError,
    GroupSpecError,
    IntegersGroup,
    MembershipError,
    Point,
    PvContext,
    parse_group,
    schreier_sims_order,
    three_cycle,
)
from gluedprod.groups import (
    CyclicGroup,
    CyclicPowerGroup,
    FreeGroup,
    LatticeGroup,
    TableGroup,
    cyclic_table,
    direct_product_table,
    format_value,
    symmetric_group_table,
)

from conftest import closure_picks, finite_catalog, mulclose
from test_numbering import shifted_cyclic


ALL_SPECS = [
    {"type": "cyclic", "n": 5},
    {"type": "cyclic", "n": 12},
    {"type": "integers"},
    {"type": "lattice", "d": 2},
    {"type": "lattice", "d": 3},
    {"type": "free", "rank": 2},
    {"type": "table", "table": cyclic_table(6)},
    {"type": "table", "table": symmetric_group_table(3)},
]


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s["type"] + str(s.get("n", s.get("d", s.get("rank", "")))))
def test_group_laws_on_random_triples(spec):
    G = parse_group(spec)
    rng = Random(7)
    pool = G.ball(3) if not G.is_finite else G.elements()
    for _ in range(1000):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert G.mul(G.mul(x, y), z) == G.mul(x, G.mul(y, z))
        assert G.mul(G.identity, x) == x
        assert G.mul(x, G.identity) == x
        assert G.mul(G.inv(x), x) == G.identity


def test_parse_group_examples():
    assert parse_group({"type": "cyclic", "n": 5}).order() == 5
    free2 = parse_group({"type": "free", "rank": 2})
    assert free2.parse("aBa") == "aBa"
    assert free2.parse("aAb") == "b"
    z2 = parse_group({"type": "table", "table": [[0, 1], [1, 0]]})
    assert z2.order() == 2
    assert z2.element_order(1) == 2


def _intercalate_swapped_z600() -> list[list[int]]:
    """Z/600 with (3,5), (303,305) trading values with (3,305), (303,5):
    still a Latin square with identity 0, but 3 * 5 is now 308, not 8."""
    table = cyclic_table(600)
    for a in (3, 303):
        table[a][5], table[a][305] = table[a][305], table[a][5]
    return table


# sizes and entries must be ints, not bools or floats, and a table a list of lists
MALFORMED_SPECS = [
    {"type": "table", "table": [1, 2]},
    {"type": "table", "table": None},
    {"type": "table", "table": "01"},
    {"type": "table", "table": [[0, 1], [1, 0.0]]},
    {"type": "table", "table": [[False, True], [True, False]]},
    {"type": "cyclic", "n": True},
    {"type": "lattice", "d": True},
    {"type": "free", "rank": True},
    {"type": "table", "table": _intercalate_swapped_z600()},
]


# a non-associative 6-element loop generated by 1 and 2
LOOP = [[0, 1, 2, 3, 4, 5], [1, 0, 5, 4, 3, 2], [2, 3, 4, 5, 0, 1],
        [3, 2, 1, 0, 5, 4], [4, 5, 3, 2, 1, 0], [5, 4, 0, 1, 2, 3]]


def test_a_loop_whose_generators_look_associative_is_refused():
    """A non-associative 6-element loop generated by 1 and 2; the triples
    through the generator 1 alone are all associative, so only a test
    over every generator, 2 included, refuses it."""
    with pytest.raises(GroupSpecError, match=r"^table is not associative at \(1,2,2\)$"):
        parse_group({"type": "table", "table": LOOP})


def _dihedral_table(m: int) -> list[list[int]]:
    """The dihedral group of order 2m, r^a s^b indexed 2a + b."""
    def mul(x, y):
        (a, b), (c, d) = divmod(x, 2), divmod(y, 2)
        return 2 * ((a + (-c if b else c)) % m) + (b + d) % 2
    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def _relabelled(table: list[list[int]], seed: int) -> list[list[int]]:
    """The same group with its elements renamed by a seeded shuffle."""
    n = len(table)
    label = list(range(n))
    Random(seed).shuffle(label)
    out = [[0] * n for _ in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        out[label[i]][label[j]] = label[table[i][j]]
    return out


PICK_TABLES = {
    **{f"C{n}": cyclic_table(n) for n in range(1, 13)},
    "V4": direct_product_table(cyclic_table(2), cyclic_table(2)),
    "S3": symmetric_group_table(3),
    "D4": _dihedral_table(4),
    "Z2xZ4": direct_product_table(cyclic_table(2), cyclic_table(4)),
    "Z2^3": direct_product_table(direct_product_table(cyclic_table(2), cyclic_table(2)),
                                 cyclic_table(2)),
    "Z3xZ3": direct_product_table(cyclic_table(3), cyclic_table(3)),
    "D5": _dihedral_table(5),
    "Sym(4)": symmetric_group_table(4),
    "Sym(5)xC3": direct_product_table(symmetric_group_table(5), cyclic_table(3)),
}


@pytest.mark.parametrize("name", ["catalog", *PICK_TABLES, "loop"])
def test_the_orbit_walk_picks_what_the_closure_picks(name, monkeypatch):
    """The generators against the two-sided closure oracle: on the
    catalog factors, on each table as built and under three seeded
    relabellings, and on LOOP, whose picks Light's test relies on."""
    if name == "catalog":
        handles = list(finite_catalog().values())
    elif name == "loop":
        monkeypatch.setattr(TableGroup, "_check_associativity", lambda self: None)
        handles = [TableGroup(LOOP)]
    else:
        table = PICK_TABLES[name]
        handles = [TableGroup(t) for t in [table] + [_relabelled(table, s) for s in range(3)]]
    for G in handles:
        assert G.generators() == closure_picks(G), G
    if name == "loop":
        assert handles[0].generators() == [1, 2]
        monkeypatch.undo()
        with pytest.raises(GroupSpecError, match=r"^table is not associative at \(1,2,2\)$"):
            TableGroup(LOOP)


@pytest.mark.parametrize("make", [lambda: CyclicGroup(2520),
                                  lambda: TableGroup(symmetric_group_table(5))],
                         ids=["C2520", "Sym(5)"])
def test_the_generator_pick_makes_one_product_per_element_and_pick(make):
    """Exactly |G| |S| products; the two-sided closure makes about
    2 * 2520^2 on C2520."""
    G = make()
    G._generators = None  # a table picked once already, for Light's test
    calls = 0
    mul = G.mul

    def counting(a, b):
        nonlocal calls
        calls += 1
        return mul(a, b)

    G.mul = counting
    gens = G.generators()
    assert calls == G.order() * len(gens)


def test_parse_group_rejects_bad_specs():
    with pytest.raises(GroupSpecError):
        parse_group({"type": "nope"})
    for spec in MALFORMED_SPECS:
        with pytest.raises(GroupSpecError):
            parse_group(spec)
    with pytest.raises(GroupSpecError):
        parse_group({"type": "table", "table": [[0, 1], [0, 1]]})
    with pytest.raises(GroupSpecError):
        # a Latin square without identity: the rows are the two nontrivial
        # permutations of {0,1,2} composed, never fixing everything
        parse_group({"type": "table", "table": [[1, 2, 0], [2, 0, 1], [0, 1, 2]][::-1]})
    with pytest.raises(GroupSpecError, match=r"table is not associative at \(\d+,\d+,\d+\)"):
        # Latin square failing associativity (order-5 quasigroup)
        parse_group({
            "type": "table",
            "table": [
                [0, 1, 2, 3, 4],
                [1, 0, 3, 4, 2],
                [2, 4, 0, 1, 3],
                [3, 2, 4, 0, 1],
                [4, 3, 1, 2, 0],
            ],
        })


def test_ball_integers():
    Z = parse_group({"type": "integers"})
    assert sorted(int(x) for x in Z.ball(2)) == [-2, -1, 0, 1, 2]
    for n in range(8):
        assert len(Z.ball(n)) == 2 * n + 1


def test_ball_free_rank2():
    F = parse_group({"type": "free", "rank": 2})
    assert set(F.ball(1)) == {"", "a", "A", "b", "B"}
    # closed-form count for reduced words of length <= n
    for n in range(4):
        assert len(F.ball(n)) == 1 + sum(4 * 3 ** (k - 1) for k in range(1, n + 1))


def test_ball_lattice_against_enumeration():
    L = parse_group({"type": "lattice", "d": 2})
    want = {
        (x, y)
        for x in range(-3, 4)
        for y in range(-3, 4)
        if abs(x) + abs(y) <= 1
    }
    assert set(L.ball(1)) == want
    assert len(want) == 5


def _sphere_by_sorting(d: int, r: int) -> list[tuple[int, ...]]:
    """The lattice sphere as it was once built: every point, then sorted."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            for c in (remaining, -remaining) if remaining else (0,):
                out.append(prefix + (c,))
            return
        for a in range(-remaining, remaining + 1):
            rec(prefix + (a,), remaining - abs(a), slots - 1)

    rec((), r, d)
    return sorted(out)


def _words_by_layer(letters: list[str]):
    """The free group's words as they were once built: a whole layer at a time."""
    layer = [""]
    yield ""
    while True:
        nxt = [w + c for w in layer for c in letters
               if not (w and w[-1] == c.swapcase())]
        yield from nxt
        layer = nxt


def test_lattice_spheres_keep_their_order():
    for d in range(1, 6):
        G = LatticeGroup(d)
        for r in range(7):
            assert list(G._sphere(r)) == _sphere_by_sorting(d, r), (d, r)


def test_free_words_keep_their_order():
    for rank in range(1, 4):
        F = FreeGroup(rank)
        count = len(F.ball(6))
        assert list(itertools.islice(F.enumerate_elements(), count)) == \
            list(itertools.islice(_words_by_layer(F.letters), count))


def test_a_wide_lattice_ball_is_built_without_recursion():
    assert len(LatticeGroup(2000).ball(1)) == 4001


def test_a_lattice_ball_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 129)
    assert len(LatticeGroup(3).ball(4)) == 129
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 128)
    with pytest.raises(BudgetError):
        LatticeGroup(3).ball(4)
    monkeypatch.undo()
    monkeypatch.setattr(LatticeGroup, "enumerate_elements",
                        lambda self: pytest.fail("the ball was enumerated"))
    with pytest.raises(BudgetError):
        LatticeGroup(2000).ball(2)  # 8,000,001 elements of 2000 ints each


BALL_KINDS = [IntegersGroup(), *map(LatticeGroup, range(1, 6)), *map(FreeGroup, range(1, 4)),
              CyclicGroup(1), CyclicGroup(6), CyclicPowerGroup(3, 2),
              TableGroup(symmetric_group_table(3)), shifted_cyclic(4, 2)]


@pytest.mark.parametrize("G", BALL_KINDS, ids=repr)
def test_ball_is_the_length_filtered_enumeration(G):
    """The first |B_r| elements of the enumeration are those of length <= r."""
    for radius in range(-1, 7):
        want = list(itertools.takewhile(lambda x: G.length(x) <= radius,
                                        G.enumerate_elements()))
        assert G.ball(radius) == want, radius


@pytest.mark.parametrize("G, radius", [(IntegersGroup(), 10**7), (LatticeGroup(2), 10**5),
                                       (LatticeGroup(2000), 10**6), (FreeGroup(26), 10**7),
                                       (FreeGroup(1), 10**7)],
                         ids=["Z", "Z^2", "Z^2000", "F_26", "F_1"])
def test_an_over_cap_ball_is_refused_from_its_size(G, radius, monkeypatch):
    monkeypatch.setattr(type(G), "enumerate_elements",
                        lambda self: pytest.fail("the ball was enumerated"))
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(BudgetError, match=re.escape(
                f"ball of radius {radius} in {G!r} exceeds cap 1000000")):
            G.ball(radius)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.05
    assert peak < 10**6


@pytest.mark.parametrize("G, length", [(LatticeGroup(12), 6), (FreeGroup(8), 5)],
                         ids=["Z^12", "F_8"])
def test_enumeration_holds_one_element_at_a_time(G, length):
    """Reaching the first element of a length costs no whole sphere or layer
    (53 and 54 MB when they were built whole)."""
    tracemalloc.start()
    try:
        first = next(x for x in G.enumerate_elements() if G.length(x) == length)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.length(first) == length
    assert peak < 5 * 10**6


def test_ball_monotone_and_product_closure():
    F = parse_group({"type": "free", "rank": 2})
    for n in range(3):
        assert set(F.ball(n)) <= set(F.ball(n + 1))
    # ball(n) equals the n-fold products of ball(1) kept at length <= n
    b1 = F.ball(1)
    closure = {""}
    for _ in range(3):
        closure = {F.mul(x, y) for x in closure for y in b1}
    assert {w for w in closure if F.length(w) <= 3} == set(F.ball(3))


def test_ball_cap(monkeypatch):
    monkeypatch.setattr(groups, "DEFAULT_BALL_CAP", 100)
    Z = parse_group({"type": "integers"})
    with pytest.raises(BudgetError):
        Z.ball(10**7)


def test_element_orders():
    z4 = parse_group({"type": "cyclic", "n": 4})
    assert z4.element_order(2) == 2
    Z = parse_group({"type": "integers"})
    assert Z.element_order(3) is None
    z6 = parse_group({"type": "cyclic", "n": 6})
    # power iteration oracle: 4, 4+4=2, 2+4=0
    powers = [4]
    while powers[-1] != 0:
        powers.append(z6.mul(powers[-1], 4))
    assert len(powers) == 3
    assert z6.element_order(4) == 3


def test_free_reduction_and_inverse():
    F = parse_group({"type": "free", "rank": 2})
    assert F.mul("aB", "ba") == "aa"
    assert F.inv("aBa") == "AbA"
    assert F.mul("aBa", F.inv("aBa")) == ""
    rng = Random(3)
    pool = F.ball(3)
    for _ in range(300):
        w = rng.choice(pool)
        # stored words carry no adjacent letter-inverse pair
        assert all(w[i] != w[i + 1].swapcase() for i in range(len(w) - 1))


def test_schreier_sims_small_cases():
    assert schreier_sims_order([(1, 0)]) == 2
    assert schreier_sims_order([(1, 0, 2), (1, 2, 0)]) == 6
    assert schreier_sims_order([(1, 2, 3, 4, 0)]) == 5
    assert schreier_sims_order([]) == 1
    with pytest.raises(GroupSpecError):
        schreier_sims_order([(0, 0, 1)])


def test_a_group_that_is_not_full_reaches_the_completion(monkeypatch):
    """<(0 1 2 3 4)> is transitive, but none of its elements is a 3-cycle,
    so the search finds no certificate and the completion finds the
    order."""
    calls = 0
    original = groups._StabilizerChain.complete

    def counting(self, i):
        nonlocal calls
        calls += 1
        return original(self, i)

    monkeypatch.setattr(groups._StabilizerChain, "complete", counting)
    assert schreier_sims_order([(1, 2, 3, 4, 0)]) == 5
    assert calls > 0


def _refuse(*args):
    raise AssertionError("refused call ran")


def test_a_ten_point_product_needs_no_completion(monkeypatch):
    """The translations by the greedy generators of relabelled tables of C6
    and C5 (10 points, Sym(10)).  A search of seeded random walks once
    stopped one level short of 10! on them and fell through to the
    completion."""
    monkeypatch.setattr(groups._StabilizerChain, "complete", _refuse)
    gens = [(1, 2, 0, 4, 5, 3, 6, 7, 8, 9), (3, 4, 5, 1, 2, 0, 6, 7, 8, 9),
            (6, 1, 2, 3, 4, 5, 7, 9, 0, 8)]
    assert schreier_sims_order(gens) == math.factorial(10)


def test_an_intransitive_group_skips_the_search(monkeypatch):
    """Sym(3) x Sym(3) on 6 points: the first orbit has 3 points, so the
    group is neither Alt nor Sym, and the completion runs at once."""
    monkeypatch.setattr(groups, "_three_cycle", _refuse)
    gens = [(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5), (0, 1, 2, 4, 5, 3), (0, 1, 2, 4, 3, 5)]
    assert schreier_sims_order(gens) == 36


def test_schreier_sims_matches_bruteforce_closure():
    rng = Random(11)
    for trial in range(40):
        n = rng.randint(2, 7)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = list(range(n))
            rng.shuffle(p)
            gens.append(tuple(p))
        closure = mulclose(gens, limit=5040)
        assert schreier_sims_order(gens) == len(closure)


def test_schreier_sims_generator_fixing_first_point():
    # a generator fixing the first moved point of the others still counts
    gens = [(1, 0, 2), (0, 2, 1)]
    assert schreier_sims_order(gens) == len(mulclose(gens))


@st.composite
def generator_sets(draw):
    """1 to 3 permutations of at most 7 points: any, intransitive (each
    fixes a split into two point sets) or block-preserving (each permutes
    the blocks of k consecutive points)."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["any", "intransitive", "blocks"]))
    cut = draw(st.integers(0, n))
    k = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if shape == "any":
            p = draw(st.permutations(range(n)))
        elif shape == "intransitive":
            p = draw(st.permutations(range(cut))) + draw(st.permutations(range(cut, n)))
        else:
            blocks = draw(st.permutations(range(n // k)))
            p = [blocks[j] * k + r
                 for j in range(n // k) for r in draw(st.permutations(range(k)))]
        gens.append(tuple(p))
    return gens


@settings(max_examples=150, deadline=None)
@given(generator_sets())
def test_schreier_sims_matches_bruteforce_closure_on_any_shape(gens):
    assert schreier_sims_order(gens) == len(mulclose(gens))


@st.composite
def shuffles_and_short_cycles(draw):
    """1 to 3 permutations of at most 7 points, each a shuffle or a cycle
    on 2 to 4 points, so that groups that are neither Alt nor Sym are
    common."""
    n = draw(st.integers(1, 7))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            gens.append(tuple(draw(st.permutations(range(n)))))
            continue
        points = draw(st.permutations(range(n)))[:draw(st.integers(2, 4))]
        p = list(range(n))
        for a, b in zip(points, points[1:] + points[:1]):
            p[a] = b
        gens.append(tuple(p))
    return gens


@settings(max_examples=150, deadline=None)
@given(shuffles_and_short_cycles())
def test_schreier_sims_matches_bruteforce_closure_on_shuffles_and_short_cycles(gens):
    assert schreier_sims_order(gens) == len(mulclose(gens))


def _cycles(n: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation of 0..n-1 with the given cycles, points counted from 1."""
    p = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            p[a - 1] = b - 1
    return tuple(p)


@pytest.mark.parametrize("gens, order", [
    # the Mathieu groups on their natural points
    ([_cycles(11, tuple(range(1, 12))), _cycles(11, (3, 7, 11, 8), (4, 10, 5, 6))], 7920),
    ([_cycles(12, tuple(range(1, 12))), _cycles(12, (3, 7, 11, 8), (4, 10, 5, 6)),
      _cycles(12, (1, 12), (2, 11), (3, 6), (4, 8), (5, 9), (7, 10))], 95040),
    # C2 wr C3: a swap in one block of {1,2}, {3,4}, {5,6}, and the block rotation
    ([_cycles(6, (1, 2)), _cycles(6, (1, 3, 5), (2, 4, 6))], 24),
])
def test_schreier_sims_pinned_orders(gens, order):
    """Groups that are neither Alt nor Sym, which glued products never give."""
    assert schreier_sims_order(gens) == order


@pytest.mark.parametrize("call, text", [
    (lambda: CyclicGroup(5).parse(7), "7 is not a canonical element of cyclic(5)"),
    (lambda: IntegersGroup().elements(), "integers is infinite"),
    (lambda: CyclicPowerGroup(0, 1), "cyclic order must be a positive integer, got 0"),
    (lambda: CyclicPowerGroup(3, 0), "power must be positive, got 0"),
    (lambda: TableGroup([[0, 1], [1]]), "table must be a nonempty square matrix"),
    (lambda: TableGroup([[0, 0], [1, 1]]), "table rows must each permute 0..n-1"),
    (lambda: TableGroup([[False, True], [True, False]]), "table must be a list of lists of ints"),
    (lambda: TableGroup([[0, 1], [1, 0.0]]), "table must be a list of lists of ints"),
    (lambda: TableGroup([[0, 1], (1, 0)]), "table must be a list of lists of ints"),
    (lambda: TableGroup([[0, 1], [0, 1]]), "table columns must each permute 0..n-1"),
    (lambda: TableGroup([[1, 2, 0], [2, 0, 1], [0, 1, 2]][::-1]),
     "table has no two-sided identity"),
    (lambda: parse_group([1]), "group spec must be an object with a 'type': [1]"),
    (lambda: parse_group({"type": "table"}), "table spec needs a 'table' matrix"),
], ids=["non-canonical-value", "infinite-elements", "cyclic-power-order", "cyclic-power-power",
        "table-shape", "table-row", "table-bool-entry", "table-float-entry", "table-tuple-row",
        "table-column", "table-without-identity", "spec-not-an-object",
        "table-spec-without-matrix"])
def test_a_bad_spec_is_refused_with_its_reason(call, text):
    with pytest.raises(GroupSpecError, match=f"^{re.escape(text)}$"):
        call()


def test_catalog_builds():
    catalog = finite_catalog()
    assert catalog["S3"].order() == 6
    assert catalog["V4"].order() == 4
    assert all(catalog["V4"].element_order(x) <= 2 for x in catalog["V4"].elements())
    for G in catalog.values():
        elems = G.elements()
        assert len(elems) == len(set(elems)) == G.order()


@pytest.mark.parametrize("m, d", [(3, 1), (5, 2), (9, 2), (3, 3)])
def test_cyclic_power_matches_the_direct_product_table(m, d):
    """(Z/m)^d on int tuples against the table of d copies of Z/m: the
    tuple at position k is the base-m digits of the table's element k."""
    table = cyclic_table(m)
    for _ in range(d - 1):
        table = direct_product_table(table, cyclic_table(m))
    oracle = TableGroup(table)
    G = CyclicPowerGroup(m, d)
    elements = G.elements()
    assert G.order() == oracle.order() == len(elements)
    assert G.identity == elements[0] and oracle.identity == 0
    assert elements == sorted(elements, key=G.sort_key)
    assert [G.length(x) for x in elements] == [0] + [1] * (len(elements) - 1)

    def index(x):
        k = 0
        for c in x:
            k = k * m + c
        return k

    assert [index(x) for x in elements] == oracle.elements()
    for x in elements:
        assert index(G.inv(x)) == oracle.inv(index(x))
        for y in elements:
            assert index(G.mul(x, y)) == oracle.mul(index(x), index(y))


def test_large_table_uses_sampled_associativity():
    # Light's test checks a large table exactly; a valid group passes
    G = parse_group({"type": "table", "table": cyclic_table(70)})
    assert G.order() == 70
    assert G.mul(69, 1) == 0


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s["type"] + str(s.get("n", s.get("d", s.get("rank", "")))))
def test_proper_length_laws(spec):
    G = parse_group(spec)
    assert G.length(G.identity) == 0
    rng = Random(19)
    pool = G.ball(3) if not G.is_finite else G.elements()
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        assert G.length(x) == G.length(G.inv(x))
        assert G.length(G.mul(x, y)) <= G.length(x) + G.length(y)
        assert G.length(x) >= 0


def test_enumeration_matches_sort_key():
    for spec in ALL_SPECS:
        G = parse_group(spec)
        first = list(itertools.islice(G.enumerate_elements(), 20))
        assert first[0] == G.identity
        assert first == sorted(first, key=G.sort_key)
        assert len(set(first)) == len(first)


@pytest.mark.parametrize("G", [CyclicGroup(6), CyclicPowerGroup(3, 2),
                               TableGroup(symmetric_group_table(3)), shifted_cyclic(4, 2)],
                         ids=repr)
def test_a_finite_kind_inherits_the_order_of_its_enumeration(G):
    """The inherited sort key realises the enumeration, and the inherited
    length is 0 at the identity only; the shifted table's identity is 2,
    so its enumeration is 2, 0, 1, 3."""
    elements = G.elements()
    assert elements == sorted(elements, key=G.sort_key)
    assert elements[0] == G.identity
    assert [G.length(x) for x in elements] == [0] + [1] * (len(elements) - 1)


FIVE_KINDS = [
    {"type": "integers"},
    {"type": "cyclic", "n": 5},
    {"type": "lattice", "d": 2},
    {"type": "free", "rank": 2},
    {"type": "table", "table": symmetric_group_table(3)},
]


@pytest.mark.parametrize("spec", FIVE_KINDS, ids=lambda s: s["type"])
def test_values_round_trip_through_their_text(spec):
    G = parse_group(spec)
    values = G.elements() if G.is_finite else G.ball(3)
    for x in values:
        assert G.is_canonical(x)
        assert G.parse(format_value(x)) == x
        assert G.parse(x) == x  # a canonical value passes through
    assert len({format_value(x) for x in values}) == len(values)


def test_ball_order_is_pinned_as_text():
    def ball_text(spec, radius):
        G = parse_group(spec)
        return [format_value(x) for x in G.ball(radius)]

    assert ball_text({"type": "integers"}, 2) == ["0", "1", "-1", "2", "-2"]
    assert ball_text({"type": "cyclic", "n": 4}, 1) == ["0", "1", "2", "3"]
    assert ball_text({"type": "lattice", "d": 2}, 1) == ["0,0", "-1,0", "0,-1", "0,1", "1,0"]
    assert ball_text({"type": "free", "rank": 2}, 1) == ["", "a", "A", "b", "B"]
    table = {"type": "table", "table": shifted_cyclic(4, 2).table}
    assert parse_group(table).identity == 2
    assert ball_text(table, 1) == ["2", "0", "1", "3"]


def test_non_canonical_literals_canonicalise():
    assert parse_group({"type": "integers"}).parse("+1") == 1
    assert parse_group({"type": "integers"}).parse("01") == 1
    assert parse_group({"type": "cyclic", "n": 3}).parse("-1") == 2
    assert parse_group({"type": "lattice", "d": 2}).parse("1,00") == (1, 0)
    assert parse_group({"type": "free", "rank": 1}).parse("aA") == ""
    assert parse_group({"type": "table", "table": cyclic_table(3)}).parse("02") == 2


@pytest.mark.parametrize("spec, literal, message", [
    ({"type": "integers"}, "x", "bad integer element 'x'"),
    ({"type": "cyclic", "n": 3}, "1.5", "bad cyclic element '1.5'"),
    ({"type": "lattice", "d": 2}, "1,y", "bad lattice element '1,y'"),
    ({"type": "lattice", "d": 2}, "1", "lattice element '1' has 1 coordinates, expected 2"),
    ({"type": "free", "rank": 1}, "ab", "letter 'b' not among the 1 generators"),
    ({"type": "table", "table": cyclic_table(3)}, "3", "table element 3 out of range 0..2"),
    ({"type": "table", "table": cyclic_table(3)}, "", "bad table element ''"),
])
def test_bad_literals_keep_their_messages(spec, literal, message):
    with pytest.raises(GroupSpecError) as err:
        parse_group(spec).parse(literal)
    assert str(err.value) == message


def test_from_perm_still_checks_canonical_points():
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    assert ctx.from_perm(three_cycle(BASE, Point("g", 1), Point("h", 1))).a
    for bad in (Point("g", "1"), Point("g", 0), Point("h", 1.0)):
        with pytest.raises(MembershipError):
            ctx.from_perm(three_cycle(BASE, bad, Point("h", 2)))
