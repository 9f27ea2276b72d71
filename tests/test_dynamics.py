"""Free-semigroup words and Folner boundary ratios."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    BudgetError,
    CyclicGroup,
    FinPerm,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    Point,
    PvContext,
    TableGroup,
    symmetric_group_table,
)
from gluedprod import dynamics
from gluedprod.cli import main
from gluedprod.dynamics import folner_ratio, folner_set, free_semigroup_check


def test_pong_small(zz_fast):
    report = free_semigroup_check(zz_fast, "1", "1", 3)
    assert report.words_checked == 14  # 2^4 - 2
    assert report.ok


def test_pong_length_eight(zz_fast):
    report = free_semigroup_check(zz_fast, "1", "1", 8)
    assert report.words_checked == 510
    assert report.distinct == 510
    assert report.first_collision is None


def test_pong_other_elements(zz_fast):
    for g, h in (("2", "3"), ("-1", "5")):
        report = free_semigroup_check(zz_fast, g, h, 8)
        assert report.ok, (g, h)


def test_pong_single_letters_differ(zz_fast):
    report = free_semigroup_check(zz_fast, "4", "7", 1)
    assert report.words_checked == 2
    assert report.distinct == 2


def test_pong_rejects_torsion():
    from gluedprod import CyclicGroup

    ctx = PvContext(IntegersGroup(), CyclicGroup(5))
    with pytest.raises(GroupSpecError):
        free_semigroup_check(ctx, "1", "1", 3)
    with pytest.raises(GroupSpecError):
        free_semigroup_check(ctx, "0", "1", 3)


def test_pong_cap(zz_fast):
    with pytest.raises(BudgetError):
        free_semigroup_check(zz_fast, "1", "1", 100)


def test_folner_set_interval(zz_fast):
    F = folner_set(zz_fast, 1)
    assert F.points == {Point("g", 1), Point("g", 2), Point("g", 3)}
    F3 = folner_set(zz_fast, 3)
    assert len(F3.points) == 7
    values = sorted(int(p.payload) for p in F3.points)
    assert values == list(range(1, 8))
    for n in range(1, 30):
        assert all(p.payload != 0 for p in folner_set(zz_fast, n).points)


def test_folner_ratios(zz_fast):
    for n in range(1, 101):
        F = folner_set(zz_fast, n)
        assert folner_ratio(zz_fast, F, zz_fast.from_g("1")) == Fraction(2, 2 * n + 1)
        assert folner_ratio(zz_fast, F, zz_fast.from_h("1")) == 0
        assert folner_ratio(zz_fast, F, zz_fast.identity) == 0


def test_folner_ratio_matches_direct_set_computation(zz_fast):
    F = folner_set(zz_fast, 5)
    s = zz_fast.from_g("1")
    image = {zz_fast.act(s, p) for p in F.points}
    expected = Fraction(len(image ^ F.points), len(F.points))
    assert folner_ratio(zz_fast, F, s) == expected == Fraction(2, 11)


def test_folner_ratio_h_fixes_set(zz_fast):
    F = folner_set(zz_fast, 4)
    for k in ("1", "-3", "9"):
        assert folner_ratio(zz_fast, F, zz_fast.from_h(k)) == 0


def test_folner_lattice_boxes():
    ctx = PvContext(LatticeGroup(2), IntegersGroup())
    F = folner_set(ctx, 1)
    assert len(F.points) == 9
    assert all(p.payload != ctx.G.identity for p in F.points)
    ratio = folner_ratio(ctx, F, ctx.from_g("1,0"))
    assert ratio == Fraction(2 * 3, 9)  # two displaced columns of the box


def test_folner_box_over_the_cap_is_refused_before_it_is_built(monkeypatch):
    """Only reading the points of a box is bounded; its ratio never is."""
    z2 = PvContext(LatticeGroup(2), IntegersGroup())
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 49)
    assert len(folner_set(z2, 3).points) == 49
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 48)
    F = folner_set(z2, 3)
    with pytest.raises(BudgetError, match="Folner box of radius 3 in lattice.2. exceeds cap 48"):
        F.points
    assert folner_ratio(z2, F, z2.from_g("1,0")) == Fraction(2, 7)
    monkeypatch.undo()
    monkeypatch.setattr(dynamics, "Point", lambda *args: pytest.fail("a point was built"))
    with pytest.raises(BudgetError):
        folner_set(PvContext(LatticeGroup(3), IntegersGroup()), 50).points  # 101^3 points


def test_folner_no_scheme():
    from gluedprod import FreeGroup

    ctx = PvContext(FreeGroup(2), IntegersGroup())
    with pytest.raises(GroupSpecError):
        folner_set(ctx, 2)


def pointwise_ratio(ctx, F, s) -> Fraction:
    """The oracle: act on every point of the box."""
    image = {ctx.act(s, p) for p in F.points}
    return Fraction(len(image ^ F.points), len(F.points))


# Z x S3 is the context whose residuals may be odd
FOLNER_CONTEXTS = {
    "Z x Z": PvContext(IntegersGroup(), IntegersGroup()),
    "Z^2 x Z": PvContext(LatticeGroup(2), IntegersGroup()),
    "Z^3 x Z": PvContext(LatticeGroup(3), IntegersGroup()),
    "Z x Z/3": PvContext(IntegersGroup(), CyclicGroup(3)),
    "Z x S3": PvContext(IntegersGroup(), TableGroup(symmetric_group_table(3))),
}


@st.composite
def folner_cases(draw):
    """A context, a radius and an element whose translation may be wider
    than the box and whose residual moves points in and around it."""
    ctx = FOLNER_CONTEXTS[draw(st.sampled_from(sorted(FOLNER_CONTEXTS)))]
    n = draw(st.integers(0, 6))
    d = ctx.G.d if ctx.G.kind == "lattice" else 1

    def g_value(low, high, first=0):
        coords = tuple(draw(st.integers(low, high)) for _ in range(d))
        coords = (coords[0] + first,) + coords[1:]
        return coords if d > 1 else coords[0]

    h_values = st.sampled_from(ctx.H.elements() if ctx.H.is_finite else range(-3, 4))
    g = g_value(-2 * n - 3, 2 * n + 3)
    near = [ctx.union.g_point(g_value(-n - 1, n + 1, first=n + 1))
            for _ in range(draw(st.integers(0, 5)))]
    far = [ctx.union.h_point(draw(h_values)) for _ in range(draw(st.integers(0, 2)))]
    support = list(dict.fromkeys(near + far + [BASE] * draw(st.booleans())))
    cut = draw(st.integers(0, len(support)))
    cycles = [support[:cut], support[cut:]]
    a = FinPerm.from_cycles(cycles)
    if not a.is_even() and not ctx.mixed_symmetric:  # the even-length cycle drops a point
        a = FinPerm.from_cycles([c[:-1] if len(c) % 2 == 0 else c for c in cycles])
    return ctx, n, ctx.element(g=g, h=draw(h_values), a=a)


@settings(max_examples=300, deadline=None)
@given(folner_cases())
def test_closed_form_folner_ratio_matches_the_pointwise_count(case):
    ctx, n, s = case
    F = folner_set(ctx, n)
    assert folner_ratio(ctx, F, s) == pointwise_ratio(ctx, F, s)


def test_closed_form_counts_residual_points_in_the_box():
    ctx = FOLNER_CONTEXTS["Z^2 x Z"]
    F = folner_set(ctx, 2)
    for word in ("G:1,0 PERM:(g:1,0 g:2,0 g:3,0)", "PERM:(g:1,-2 e h:4)",
                 "G:-9,0 PERM:(g:5,2 g:1,0 h:1)", "G:0,5 PERM:(g:1,0 g:2,1 g:9,9)"):
        s = ctx.eval_word(word)
        assert any(p in F for p in s.a.support())
        assert folner_ratio(ctx, F, s) == pointwise_ratio(ctx, F, s), word


def test_box_membership_compares_coordinates():
    for name, value in (("Z x Z", lambda c: c[0]), ("Z^2 x Z", tuple), ("Z^3 x Z", tuple)):
        ctx = FOLNER_CONTEXTS[name]
        for n in (0, 1, 2):
            F = folner_set(ctx, n)
            assert len(F.points) == F.size == (2 * n + 1) ** F.d
            for c in itertools.product(range(-n - 2, 2 * n + 4), repeat=F.d):
                p = ctx.union.g_point(value(c))
                assert (p in F) == (p in F.points), (name, n, c)
            assert BASE not in F and Point("h", 1) not in F


def test_folner_ratio_builds_no_box(monkeypatch):
    ctx = FOLNER_CONTEXTS["Z^2 x Z"]
    words = ("G:1,0", "G:-1,3 PERM:(g:1,0 g:2,0 g:3,0)", "H:2 PERM:(g:201,100 e h:1)")
    expected = [pointwise_ratio(ctx, folner_set(ctx, 100), ctx.eval_word(w)) for w in words]
    assert expected[0] == Fraction(2, 201)
    monkeypatch.setattr(dynamics.FolnerSet, "points",
                        property(lambda F: pytest.fail("the box was built")))
    F = folner_set(ctx, 100)
    assert [folner_ratio(ctx, F, ctx.eval_word(w)) for w in words] == expected


def test_folner_cli_at_radius_499_acts_on_no_box_point(monkeypatch, capsys):
    monkeypatch.setattr(dynamics.FolnerSet, "points",
                        property(lambda F: pytest.fail("the box was built")))
    assert main(["folner", "--left", '{"type":"lattice","d":2}', "--n", "499",
                 "--test", "G:1,0"]) == 0
    assert capsys.readouterr().out == "2/999\n"
