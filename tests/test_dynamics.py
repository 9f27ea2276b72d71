"""Free-semigroup words and Folner boundary ratios."""

from __future__ import annotations

from fractions import Fraction

import pytest

from gluedprod import BudgetError, GroupSpecError, IntegersGroup, LatticeGroup, Point, PvContext
from gluedprod import dynamics
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
    z2 = PvContext(LatticeGroup(2), IntegersGroup())
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 49)
    assert len(folner_set(z2, 3).points) == 49
    monkeypatch.setattr(dynamics, "DEFAULT_BALL_CAP", 48)
    with pytest.raises(BudgetError, match="Folner box of radius 3 in lattice.2. exceeds cap 48"):
        folner_set(z2, 3)
    monkeypatch.undo()
    monkeypatch.setattr(dynamics, "Point", lambda *args: pytest.fail("a point was built"))
    with pytest.raises(BudgetError):
        folner_set(PvContext(LatticeGroup(3), IntegersGroup()), 50)  # 101^3 points


def test_folner_no_scheme():
    from gluedprod import FreeGroup

    ctx = PvContext(FreeGroup(2), IntegersGroup())
    with pytest.raises(GroupSpecError):
        folner_set(ctx, 2)
