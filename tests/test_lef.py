"""Finite quotients, windows, and the approximation maps."""

from __future__ import annotations

from random import Random

import pytest

from gluedprod import (
    CyclicGroup,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    MembershipError,
    Point,
    PvContext,
)
from gluedprod.finite import identity_dense
from gluedprod.lef import (
    Approximation,
    build_quotient,
    in_window,
    lef_mixed,
    random_window_element,
    window_elements,
    window_points,
)


def test_build_quotient_integers():
    q = build_quotient(IntegersGroup(), 4)
    assert q.target.order() == 9
    ball = q.source.ball(4)
    assert len({q.proj(x) for x in ball}) == len(ball)
    assert q.injectivity_radius == 4
    q17 = build_quotient(IntegersGroup(), 4, modulus=17)
    assert q17.target.order() == 17
    assert q17.injectivity_radius == 8
    with pytest.raises(GroupSpecError):
        build_quotient(IntegersGroup(), 4, modulus=7)


def test_build_quotient_lattice():
    q = build_quotient(LatticeGroup(2), 2)
    assert q.target.order() == 25
    assert q.proj("6,-1") == q.proj("1,4")  # componentwise mod 5
    ball = q.source.ball(2)
    assert len({q.proj(x) for x in ball}) == len(ball)


def test_build_quotient_finite_identity():
    z6 = CyclicGroup(6)
    q = build_quotient(z6, 3)
    assert q.target is z6
    assert q.proj("4") == "4"


def test_build_quotient_no_provider():
    from gluedprod import FreeGroup

    with pytest.raises(GroupSpecError):
        build_quotient(FreeGroup(2), 2)


def test_window_points_and_membership(zz):
    c1 = window_points(zz, 1)
    assert c1 == {Point("e", ""), Point("g", "1"), Point("g", "-1"),
                  Point("h", "1"), Point("h", "-1")}
    assert in_window(zz, zz.identity, 0)
    assert not in_window(zz, zz.from_g("3"), 2)
    assert in_window(zz, zz.commutator("1", "1"), 1)
    assert not in_window(zz, zz.commutator("2", "1"), 1)


def test_window_elements_count(zz_fast):
    f1 = window_elements(zz_fast, 1)
    assert len(f1) == 3 * 3 * 60  # |B(1)|^2 x |Alt(5)|
    assert len(set(f1)) == len(f1)
    assert all(s.a.is_even() for s in f1)


def test_phi_on_generators(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    union = approx.funion
    image = approx.phi(zz_fast.from_g("1"))
    assert image == union.translation("g", "1")
    assert approx.phi(zz_fast.identity) == identity_dense(union.n)
    # both routes to phi of a product agree on a hand example
    s = zz_fast.element(g="1", h="1")
    prod = zz_fast.multiply(s, s)
    lhs = approx.phi(prod)
    rhs = tuple(approx.phi(s)[k] for k in approx.phi(s))
    assert lhs == rhs


def test_phi_window_guard(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    with pytest.raises(MembershipError):
        approx.phi(zz_fast.from_g("5"))


def test_phi_insufficient_radius(zz_fast):
    q = build_quotient(IntegersGroup(), 2)
    with pytest.raises(GroupSpecError):
        Approximation(zz_fast, 1, quotient_g=q, quotient_h=q)


def test_point_bijection_and_equivariance(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    assert approx.check_point_bijection().ok
    report = approx.check_equivariance(mode="exhaustive")
    assert report.ok
    assert report.pairs_checked > 0


def test_pushforward_identity_sampled(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    report = approx.check_pushforward(mode="sample", sample=500, seed=4)
    assert report.ok


def test_multiplicativity_sampled(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    report = approx.check_multiplicativity(mode="sample", sample=2000, seed=5)
    assert report.ok
    assert report.pairs_checked == 2000
    closure = approx.check_window_closure(mode="sample", sample=2000, seed=6)
    assert closure.ok


def test_injectivity_sampled(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    report = approx.check_injectivity(samples=3000, seed=7)
    assert report.ok
    assert report.pairs_checked > 2500


def test_random_window_element_lies_in_window(zz_fast):
    rng = Random(3)
    for _ in range(100):
        s = random_window_element(zz_fast, 2, rng)
        assert in_window(zz_fast, s, 2)


def test_mixed_window_and_conventions():
    sym_ctx = PvContext(IntegersGroup(), CyclicGroup(2))
    c1 = window_points(sym_ctx, 1)
    assert len(c1) == 4  # {e, g1, g-1, h1}
    f1 = window_elements(sym_ctx, 1)
    assert len(f1) == 3 * 24  # Sym convention: Z/2 has a cyclic 2-Sylow
    alt_ctx = PvContext(IntegersGroup(), CyclicGroup(3))
    f1_alt = window_elements(alt_ctx, 1)
    assert len(f1_alt) == 3 * 60  # Alt convention on 5 points


def test_mixed_lef_exhaustive_z2():
    ctx = PvContext(IntegersGroup(), CyclicGroup(2))
    reports = lef_mixed(ctx, 1, mode="exhaustive", seed=1)
    assert all(r.ok for r in reports)
    mult = reports[0]
    assert mult.pairs_checked == 72 * 72


def test_mixed_lef_exhaustive_z3():
    ctx = PvContext(IntegersGroup(), CyclicGroup(3))
    reports = lef_mixed(ctx, 1, mode="exhaustive", seed=1)
    assert all(r.ok for r in reports)
    assert reports[0].pairs_checked == 180 * 180


def test_lattice_factor_approximation():
    ctx = PvContext(LatticeGroup(2), IntegersGroup())
    approx = Approximation(ctx, 1)
    assert approx.qg.target.order() == 81
    assert approx.funion.n == 81 + 9 - 1
    assert approx.check_point_bijection().ok
    report = approx.check_multiplicativity(mode="sample", sample=800, seed=2)
    assert report.ok


def test_mixed_identity_maps_to_identity():
    ctx = PvContext(IntegersGroup(), CyclicGroup(2))
    approx = Approximation(ctx, 1)
    assert approx.phi(ctx.identity) == identity_dense(approx.funion.n)


def test_report_json_shape(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    report = approx.check_multiplicativity(mode="sample", sample=10, seed=0)
    data = report.to_json()
    assert set(data) == {"name", "pairs_checked", "failures", "wall_time"}


def test_failing_case_keeps_count_and_labels_the_pair(zz_fast, monkeypatch):
    approx = Approximation(zz_fast, 1, modulus=17)
    monkeypatch.setattr(approx, "pushforward",
                        lambda a: identity_dense(approx.funion.n))
    report = approx.check_multiplicativity(mode="sample", sample=200, seed=3)
    assert not report.ok
    assert report.pairs_checked == 200
    window = {zz_fast.format_element(s) for s in window_elements(zz_fast, 1)}
    for label in report.failures:
        left, right = label.split(" | ")
        assert left in window and right in window


PINNED_SETUPS = {
    "ZxZ mod 17": (lambda: PvContext(IntegersGroup(), IntegersGroup()), 17,
                   [17, 782, 159]),
    "Z2xZ mod 9": (lambda: PvContext(LatticeGroup(2), IntegersGroup()), 9,
                   [49, 784, 159]),
    "ZxZ/3": (lambda: PvContext(IntegersGroup(), CyclicGroup(3)), None,
              [11, 792, 147]),
}


@pytest.mark.parametrize("setup", sorted(PINNED_SETUPS))
def test_check_counts_are_pinned(setup):
    make, modulus, (points, equivariance, pushforward) = PINNED_SETUPS[setup]
    approx = Approximation(make(), 1, modulus=modulus)
    reports = [
        approx.check_multiplicativity(mode="sample", sample=300, seed=3),
        approx.check_window_closure(mode="sample", sample=300, seed=3),
        approx.check_injectivity(samples=200, seed=3),
        approx.check_point_bijection(),
        approx.check_equivariance(mode="sample", sample=400, seed=3),
        approx.check_pushforward(mode="sample", sample=300, seed=3),
    ]
    assert [(r.name, r.pairs_checked, len(r.failures)) for r in reports] == [
        ("multiplicativity", 300, 0),
        ("window-closure", 300, 0),
        ("injectivity", 200, 0),
        ("point-bijection", points, 0),
        ("equivariance", equivariance, 0),
        ("pushforward", pushforward, 0),
    ]
