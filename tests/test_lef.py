"""Finite quotients, windows, and the approximation maps."""

from __future__ import annotations

import hashlib
import itertools
import math
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    BudgetError,
    CyclicGroup,
    CyclicPowerGroup,
    FinPerm,
    GluedError,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    MembershipError,
    Point,
    PvContext,
    PvElement,
    TableGroup,
    symmetric_group_table,
    transposition,
)
from gluedprod import lef as lef_module
from gluedprod.groups import compose_dense
from gluedprod.lef import (
    Approximation,
    FiniteQuotient,
    build_quotient,
    in_window,
    random_window_element,
    window,
    window_element,
    window_elements,
    window_points,
)


def identity_dense(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def test_build_quotient_integers():
    q = build_quotient(IntegersGroup(), 4)
    assert q.target.order() == 9
    ball = q.source.ball(4)
    assert len({q.proj(x) for x in ball}) == len(ball)
    q.verify(4)
    with pytest.raises(GroupSpecError, match="not injective on the radius-5 ball"):
        q.verify(5)
    q17 = build_quotient(IntegersGroup(), 4, modulus=17)
    assert q17.target.order() == 17
    q17.verify(8)
    with pytest.raises(GroupSpecError, match="not injective on the radius-9 ball"):
        q17.verify(9)
    with pytest.raises(GroupSpecError):
        build_quotient(IntegersGroup(), 4, modulus=7)


def test_verify_checks_only_the_radius_it_is_given():
    """A quotient of Z/10^6 verified on the radius-4 ball walks 9 elements,
    not the radius-499999 ball its modulus would allow."""
    tracemalloc.start()
    try:
        build_quotient(IntegersGroup(), 4, 10**6).verify(4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6, peak


def test_supplied_quotient_must_be_injective_on_a_finite_factor():
    """Z/6 -> Z/3 is a homomorphism but collapses C_4n onto fewer points."""
    z6 = CyclicGroup(6)
    to_z3 = FiniteQuotient(z6, CyclicGroup(3), lambda x: x % 3)
    with pytest.raises(GroupSpecError, match="^quotient is not injective on the whole group$"):
        Approximation(PvContext(IntegersGroup(), z6), 1, quotient_h=to_z3)


def test_supplied_quotient_must_send_the_identity_to_the_identity():
    shifted = FiniteQuotient(IntegersGroup(), CyclicGroup(17), lambda x: (x + 1) % 17)
    with pytest.raises(GroupSpecError, match="identity"):
        Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1, quotient_g=shifted)


def test_a_quotient_that_only_fails_the_homomorphism_law_is_refused():
    """Z -> Z/17 followed by the swap of residues 1 and 2: it keeps the
    identity and is injective on the radius-4 ball, so only the
    homomorphism law refuses it."""
    swap = {1: 2, 2: 1}
    source = IntegersGroup()
    q = FiniteQuotient(source, CyclicGroup(17), lambda x: swap.get(x % 17, x % 17))
    assert q.proj(0) == 0
    assert len({q.proj(x) for x in source.ball(4)}) == len(source.ball(4))
    with pytest.raises(GroupSpecError, match="^quotient map is not a homomorphism$"):
        q.verify(4)


def test_build_quotient_lattice():
    q = build_quotient(LatticeGroup(2), 2)
    assert isinstance(q.target, CyclicPowerGroup)
    assert q.target.order() == 25
    assert q.proj((6, -1)) == q.proj((1, 4)) == (1, 4)  # componentwise mod 5
    ball = q.source.ball(2)
    assert len({q.proj(x) for x in ball}) == len(ball)


@pytest.mark.parametrize("G, modulus, size", [
    (IntegersGroup(), 10**6 + 1, 10**6 + 1),
    (LatticeGroup(2), 1001, 1001**2),
    (LatticeGroup(7), None, 9**7),
])
def test_build_quotient_refuses_more_elements_than_the_cap(G, modulus, size):
    with pytest.raises(BudgetError, match=f"^{size} quotient elements exceed the cap of 1000000$"):
        build_quotient(G, 4, modulus)


def test_lattice_quotient_memory_does_not_grow_with_the_square_of_its_order():
    """(Z/m)^d is computed, not tabulated (a table at modulus 31 has
    961^2 entries): building the Z^2 x Z approximation there and running
    a 10-pair check stay under fixed bounds."""
    peaks = []
    tracemalloc.start()
    try:
        approx = Approximation(PvContext(LatticeGroup(2), IntegersGroup()), 1, modulus=31)
        peaks.append(tracemalloc.get_traced_memory()[1])
        assert approx.check_multiplicativity(mode="sample", sample=10).ok
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert peaks[0] < 10**6 and peaks[1] < 2 * 10**6, peaks


def test_build_quotient_finite_identity():
    z6 = CyclicGroup(6)
    q = build_quotient(z6, 3)
    assert q.target is z6
    assert q.proj(4) == 4


def test_build_quotient_no_provider():
    from gluedprod import FreeGroup

    with pytest.raises(GroupSpecError):
        build_quotient(FreeGroup(2), 2)


def test_window_points_and_membership(zz):
    c1 = window_points(zz, 1)
    assert c1 == {Point("e", ""), Point("g", 1), Point("g", -1),
                  Point("h", 1), Point("h", -1)}
    assert in_window(zz, zz.identity, 0)
    assert not in_window(zz, zz.from_g("3"), 2)
    assert in_window(zz, zz.commutator("1", "1"), 1)
    assert not in_window(zz, zz.commutator("2", "1"), 1)


def test_an_h_part_longer_than_n_is_outside_the_window(zz):
    assert in_window(zz, zz.from_h("1"), 1)
    assert not in_window(zz, zz.from_h("2"), 1)


def test_window_elements_count(zz_fast):
    f1 = window_elements(zz_fast, 1)
    assert len(f1) == 3 * 3 * 60  # |B(1)|^2 x |Alt(5)|
    assert len(set(f1)) == len(f1)
    assert all(s.a.is_even() for s in f1)


def test_approximation_leaves_the_c4n_radices_uncomputed():
    """C_4n is only read for its points; radices are built on first decode."""
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    Approximation(ctx, 1, modulus=17)
    assert "blocks" not in window(ctx, 4).__dict__
    window_element(ctx, 1, 0)
    assert window(ctx, 1).blocks == (12, 3, 1)  # (m - 1)!/2 with m = 5, 4, 3 points left


def test_window_size_is_known_before_enumeration(zz_fast):
    for ctx in (zz_fast, PvContext(IntegersGroup(), CyclicGroup(2)),
                PvContext(IntegersGroup(), CyclicGroup(3))):
        assert window(ctx, 1).size == len(window_elements(ctx, 1))
    assert window(zz_fast, 2).size == 25 * math.factorial(9) // 2
    # the pair budget refuses F_2 x F_2 without building F_2
    with pytest.raises(BudgetError):
        Approximation(zz_fast, 2).check_multiplicativity(mode="exhaustive")


DECODE_SETUPS = {
    "ZxZ": (lambda: PvContext(IntegersGroup(), IntegersGroup()), 540, True),
    "ZxZ/3": (lambda: PvContext(IntegersGroup(), CyclicGroup(3)), 180, True),
    "ZxZ/2": (lambda: PvContext(IntegersGroup(), CyclicGroup(2)), 72, False),
    "Z2xZ": (lambda: PvContext(LatticeGroup(2), IntegersGroup()), 37800, True),
}


@pytest.mark.parametrize("setup", sorted(DECODE_SETUPS))
def test_window_element_decodes_the_enumeration(setup):
    """Every position of F_1 decodes to the enumerated element there,
    odd residuals included where the window is symmetric."""
    make, size, even = DECODE_SETUPS[setup]
    ctx = make()
    elements = window_elements(ctx, 1)
    assert (len(elements), window(ctx, 1).size, window(ctx, 1).even) == (size, size, even)
    assert [window_element(ctx, 1, k) for k in range(size)] == elements
    for k in (-1, size, size + 7):
        with pytest.raises(GluedError):
            window_element(ctx, 1, k)


def test_window_element_decodes_the_radius_two_residuals(zz_fast):
    """At n = 2 the residuals of each (g, h) block run through the even
    permutations of C_2 in itertools order, and F_2 ends on the reversal
    of C_2 (36 inversions, so even)."""
    w = window(zz_fast, 2)
    assert w.residuals == math.factorial(9) // 2 and w.size == 25 * w.residuals
    even = (images for images in itertools.permutations(w.points)
            if FinPerm(dict(zip(w.points, images))).is_even())
    for k, images in zip(range(3000), even):
        for base in (0, w.size - w.residuals):
            s = window_element(zz_fast, 2, base + k)
            assert s.a == FinPerm(dict(zip(w.points, images)))
    assert window_element(zz_fast, 2, w.size - 1) == PvElement(
        w.g_ball[-1], w.h_ball[-1], FinPerm(dict(zip(w.points, w.points[::-1]))))
    rng = Random(2)
    for _ in range(200):
        assert in_window(zz_fast, window_element(zz_fast, 2, rng.randrange(w.size)), 2)


def test_phi_on_generators(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    union = approx.target
    image = approx.phi(zz_fast.from_g("1"))
    assert image == union.dense(union.translation("g", 1))
    assert approx.phi(zz_fast.identity) == identity_dense(len(union.points))
    # both routes to phi of a product agree on a hand example
    s = zz_fast.element(g="1", h="1")
    prod = zz_fast.multiply(s, s)
    lhs = approx.phi(prod)
    rhs = tuple(approx.phi(s)[k] for k in approx.phi(s))
    assert lhs == rhs


ORACLE_SETUPS = {
    "ZxZ mod 17": (lambda: PvContext(IntegersGroup(), IntegersGroup()), 17),
    "Z2xZ mod 9": (lambda: PvContext(LatticeGroup(2), IntegersGroup()), 9),
    "ZxZ/3": (lambda: PvContext(IntegersGroup(), CyclicGroup(3)), None),
    "ZxS3": (lambda: PvContext(IntegersGroup(), TableGroup(symmetric_group_table(3))), None),
}


@pytest.mark.parametrize("setup", sorted(ORACLE_SETUPS))
def test_phi_matches_the_double_composition(setup):
    """phi against its definition T_g o (T_h o pushforward(a)), with the
    translations built afresh for every element."""
    make, modulus = ORACLE_SETUPS[setup]
    ctx = make()
    approx = Approximation(ctx, 1, modulus=modulus)
    union = approx.target

    def pushforward(a):
        images = list(range(len(union.points)))
        for p, q in a.items():
            images[approx.point_image(p)] = approx.point_image(q)
        return tuple(images)

    def slow(s: PvElement):
        t_g = union.dense(union.translation("g", approx.qg.proj(s.g)))
        t_h = union.dense(union.translation("h", approx.qh.proj(s.h)))
        return compose_dense(t_g, compose_dense(t_h, pushforward(s.a)))

    rng = Random(11)
    f1 = window_elements(ctx, 1)
    elements = [ctx.identity]
    elements += [random_window_element(ctx, 2, rng) for _ in range(150)]
    elements += [ctx.multiply(rng.choice(f1), rng.choice(f1)) for _ in range(150)]
    for s in elements:
        assert approx.phi(s) == slow(s)
    if not window(ctx, 2).even:  # the symmetric convention draws odd residuals too
        assert any(not s.a.is_even() for s in elements)

    far = next(x for x in ctx.G.ball(3) if ctx.G.length(x) == 3)
    near = next(x for x in ctx.G.ball(1) if ctx.G.length(x) == 1)
    e_g, e_h, e_a = ctx.G.identity, ctx.H.identity, ctx.identity.a
    outside = [PvElement(far, e_h, e_a),
               PvElement(e_g, e_h, transposition(BASE, Point("g", far)))]
    if window(ctx, 2).even:
        outside.append(PvElement(e_g, e_h, transposition(BASE, Point("g", near))))
    for s in outside:
        with pytest.raises(MembershipError):
            approx.phi(s)


def test_phi_composes_once_per_quotient_pair(monkeypatch):
    """Over all of F_1, phi composes dense permutations once per distinct
    (g, h) quotient pair, not twice per element."""
    ctx = PvContext(LatticeGroup(2), IntegersGroup())
    approx = Approximation(ctx, 1, modulus=9)
    f1 = window_elements(ctx, 1)
    assert len(f1) == 37800
    calls = 0
    original = lef_module.compose_dense

    def counting(p, q):
        nonlocal calls
        calls += 1
        return original(p, q)

    monkeypatch.setattr(lef_module, "compose_dense", counting)
    for s in f1:
        approx.phi(s)
    pairs = {(approx.qg.proj(s.g), approx.qh.proj(s.h)) for s in f1}
    assert calls <= len(pairs) <= 13 * 5


def test_phi_window_guard(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    with pytest.raises(MembershipError):
        approx.phi(zz_fast.from_g("5"))


def test_phi_insufficient_radius(zz_fast):
    q = build_quotient(IntegersGroup(), 2)
    with pytest.raises(GroupSpecError):
        Approximation(zz_fast, 1, quotient_g=q, quotient_h=q)


def test_window_radius_must_be_positive(zz_fast):
    for n in (0, -1):
        with pytest.raises(GroupSpecError):
            Approximation(zz_fast, n)


def test_point_bijection_and_equivariance(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    assert approx.check_point_bijection().ok
    report = approx.check_equivariance(mode="exhaustive")
    assert report.ok
    assert report.pairs_checked > 0


def test_exhaustive_equivariance_is_budgeted_by_its_cases():
    approx = Approximation(PvContext(LatticeGroup(2), IntegersGroup()), 30)
    with pytest.raises(BudgetError, match="214366201 cases exceed the budget of 10000000"):
        approx.check_equivariance(mode="exhaustive")  # |B_60| = 7321, |C_120| = 29281


def test_equivariance_refuses_either_side_before_any_case(monkeypatch):
    """Z x Z^2 at n = 1: 5 x 49 cases on the G side fit a budget of 300,
    13 x 49 on the H side do not, and no case of either side runs."""
    approx = Approximation(PvContext(IntegersGroup(), LatticeGroup(2)), 1)
    monkeypatch.setattr(lef_module, "PAIR_BUDGET", 300)
    monkeypatch.setattr(approx.ctx.union, "apply_factor",
                        lambda *args: pytest.fail("a case ran"))
    with pytest.raises(BudgetError, match="637 cases exceed the budget of 300"):
        approx.check_equivariance(mode="exhaustive")


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


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("left, right", [
    (IntegersGroup(), IntegersGroup()),
    (LatticeGroup(2), IntegersGroup()),
    (IntegersGroup(), CyclicGroup(3)),
    (CyclicGroup(3), IntegersGroup()),
], ids=["ZxZ", "Z2xZ", "ZxZ3", "Z3xZ"])
def test_a_random_window_element_is_a_uniform_position(left, right, n):
    """One draw is one uniform position of F_n, decoded by ``window_element``."""
    ctx = PvContext(left, right)
    size = window(ctx, n).size
    for seed in range(20):
        s = random_window_element(ctx, n, Random(seed))
        assert s == window_element(ctx, n, Random(seed).randrange(size))
        assert in_window(ctx, s, n)


@pytest.mark.parametrize("n", [1, 2])
def test_a_window_has_one_size_whichever_side_is_finite(n):
    left = window(PvContext(CyclicGroup(3), IntegersGroup()), n)
    right = window(PvContext(IntegersGroup(), CyclicGroup(3)), n)
    assert left.size == right.size


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
    approx = Approximation(PvContext(IntegersGroup(), CyclicGroup(2)), 1)
    reports = [approx.check_multiplicativity(mode="exhaustive", seed=1),
               approx.check_injectivity(samples=10**4, seed=1)]
    assert all(r.ok for r in reports)
    mult = reports[0]
    assert mult.pairs_checked == 72 * 72


def test_mixed_lef_exhaustive_z3():
    approx = Approximation(PvContext(IntegersGroup(), CyclicGroup(3)), 1)
    reports = [approx.check_multiplicativity(mode="exhaustive", seed=1),
               approx.check_injectivity(samples=10**4, seed=1)]
    assert all(r.ok for r in reports)
    assert reports[0].pairs_checked == 180 * 180


def test_lattice_factor_approximation():
    ctx = PvContext(LatticeGroup(2), IntegersGroup())
    approx = Approximation(ctx, 1)
    assert approx.qg.target.order() == 81
    assert len(approx.target.points) == 81 + 9 - 1
    assert approx.check_point_bijection().ok
    report = approx.check_multiplicativity(mode="sample", sample=800, seed=2)
    assert report.ok


def test_mixed_identity_maps_to_identity():
    ctx = PvContext(IntegersGroup(), CyclicGroup(2))
    approx = Approximation(ctx, 1)
    assert approx.phi(ctx.identity) == identity_dense(len(approx.target.points))


def _drop_residuals(approx: Approximation, monkeypatch) -> None:
    """Break phi by mapping every element as if its residual were trivial."""
    original = approx._image
    monkeypatch.setattr(approx, "_image",
                        lambda s: original(PvElement(s.g, s.h, FinPerm.identity())))


def test_report_json_shape(zz_fast):
    approx = Approximation(zz_fast, 1, modulus=17)
    report = approx.check_multiplicativity(mode="sample", sample=10, seed=0)
    data = report.to_json()
    assert set(data) == {"name", "pairs_checked", "failures", "wall_time"}


def test_failing_case_keeps_count_and_labels_the_pair(zz_fast, monkeypatch):
    approx = Approximation(zz_fast, 1, modulus=17)
    _drop_residuals(approx, monkeypatch)
    report = approx.check_multiplicativity(mode="sample", sample=200, seed=3)
    assert not report.ok
    assert report.pairs_checked == 200
    window = {zz_fast.format_element(s) for s in window_elements(zz_fast, 1)}
    for label in report.failures:
        left, right = label.split(" | ")
        assert left in window and right in window


def test_products_outside_the_window_are_labelled_failures(zz_fast, monkeypatch):
    """A product that leaves F_2n fails both pair checks with its pair's
    label; phi is never asked to map it, so nothing raises."""
    approx = Approximation(zz_fast, 1, modulus=17)
    f1 = window_elements(zz_fast, 1)
    rng = Random(3)
    pairs = [(f1[rng.randrange(540)], f1[rng.randrange(540)]) for _ in range(50)]
    expected = [f"{zz_fast.format_element(s1)} | {zz_fast.format_element(s2)}"
                for k, (s1, s2) in enumerate(pairs) if k % 7 == 6]
    far = zz_fast.from_g("5")  # moves any product of F_1 out of F_2
    original = zz_fast.multiply
    calls = 0

    def leaking(s1, s2):
        nonlocal calls
        calls += 1
        product = original(s1, s2)
        return original(far, product) if calls % 7 == 0 else product

    monkeypatch.setattr(zz_fast, "multiply", leaking)
    mult = approx.check_multiplicativity(mode="sample", sample=50, seed=3)
    assert (mult.pairs_checked, mult.failures) == (50, expected)
    calls = 0
    reports = approx.check_pairs(mode="sample", sample=50, seed=3)
    assert calls == 50
    assert [(r.name, r.pairs_checked, r.failures) for r in reports] == [
        ("multiplicativity", 50, expected), ("window-closure", 50, expected)]
    assert reports[0].wall_time == reports[1].wall_time


def test_pair_checks_refuse_an_unknown_name(zz_fast):
    with pytest.raises(GroupSpecError):
        Approximation(zz_fast, 1, modulus=17).check_pairs(("injectivity",), mode="sample")


# n = 2 approximations, each built once: the quotients must be injective on B_8
RADIUS_TWO = {
    "ZxZ": Approximation(PvContext(IntegersGroup(), IntegersGroup()), 2),
    "Z2xZ": Approximation(PvContext(LatticeGroup(2), IntegersGroup()), 2),
    "ZxZ/3": Approximation(PvContext(IntegersGroup(), CyclicGroup(3)), 2),
}


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_phi_is_multiplicative_on_decoded_radius_two_pairs(data):
    approx = RADIUS_TWO[data.draw(st.sampled_from(sorted(RADIUS_TWO)))]
    ctx = approx.ctx
    positions = st.integers(min_value=0, max_value=window(ctx, 2).size - 1)
    s1 = window_element(ctx, 2, data.draw(positions))
    s2 = window_element(ctx, 2, data.draw(positions))
    product = ctx.multiply(s1, s2)
    assert in_window(ctx, product, 4)
    assert approx.phi(product) == compose_dense(approx.phi(s1), approx.phi(s2))


def test_failing_pushforward_fails_its_own_check(zz_fast, monkeypatch):
    approx = Approximation(zz_fast, 1, modulus=17)
    monkeypatch.setattr(approx, "_image",
                        lambda s: identity_dense(len(approx.target.points)))
    report = approx.check_pushforward(mode="sample", sample=300, seed=3)
    assert not report.ok
    assert report.pairs_checked == 159
    assert all(label.startswith("residual (") for label in report.failures)


@pytest.mark.parametrize("check", ["check_multiplicativity", "check_window_closure",
                                   "check_equivariance", "check_pushforward"])
def test_unknown_mode_is_refused(zz_fast, check):
    approx = Approximation(zz_fast, 1, modulus=17)
    with pytest.raises(GroupSpecError, match="unknown mode 'bogus'"):
        getattr(approx, check)(mode="bogus", sample=50)


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


# SHA-256 of the images the checks of ``test_check_counts_are_pinned``
# compare, in the order they walk them
IMAGE_DIGESTS = {
    "Z2xZ mod 9": "beb12438a6eaaac41b07f2c35638f7e434073c46d19d7f65710d4c196ef3e272",
    "ZxZ mod 17": "d374784fab721b556cc850d1611e4d80f5d7614d0995acb110e61bbc54ed5e99",
    "ZxZ/3": "fa9ce2994c6b2cbeeb70817618617ed20d6eb8c912b90392bc493b8545275072",
}


@pytest.mark.parametrize("setup", sorted(PINNED_SETUPS))
def test_check_images_are_pinned(setup):
    """phi of every drawn position of F_1 and of every in-window product
    (seed 3, 300 pairs), and phi of the 200 injectivity draws from F_2.
    A passing report names only its counts, so this pins what it saw."""
    make, modulus, _ = PINNED_SETUPS[setup]
    ctx = make()
    approx = Approximation(ctx, 1, modulus=modulus)
    digest = hashlib.sha256()
    rng = Random(3)
    count = window(ctx, 1).size
    for _ in range(300):
        s1 = window_element(ctx, 1, rng.randrange(count))
        s2 = window_element(ctx, 1, rng.randrange(count))
        digest.update(repr((approx.phi(s1), approx.phi(s2))).encode())
        product = ctx.multiply(s1, s2)
        if in_window(ctx, product, 2):
            digest.update(repr(approx._image(product)).encode())
    rng = Random(3)
    for _ in range(200):
        s1 = s2 = None
        while s1 == s2:
            s1 = random_window_element(ctx, 2, rng)
            s2 = random_window_element(ctx, 2, rng)
        digest.update(repr((approx.phi(s1), approx.phi(s2))).encode())
    assert digest.hexdigest() == IMAGE_DIGESTS[setup]


def test_point_projection_fills_points_outside_the_window_on_first_use(zz_fast):
    """C_4n is projected up front; a translate outside it, such as g:6 for
    n = 1, is projected directly the first time it is asked for."""
    approx = Approximation(zz_fast, 1, modulus=17)
    far = Point("g", 6)
    assert far not in window(zz_fast, 4).point_set
    assert far not in approx._point_images
    projected = approx.target.points.index(approx.target.point("g", 6))
    assert approx.point_image(far) == approx._point_images[far] == projected
    assert approx.point_image(Point("g", -11)) == projected


def _eager_multiplicativity(approx: Approximation, mode: str, sample: int, seed: int
                            ) -> tuple[int, list[str]]:
    """The multiplicativity report computed the direct way: phi of all of
    F_n first, then the pairs (every pair, or ``sample`` seeded draws)."""
    ctx = approx.ctx
    elements = window_elements(ctx, approx.n)
    phis = [approx.phi(s) for s in elements]
    count = len(elements)
    if mode == "exhaustive":
        pairs = [(i, j) for i in range(count) for j in range(count)]
    else:
        rng = Random(seed)
        pairs = [(rng.randrange(count), rng.randrange(count)) for _ in range(sample)]
    failures = []
    for i, j in pairs:
        s1, s2 = elements[i], elements[j]
        if approx.phi(ctx.multiply(s1, s2)) != compose_dense(phis[i], phis[j]):
            failures.append(f"{ctx.format_element(s1)} | {ctx.format_element(s2)}")
    return len(pairs), failures


def test_sampled_multiplicativity_maps_only_the_drawn_elements(monkeypatch):
    """A sample of k pairs maps at most 3k elements through phi (each
    product and its two factors), not all 37,800 elements of F_1."""
    ctx = PvContext(LatticeGroup(2), IntegersGroup())
    calls = 0
    original = Approximation._image

    def counting(self, s):
        nonlocal calls
        calls += 1
        return original(self, s)

    monkeypatch.setattr(Approximation, "_image", counting)
    for seed in (0, 1, 2):
        calls = 0
        approx = Approximation(ctx, 1, modulus=9)
        report = approx.check_multiplicativity(mode="sample", sample=100, seed=seed)
        assert report.ok and report.pairs_checked == 100
        assert 100 < calls <= 300


@pytest.mark.parametrize("setup", sorted(PINNED_SETUPS))
def test_lazy_multiplicativity_matches_the_eager_reference(setup):
    make, modulus, _ = PINNED_SETUPS[setup]
    approx = Approximation(make(), 1, modulus=modulus)
    report = approx.check_multiplicativity(mode="sample", sample=300, seed=3)
    assert (report.pairs_checked, report.failures) == \
        _eager_multiplicativity(approx, "sample", 300, 3)


def test_lazy_multiplicativity_matches_the_eager_reference_exhaustively():
    approx = Approximation(PvContext(IntegersGroup(), CyclicGroup(2)), 1)
    report = approx.check_multiplicativity(mode="exhaustive")
    assert (report.pairs_checked, report.failures) == \
        _eager_multiplicativity(approx, "exhaustive", 0, 0)


def test_lazy_multiplicativity_reports_the_eager_failures_in_order(zz_fast, monkeypatch):
    approx = Approximation(zz_fast, 1, modulus=17)
    _drop_residuals(approx, monkeypatch)
    report = approx.check_multiplicativity(mode="sample", sample=200, seed=3)
    expected = _eager_multiplicativity(approx, "sample", 200, 3)
    assert 0 < len(expected[1]) < 200
    assert (report.pairs_checked, report.failures) == expected


def test_sample_mode_decodes_each_drawn_position_once(monkeypatch):
    """Both pair checks in sample mode decode the drawn positions of F_1,
    each once between them, and never build F_1 (4,536,000 elements for
    two lattice factors)."""
    def refuse(ctx, n):
        raise AssertionError("sample mode enumerated F_n")

    decoded = []
    original = lef_module.window_element

    def counting(ctx, n, k):
        decoded.append(k)
        return original(ctx, n, k)

    monkeypatch.setattr(lef_module, "window_elements", refuse)
    monkeypatch.setattr(lef_module, "window_element", counting)
    ctx = PvContext(LatticeGroup(2), LatticeGroup(2))
    assert window(ctx, 1).size == 25 * math.factorial(9) // 2
    approx = Approximation(ctx, 1)
    mult = approx.check_multiplicativity(mode="sample", sample=300, seed=5)
    drawn = len(decoded)
    closure = approx.check_window_closure(mode="sample", sample=300, seed=5)
    assert (mult.ok, mult.pairs_checked, closure.ok, closure.pairs_checked) == \
        (True, 300, True, 300)
    assert 300 < drawn <= 600
    assert len(decoded) == len(set(decoded)) == drawn


@pytest.mark.parametrize("right", [IntegersGroup(), CyclicGroup(2)])
def test_an_absorbed_left_factor_gives_its_whole_side(right):
    """A finite G is absorbed: its ball in F_n is [e], C_n holds its whole
    side, and phi passes every check on the window it shapes."""
    ctx = PvContext(CyclicGroup(3), right)
    w = window(ctx, 1)
    assert w.g_ball == (0,)
    assert {Point("g", 1), Point("g", 2)} <= w.point_set
    approx = Approximation(ctx, 1)
    reports = approx.check_pairs(mode="sample", sample=500, seed=3)
    reports += [approx.check_injectivity(samples=500, seed=3), approx.check_point_bijection(),
                approx.check_equivariance(), approx.check_pushforward(mode="sample", sample=200)]
    assert [r.failures for r in reports] == [[]] * len(reports)
