"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
timings.  Every check is exact; the stated wall-clock budgets are
asserted where the criterion fixes one.
"""

from __future__ import annotations

import itertools
import math
import time
from contextlib import contextmanager
from random import Random

import pytest

from gluedprod import (
    BASE,
    FiberMismatchError,
    FreeGroup,
    IntegersGroup,
    Point,
    PvContext,
    three_cycle,
)
from gluedprod import cubes, dynamics, lef
from gluedprod.finite import classify, glued_order
from gluedprod.sampling import element as random_element
from gluedprod.sampling import points as random_points
from gluedprod.sampling import vertex as random_vertex

from conftest import finite_catalog


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {label}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {label} ({elapsed:.2f}s)")
    if budget is not None:
        assert elapsed < budget, f"criterion {number} exceeded {budget}s budget"


def fresh_zz() -> PvContext:
    return PvContext(IntegersGroup(), IntegersGroup())


def test_c01_commutator_law():
    with criterion(1, "commutator 3-cycle law and 3-torsion", budget=1.0):
        zz = fresh_zz()
        fz = PvContext(FreeGroup(2), IntegersGroup())
        rng = Random(101)
        free_pool = [w for w in fz.G.ball(3) if w]
        int_pool = [k for k in range(-9, 10) if k]
        for _ in range(1000):
            for ctx, g in ((zz, rng.choice(int_pool)), (fz, rng.choice(free_pool))):
                h = rng.choice(int_pool)
                c = ctx.normalize([("G", g), ("H", h),
                                   ("G", ctx.G.inv(g)), ("H", ctx.H.inv(h))])
                assert c.g == ctx.G.identity and c.h == ctx.H.identity
                assert c.a == three_cycle(BASE, Point("g", g), Point("h", h))
                assert ctx.multiply(ctx.multiply(c, c), c) == ctx.identity


def test_c02_product_law_against_action_oracle():
    with criterion(2, "product law agrees with the action oracle", budget=5.0):
        ctx = fresh_zz()
        rng = Random(202)
        for _ in range(10**4):
            s1 = random_element(ctx, rng)
            s2 = random_element(ctx, rng)
            prod = ctx.multiply(s1, s2)
            probes = set(s1.a.support()) | set(s2.a.support()) | set(prod.a.support())
            probes.update(random_points(ctx, rng, 10))
            for p in probes:
                assert ctx.act(prod, p) == ctx.act(s1, ctx.act(s2, p))


def test_c03_finite_classification():
    with criterion(3, "finite Alt/Sym classification vs exact orders", budget=10.0):
        catalog = finite_catalog()
        spot = {
            ("Z2", "Z2"): 6,
            ("Z3", "Z3"): 60,
            ("Z4", "Z3"): math.factorial(6),
        }
        checked = 0
        for (na, a), (nb, b) in itertools.combinations_with_replacement(
                sorted(catalog.items()), 2):
            n = a.order() + b.order() - 1
            if n > 10:
                continue
            order = glued_order(a, b)
            expected = math.factorial(n)
            if classify(a, b) == "Alt":
                expected //= 2
            assert order == expected, (na, nb)
            if (na, nb) in spot:
                assert order == spot[(na, nb)]
            checked += 1
        assert checked >= 15


def test_c04_epimorphism_and_monolith():
    with criterion(4, "projection homomorphism, monolith kernel, even residuals"):
        ctx = fresh_zz()
        rng = Random(404)
        for _ in range(10**4):
            s1 = random_element(ctx, rng)
            s2 = random_element(ctx, rng)
            prod = ctx.multiply(s1, s2)
            assert ctx.project(prod) == (
                ctx.G.mul(s1.g, s2.g), ctx.H.mul(s1.h, s2.h))
            assert prod.a.is_even()
            assert ctx.in_monolith(prod) == (ctx.project(prod) == (0, 0))


def test_c05_cube_complex():
    with criterion(5, "cube complex invariants, transporters, growth", budget=30.0):
        ctx = fresh_zz()
        rng = Random(505)
        for _ in range(1000):
            s = random_element(ctx, rng)
            v = random_vertex(ctx, rng)
            w = random_vertex(ctx, rng)
            sv = cubes.act_vertex(ctx, s, v)
            assert cubes.s_invariant(sv) == cubes.s_invariant(v)
            assert cubes.distance(sv, cubes.act_vertex(ctx, s, w)) == cubes.distance(v, w)
        same = cross = 0
        while same < 100 or cross < 100:
            v = random_vertex(ctx, rng)
            w = random_vertex(ctx, rng)
            if cubes.s_invariant(v) == cubes.s_invariant(w):
                if same == 100:
                    continue
                t = cubes.transporter(ctx, v, w)
                assert cubes.act_vertex(ctx, t, v) == w
                assert ctx.in_monolith(t)
                same += 1
            else:
                if cross == 100:
                    continue
                with pytest.raises(FiberMismatchError):
                    cubes.transporter(ctx, v, w)
                cross += 1
        vertices = cubes.vertex_ball(ctx, 3, 3)
        pairs = [
            (x, y)
            for x in vertices if cubes.fixed_by_G(x)
            for y in vertices if cubes.fixed_by_H(y) and cubes.adjacent(x, y)
        ]
        assert pairs == [(cubes.whole_g_side(), cubes.g_side_without_base())]
        rows = cubes.growth_witness(ctx, 40)
        last = 0
        for word, dist in rows:
            assert dist >= len(word) / 2
            assert dist > last
            last = dist


def test_c06_free_semigroup():
    with criterion(6, "510 nonnegative words of length <= 8 distinct", budget=1.0):
        report = dynamics.free_semigroup_check(fresh_zz(), "1", "1", 8)
        assert report.words_checked == 510
        assert report.distinct == 510
        assert report.first_collision is None


def test_c07_folner_ratios():
    with criterion(7, "exact Folner ratios for n = 1..100"):
        ctx = fresh_zz()
        from fractions import Fraction

        for n in range(1, 101):
            F = dynamics.folner_set(ctx, n)
            assert dynamics.folner_ratio(ctx, F, ctx.from_g("1")) == Fraction(2, 2 * n + 1)
            assert dynamics.folner_ratio(ctx, F, ctx.from_h("1")) == 0


def test_c08_lef_window_one():
    with criterion(8, "finite approximation at n=1, modulus 17", budget=60.0):
        ctx = fresh_zz()
        approx = lef.Approximation(ctx, 1, modulus=17)
        mult = approx.check_multiplicativity(mode="exhaustive")
        assert mult.pairs_checked == 540 * 540
        assert mult.failures == []
        closure = approx.check_window_closure(mode="exhaustive")
        assert closure.pairs_checked == 540 * 540
        assert closure.failures == []
        inj = approx.check_injectivity(samples=10**5)
        assert inj.pairs_checked == 10**5
        assert inj.failures == []
        equi = approx.check_equivariance(mode="exhaustive")
        assert equi.failures == []
        push = approx.check_pushforward(mode="exhaustive")
        assert push.pairs_checked == math.factorial(9) // 2
        assert push.failures == []


def test_c09_mixed_lef():
    with criterion(9, "mixed finite approximation for Z/2 and Z/3", budget=30.0):
        from gluedprod import CyclicGroup

        sym_ctx = PvContext(IntegersGroup(), CyclicGroup(2))
        assert sym_ctx.mixed_symmetric
        approx = lef.Approximation(sym_ctx, 1)
        reports = [approx.check_multiplicativity(mode="exhaustive"),
                   approx.check_injectivity(samples=10**4)]
        assert reports[0].pairs_checked == 72 * 72
        assert all(r.failures == [] for r in reports)
        alt_ctx = PvContext(IntegersGroup(), CyclicGroup(3))
        assert not alt_ctx.mixed_symmetric
        approx = lef.Approximation(alt_ctx, 1)
        reports = [approx.check_multiplicativity(mode="exhaustive"),
                   approx.check_injectivity(samples=10**4)]
        assert reports[0].pairs_checked == 180 * 180
        assert all(r.failures == [] for r in reports)


def test_c10_order_combinatorics():
    with criterion(10, "orders 5/2/3 of commutator products"):
        ctx = fresh_zz()
        rng = Random(1010)
        nonzero = [str(k) for k in range(-15, 16) if k]
        for _ in range(100):
            g, gp = rng.sample(nonzero, 2)
            h, hp = rng.sample(nonzero, 2)
            distinct = ctx.multiply(ctx.commutator(g, h), ctx.commutator(gp, hp))
            assert ctx.element_order(distinct) == 5
            shared_g = ctx.multiply(ctx.commutator(g, h), ctx.commutator(g, hp))
            assert ctx.element_order(shared_g) == 2
            both = ctx.multiply(ctx.commutator(g, h), ctx.commutator(g, h))
            assert ctx.element_order(both) == 3
