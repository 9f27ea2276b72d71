"""Shared fixtures and small independent oracles used across the suite."""

from __future__ import annotations

import itertools
from random import Random

import pytest

from gluedprod import CyclicGroup, FinPerm, IntegersGroup, Point, PvContext
from gluedprod import sampling
from gluedprod.suites import finite_catalog  # noqa: F401  (shared with the test modules)


@pytest.fixture
def zz():
    """Z glued with Z, with the product-law cross-check enabled."""
    return PvContext(IntegersGroup(), IntegersGroup(), check=True)


@pytest.fixture
def zz_fast():
    return PvContext(IntegersGroup(), IntegersGroup())


@pytest.fixture
def z_mod2():
    return PvContext(IntegersGroup(), CyclicGroup(2), check=True)


@pytest.fixture
def z_mod3():
    return PvContext(IntegersGroup(), CyclicGroup(3), check=True)


def mulclose(gens: list[tuple[int, ...]], limit: int = 10**6) -> set[tuple[int, ...]]:
    """Brute-force closure of a permutation generating set."""
    elements = set(gens)
    frontier = list(gens)
    while frontier:
        nxt = []
        for a in gens:
            for b in frontier:
                c = tuple(a[i] for i in b)
                if c not in elements:
                    elements.add(c)
                    nxt.append(c)
                    if len(elements) > limit:
                        raise AssertionError("closure exceeded limit")
        frontier = nxt
    return elements


def random_even_perm(ctx: PvContext, rng: Random, span: int = 6,
                     size: int = 6) -> FinPerm:
    return sampling.even_perm(ctx, rng, span=span, size=size)


def random_element(ctx: PvContext, rng: Random, span: int = 5):
    return sampling.element(ctx, rng, span=span)


def random_points(owner, rng: Random, count: int, span: int = 8) -> list[Point]:
    return sampling.points(owner, rng, count, span=span)


def random_vertex(ctx, rng: Random, span: int = 3):
    return sampling.vertex(ctx, rng, span=span)


def all_perms_of(points: list[Point], even_only: bool) -> list[FinPerm]:
    """Every (even) permutation supported inside the given point set."""
    out = []
    for images in itertools.permutations(points):
        perm = FinPerm(dict(zip(points, images)))
        if even_only and not perm.is_even():
            continue
        out.append(perm)
    return out
