"""Shared fixtures and small independent oracles used across the suite."""

from __future__ import annotations

import pytest

from gluedprod import CyclicGroup, IntegersGroup, PvContext
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



def closure_picks(G) -> list:
    """The greedy generators of a finite handle, by two-sided closure.

    Each element, in canonical order, that the picks so far do not reach
    joins them; the reached set is closed by meeting each new element
    with every element reached so far, on both sides: O(|G|^2) products.
    """
    mul = G.mul
    reached = {G.identity}
    gens = []
    for a in G.elements():
        if a in reached:
            continue
        gens.append(a)
        reached.add(a)
        frontier = [a]
        while frontier:
            u = frontier.pop()
            for v in list(reached):
                for w in (mul(u, v), mul(v, u)):
                    if w not in reached:
                        reached.add(w)
                        frontier.append(w)
    return gens
