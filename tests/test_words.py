"""Word evaluation: the right fold in ``normalize`` against independent oracles.

``normalize`` folds a word from the right; the oracles are an explicit
left fold of ``multiply`` and the point action of the letters applied one
by one.  The normal form is canonical, so all three must agree exactly.
"""

from __future__ import annotations

from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    CyclicGroup,
    FreeGroup,
    IntegersGroup,
    LatticeGroup,
    PointedUnion,
    PvContext,
    TableGroup,
    symmetric_group_table,
)
from gluedprod.sampling import even_perm
from gluedprod.sampling import points as random_points

FACTORS = {
    "ZxZ": (IntegersGroup, IntegersGroup),
    "F2xZ": (lambda: FreeGroup(2), IntegersGroup),
    "Z2xZ": (lambda: LatticeGroup(2), IntegersGroup),
    "ZxZ/2": (IntegersGroup, lambda: CyclicGroup(2)),
    "ZxZ/3": (IntegersGroup, lambda: CyclicGroup(3)),
    "ZxS3": (IntegersGroup, lambda: TableGroup(symmetric_group_table(3))),
}


def make_context(name: str, check: bool) -> PvContext:
    left, right = FACTORS[name]
    return PvContext(left(), right(), check=check)


def random_word(ctx: PvContext, rng: Random, length: int) -> list:
    """A word of G, H and PERM letters with payloads in the radius-2 balls."""
    g_ball, h_ball = ctx.G.ball(2), ctx.H.ball(2)
    word = []
    for _ in range(length):
        kind = rng.choice(("G", "H", "PERM"))
        if kind == "G":
            word.append(("G", rng.choice(g_ball)))
        elif kind == "H":
            word.append(("H", rng.choice(h_ball)))
        else:
            word.append(("PERM", even_perm(ctx, rng, span=3, size=rng.randint(0, 5))))
    return word


def letter_elements(ctx: PvContext, word: list) -> list:
    build = {"G": ctx.from_g, "H": ctx.from_h, "PERM": ctx.from_perm}
    return [build[kind](value) for kind, value in word]


@pytest.mark.parametrize("check", [False, True], ids=["fast", "check"])
@pytest.mark.parametrize("name", list(FACTORS))
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       length=st.integers(min_value=0, max_value=64))
def test_normalize_matches_left_fold_and_action(name, check, seed, length):
    ctx = make_context(name, check)
    rng = Random(seed)
    word = random_word(ctx, rng, length)
    letters = letter_elements(ctx, word)
    out = ctx.normalize(word)
    assert out == reduce(ctx.multiply, letters, ctx.identity)

    probes = {BASE} | set(out.a.support()) | set(random_points(ctx, rng, 12, span=4))
    for letter in letters:
        probes |= set(letter.a.support())
        probes.add(ctx.union.g_point(letter.g))
        probes.add(ctx.union.h_point(letter.h))
    for p in probes:
        q = p
        for letter in reversed(letters):
            q = ctx.act(letter, q)
        assert ctx.act(out, p) == q


def test_word_evaluation_is_linear_in_length(monkeypatch):
    calls = 0
    apply_factor = PointedUnion.apply_factor

    def counting(self, side, x, p):
        nonlocal calls
        calls += 1
        return apply_factor(self, side, x, p)

    monkeypatch.setattr(PointedUnion, "apply_factor", counting)
    ctx = make_context("ZxZ", check=False)
    length = 128
    word = random_word(ctx, Random(128), length)
    ctx.normalize(word)
    assert calls <= 8 * length
