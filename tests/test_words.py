"""Word evaluation and the product law against independent oracles.

``normalize`` parses and validates each letter, multiplies every maximal
run of same-kind letters into one syllable inside its factor, and folds
the syllables from the right with one ``multiply`` each.  The oracles are
the letter-by-letter folds of ``multiply``, from the left and from the
right, and the point action of the letters applied one by one.  The
normal form is canonical, so all of them must agree exactly.
``multiply`` and ``invert`` on random elements, some of whose parts are
the identity, are checked against the point action as well.
"""

from __future__ import annotations

import re
from dataclasses import replace
from functools import reduce
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    CyclicGroup,
    FinPerm,
    FreeGroup,
    GluedError,
    IntegersGroup,
    LatticeGroup,
    MembershipError,
    PointedUnion,
    PvContext,
    PvElement,
    TableGroup,
    symmetric_group_table,
)
from gluedprod.sampling import element as sample_element
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


def run_word(ctx: PvContext, rng: Random, runs: list) -> list:
    """A word of runs of same-kind letters with payloads in the radius-2
    balls.  A run (kind, n, False) is n random letters; (kind, n, True) is
    ceil(n / 2) random letters followed by their inverses in reverse
    order, so it cancels to the identity."""
    balls = {"G": ctx.G.ball(2), "H": ctx.H.ball(2)}
    inverse = {"G": ctx.G.inv, "H": ctx.H.inv, "PERM": FinPerm.inverse}
    word = []
    for kind, n, cancels in runs:
        size = (n + 1) // 2 if cancels else n
        if kind == "PERM":
            run = [even_perm(ctx, rng, span=3, size=rng.randint(0, 5)) for _ in range(size)]
        else:
            run = [rng.choice(balls[kind]) for _ in range(size)]
        if cancels:
            run += [inverse[kind](x) for x in reversed(run)]
        word += [(kind, x) for x in run]
    return word


def letter_elements(ctx: PvContext, word: list) -> list:
    build = {"G": ctx.from_g, "H": ctx.from_h, "PERM": ctx.from_perm}
    return [build[kind](value) for kind, value in word]


def right_fold(ctx: PvContext, letters: list):
    """The product of the letters, one ``multiply`` per letter from the right."""
    return reduce(lambda out, letter: ctx.multiply(letter, out), reversed(letters), ctx.identity)


def assert_acts_as_letters(ctx: PvContext, rng: Random, out, letters: list):
    """``out`` moves every probe as the letters do, applied one by one."""
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
    assert_acts_as_letters(ctx, rng, out, letters)


@pytest.mark.parametrize("check", [False, True], ids=["fast", "check"])
@pytest.mark.parametrize("name", ["ZxZ", "F2xZ", "Z2xZ", "ZxZ/3", "ZxS3"])
@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       runs=st.lists(st.tuples(st.sampled_from(["G", "H", "PERM"]),
                               st.integers(min_value=1, max_value=6), st.booleans()),
                     max_size=12))
def test_syllables_match_the_letter_by_letter_fold(name, check, seed, runs):
    """A run of same-kind letters, one that cancels to the identity
    included, is one syllable with the letters' product."""
    ctx = make_context(name, check)
    rng = Random(seed)
    word = run_word(ctx, rng, runs)
    letters = letter_elements(ctx, word)
    out = ctx.normalize(word)
    assert out == right_fold(ctx, letters)
    assert_acts_as_letters(ctx, rng, out, letters)


def test_letters_are_validated_before_their_run_merges():
    zz = make_context("ZxZ", check=False)
    # each transposition is odd, though their product, a 3-cycle, is even
    with pytest.raises(MembershipError, match="^an odd finitely supported permutation"):
        zz.eval_word("PERM:(e g:1) PERM:(e g:2)")
    # the first bad letter is the one reported
    with pytest.raises(MembershipError, match="^an odd finitely supported permutation"):
        zz.eval_word("PERM:(e g:1) G:x")
    with pytest.raises(GluedError) as bad_literal:
        zz.G.parse("x")
    with pytest.raises(type(bad_literal.value), match=f"^{re.escape(str(bad_literal.value))}$"):
        zz.eval_word("G:1 G:x")


def test_an_h_run_matches_its_letters_in_the_mixed_regime():
    ctx = make_context("ZxZ/3", check=True)
    word = ctx.parse_word("H:1 H:1 G:2 H:2 H:2 H:1 PERM:(e g:1 h:1) H:2 H:1 H:1")
    out = ctx.normalize(word)
    assert out == right_fold(ctx, letter_elements(ctx, word))
    assert out == ctx.normalize(ctx.parse_word("H:2 G:2 H:2 PERM:(e g:1 h:1) H:1"))


def random_element(ctx: PvContext, rng: Random):
    """A sampled element with each of its parts replaced by the identity one time in four."""
    identities = {"g": ctx.G.identity, "h": ctx.H.identity, "a": FinPerm.identity()}
    dropped = {part: e for part, e in identities.items() if rng.random() < 0.25}
    return replace(sample_element(ctx, rng, span=3), **dropped)


@pytest.mark.parametrize("check", [False, True], ids=["fast", "check"])
@pytest.mark.parametrize("name", ["ZxZ", "F2xZ", "Z2xZ", "ZxZ/3", "ZxS3"])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_multiply_and_invert_match_the_action(name, check, seed):
    ctx = make_context(name, check)
    rng = Random(seed)
    x, y = random_element(ctx, rng), random_element(ctx, rng)
    xy = ctx.multiply(x, y)
    x_inv = ctx.invert(x)
    assert ctx.multiply(x_inv, x) == ctx.identity
    assert ctx.multiply(x, x_inv) == ctx.identity

    probes = {BASE} | set(random_points(ctx, rng, 12, span=4))
    for s in (x, y, xy):
        probes |= set(s.a.support())
        probes |= {ctx.union.g_point(s.g), ctx.union.g_point(ctx.G.inv(s.g)),
                   ctx.union.h_point(s.h), ctx.union.h_point(ctx.H.inv(s.h))}
    for p in probes:
        assert ctx.act(xy, p) == ctx.act(x, ctx.act(y, p))
        assert ctx.act(x_inv, ctx.act(x, p)) == p


def test_word_evaluation_is_linear_in_length(monkeypatch):
    ctx = make_context("ZxZ", check=False)
    calls = {"apply_factor": 0, "multiply": 0, "mul": 0}

    def counting(owner, attr, key):
        original = getattr(owner, attr)

        def wrapper(*args):
            calls[key] += 1
            return original(*args)
        monkeypatch.setattr(owner, attr, wrapper)

    counting(PointedUnion, "apply_factor", "apply_factor")
    counting(PvContext, "multiply", "multiply")
    counting(ctx.G, "mul", "mul")
    counting(ctx.H, "mul", "mul")
    length = 128
    word = random_word(ctx, Random(128), length)
    kinds = [kind for kind, _ in word]
    syllables = 1 + sum(a != b for a, b in zip(kinds, kinds[1:]))
    assert syllables == 80
    ctx.normalize(word)
    # one product-law step per maximal run of same-kind letters
    assert calls["multiply"] == syllables
    assert calls["apply_factor"] <= 8 * length
    # each transported support point is translated once, not once per side
    # of the pair, and never by a factor part of the other side, which fixes it
    assert calls["apply_factor"] == 90
    # identity parts cost no group operation in a product: 137 factor muls,
    # those merging the runs' letters included, for 80 products
    assert calls["mul"] == 137


def test_check_mode_catches_a_dropped_commutator(monkeypatch):
    monkeypatch.setattr(PvContext, "_compose_commutator", lambda *args: None)
    ctx = PvContext(FreeGroup(2), IntegersGroup(), check=True)
    with pytest.raises(GluedError, match=r"^product law mismatch at e for "):
        ctx.eval_word("H:1 G:a")


def test_check_mode_probes_the_transported_residual():
    """Without the transported first residual a product is wrong only on
    that residual's transported support, away from both inputs' supports."""
    ctx = PvContext(IntegersGroup(), IntegersGroup(), check=True)
    s1 = ctx.from_perm(ctx.union.parse_perm("(g:1 g:2 g:3)"))
    s2 = ctx.from_g(10)
    assert ctx.multiply(s1, s2) == PvElement(10, 0, ctx.union.parse_perm("(g:-9 g:-8 g:-7)"))
    with pytest.raises(GluedError, match=r"^product law mismatch at g:-7 for "):
        ctx._verify_product(s1, s2, PvElement(10, 0, FinPerm.identity()))
