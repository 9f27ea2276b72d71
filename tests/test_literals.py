"""Text literals and free words against the reference implementations they replaced.

``parse_point`` checks ``e``/``g:``/``h:`` by hand and ``from_cycles``
builds a permutation, its inverse and its parity in one pass; the
references below are the regex point match and the two-pass build.
``FreeGroup`` validates a word against its letter set and one regex for
cancelling pairs, and sorts by a string key; the references are the
per-letter loop, the stack reduction and the tuple of letter ranks.
"""

from __future__ import annotations

import gc
import re
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gluedprod import (
    BASE,
    FinPerm,
    FreeGroup,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    Point,
    PvContext,
    WordParseError,
)
from gluedprod.core import PvElement
from gluedprod.pointed import random_perm
from gluedprod.sampling import points as random_points

# ----------------------------------------------------------------------
# references: the regex point parser and the two-pass cycle build

_REF_POINT_RE = re.compile(r"^(e|[gh]:.+)$")
_REF_PERM_RE = re.compile(r"(\s*\([^()]*\)\s*)*")
_REF_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def ref_parse_point(union, text: str) -> Point:
    text = text.strip()
    if text == "e":
        return BASE
    if not _REF_POINT_RE.match(text):
        raise WordParseError(f"bad point literal {text!r}")
    side = text[0]
    handle = union.handle(side)
    x = handle.parse(text[2:])
    return BASE if x == handle.identity else Point(side, x)


def ref_from_cycles(cycles) -> FinPerm:
    moved = {}
    nontrivial = 0
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            text = " ".join(map(str, cycle))
            raise WordParseError(f"repeated point in cycle ({text})")
        for p, q in zip(cycle, list(cycle[1:]) + list(cycle[:1])):
            if p in moved:
                raise WordParseError(f"point {p} appears in two cycles")
            moved[p] = q
        nontrivial += len(cycle) > 1
    moved = {p: q for p, q in moved.items() if p != q}
    out = FinPerm._trusted(moved, {q: p for p, q in moved.items()})
    out._even = (len(moved) - nontrivial) % 2 == 0
    return out


def ref_parse_perm(union, text: str) -> FinPerm:
    text = text.strip()
    if not _REF_PERM_RE.fullmatch(text):
        raise WordParseError(f"bad permutation literal {text!r}")
    cycles = []
    for chunk in _REF_CYCLE_RE.findall(text):
        items = chunk.split()
        if items:
            cycles.append([ref_parse_point(union, t) for t in items])
    return ref_from_cycles(cycles)


def outcome(fn, *args):
    """The value, or the error class and text."""
    try:
        return "ok", fn(*args)
    except (WordParseError, GroupSpecError) as exc:
        return type(exc), str(exc)


def parity_by_cycles(a: FinPerm) -> bool:
    return FinPerm._trusted(dict(a.items())).is_even()


CONTEXTS = {
    "F2xZ": PvContext(FreeGroup(2), IntegersGroup()),
    "Z2xZ": PvContext(LatticeGroup(2), IntegersGroup()),
    "ZxZ": PvContext(IntegersGroup(), IntegersGroup()),
}
ALPHABET = list("egh:,-01aAbB \n")
VALID_POINTS = ["e", "g:1", "g:-1", "g:0", "g:a", "g:aB", "g:1,0", "g:0,0", "h:1",
                "h:-1", "h:0", "h:b", "h:01", " g:1 ", "g:aA"]
junk = st.text(alphabet=ALPHABET, max_size=6)
tokens = st.one_of(st.sampled_from(VALID_POINTS), junk)
cycle_texts = st.lists(tokens, max_size=4).map(lambda ts: "(" + " ".join(ts) + ")")
separators = st.sampled_from(["", " ", "\n", "x"])
perm_texts = st.builds(lambda cs, sep: sep.join(cs), st.lists(cycle_texts, max_size=3), separators)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(CONTEXTS)), text=st.one_of(junk, tokens))
def test_points_parse_like_the_regex_reference(name, text):
    union = CONTEXTS[name].union
    assert outcome(union.parse_point, text) == outcome(ref_parse_point, union, text)


@settings(max_examples=400, deadline=None)
@given(name=st.sampled_from(sorted(CONTEXTS)), text=perm_texts)
def test_perms_parse_like_the_two_pass_reference(name, text):
    union = CONTEXTS[name].union
    got = outcome(union.parse_perm, text)
    want = outcome(ref_parse_perm, union, text)
    assert got == want
    if got[0] == "ok":
        a, b = got[1], want[1]
        assert a._even == b._even == parity_by_cycles(a)
        assert a._inverse_map() == b._inverse_map()


@pytest.mark.parametrize("text, message", [
    ("(g:1)(g:1 g:2)", "point g:1 appears in two cycles"),
    ("(e g:0 h:1)", "repeated point in cycle (e e h:1)"),
    ("(g:1 g:2)(h:3 g:2)", "point g:2 appears in two cycles"),
    ("(g:1 g:2)(h:3 h:3 g:2)", "repeated point in cycle (h:3 h:3 g:2)"),
    ("(g:1 g:)", "bad point literal 'g:'"),
    ("(g:1 k:1)", "bad point literal 'k:1'"),
])
def test_cycle_errors_keep_their_text(text, message):
    union = CONTEXTS["ZxZ"].union
    assert outcome(union.parse_perm, text) == (WordParseError, message)
    assert outcome(ref_parse_perm, union, text) == (WordParseError, message)


@pytest.mark.parametrize("text, message", [
    ("g:1\ng:2", "bad point literal 'g:1\\ng:2'"),
    ("h", "bad point literal 'h'"),
    ("e:1", "bad point literal 'e:1'"),
])
def test_point_errors_keep_their_text(text, message):
    union = CONTEXTS["ZxZ"].union
    assert outcome(union.parse_point, text) == (WordParseError, message)
    assert outcome(ref_parse_point, union, text) == (WordParseError, message)


def test_one_cycles_claim_their_point():
    a = FinPerm.from_cycles([[Point("g", 1)], [], [BASE, Point("h", 2)]])
    assert a == FinPerm.from_cycles([[BASE, Point("h", 2)]])
    assert a._inverse_map() == {Point("h", 2): BASE, BASE: Point("h", 2)}
    assert a._even is False


@pytest.mark.parametrize("name", sorted(CONTEXTS))
def test_residuals_round_trip_through_their_text(name):
    ctx = CONTEXTS[name]
    rng = Random(f"round-trip/{name}")
    for _ in range(300):
        points = list(dict.fromkeys(random_points(ctx, rng, rng.randint(3, 12))))
        if len(points) < 2:
            continue
        a = random_perm(points, rng, even=rng.random() < 0.5)
        b = ctx.union.parse_perm(ctx.union.format_perm(a))
        assert b == a
        assert b._even == parity_by_cycles(a)
        assert b._inverse_map() == dict(zip(a.moved.values(), a.moved))


# ----------------------------------------------------------------------
# free words: the per-letter references

def ref_sort_key(G: FreeGroup, x: str):
    return (len(x), tuple(G.letters.index(c) for c in x))


def ref_parse(G: FreeGroup, text: str) -> str:
    for c in text:
        if c not in G.letters:
            raise GroupSpecError(f"letter {c!r} not among the {G.rank} generators")
    return G._reduce(text)


FREE = {2: FreeGroup(2), 26: FreeGroup(26)}
BAD_LETTERS = {2: "cZ0 -é", 26: "0 -é_"}


def free_texts(rank: int, bad: bool):
    letters = FREE[rank].letters + (list(BAD_LETTERS[rank]) if bad else [])
    return st.text(alphabet=letters, max_size=12)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), rank=st.sampled_from([2, 26]))
def test_free_sort_key_orders_like_the_rank_tuple(data, rank):
    G = FREE[rank]
    words = data.draw(st.lists(free_texts(rank, bad=False), max_size=12))
    words += [G._reduce(w) for w in words]
    assert sorted(words, key=G.sort_key) == sorted(words, key=lambda w: ref_sort_key(G, w))
    for w in words:
        assert isinstance(G.sort_key(w)[1], str)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), rank=st.sampled_from([2, 26]))
def test_free_validation_matches_the_per_letter_reference(data, rank):
    G = FREE[rank]
    text = data.draw(free_texts(rank, bad=data.draw(st.booleans())))
    valid = all(c in G.letters for c in text)
    assert G.is_canonical(text) == (valid and G._reduce(text) == text)
    assert outcome(G.parse, text) == outcome(ref_parse, G, text)


def test_free_validation_refuses_non_words():
    G = FREE[2]
    assert not G.is_canonical(5)
    assert not G.is_canonical(("a",))
    with pytest.raises(GroupSpecError, match="letter 'c' not among the 2 generators"):
        G.parse("abcZ")


def test_formatting_free_words_leaves_no_rank_tuples():
    """A sort key of variable-length tuples would leave them in CPython's
    per-length tuple free lists; a string key leaves nothing behind."""
    ctx = PvContext(FreeGroup(2), IntegersGroup())
    rng = Random(2000)

    def word(length: int) -> str:
        out: list[str] = []
        while len(out) < length:
            c = rng.choice("aAbB")
            if not out or out[-1] != c.swapcase():
                out.append(c)
        return "".join(out)

    elements = []
    for _ in range(2000):
        points = set()
        while len(points) < 3:
            points.add(Point("g", word(rng.randint(1, 19))))
        a = FinPerm.from_cycles([[BASE, *points]])
        elements.append(PvElement(ctx.G.identity, 1, a))
    gc.collect()  # a full collection empties the free lists, so none runs below
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for s in elements:
            ctx.format_element(s)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 64 * 1024
