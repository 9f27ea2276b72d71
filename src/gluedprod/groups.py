"""Catalog of factor groups with a uniform exact-element interface.

Inside the library an element is a native value, so equality and
hashing run at C level:

- ``integers``:   an ``int``, e.g. ``-3``
- ``cyclic(n)``:  the residue ``0`` .. ``n-1``, an ``int``
- ``cyclic(m)^d``: a ``tuple`` of ``d`` residues, e.g. ``(4, 0)``; the
  finite quotients of ``lattice(d)``, not a spec kind
- ``lattice(d)``: a ``tuple`` of ``d`` ints, e.g. ``(1, -2)``
- ``free(rank)``: the reduced word, a ``str``; lowercase generators,
  uppercase inverses
- ``table``:      the element index ``0`` .. ``n-1``, an ``int``

Text appears only at the boundary.  ``GroupHandle.parse`` turns an
element literal into its value, and ``format_value`` is the one
formatter back: an ``int`` as decimal, a tuple comma-joined, a word as
itself, e.g. ``"-3"``, ``"1,-2"``, ``"aB"``.

Each handle also fixes a proper length and a canonical enumeration
order, used for balls, serialisation and the dense numbering of a
finite pointed union.  Infinite kinds state both; a finite kind states
only its enumeration and inherits the 0/1 length and sort key.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from math import gcd
from random import Random
from typing import Iterator, Optional, Sequence

from .errors import BudgetError, GroupSpecError

DEFAULT_BALL_CAP = 10**6
_FREE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


Element = object  # int | tuple[int, ...] | str, according to the kind


def format_value(x: Element) -> str:
    """The canonical text of an element value of any kind."""
    return ",".join(map(str, x)) if type(x) is tuple else str(x)


class GroupHandle:
    """A factor group with exact multiplication on native element values."""

    kind: str = ""
    identity: Element = None
    _generators: Optional[list[Element]] = None  # set by the first generators()

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        raise NotImplementedError

    def mul(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def inv(self, a: Element) -> Element:
        raise NotImplementedError

    def parse(self, text: str) -> Element:
        """The value of an element literal, validated and canonicalised.

        A value that is already canonical passes through unchanged; any
        other input that is not text raises GroupSpecError.
        """
        if type(text) is str:
            return self._parse_text(text)
        if not self.is_canonical(text):
            raise GroupSpecError(f"{text!r} is not a canonical element of {self!r}")
        return text

    def _parse_text(self, text: str) -> Element:
        raise NotImplementedError

    def is_canonical(self, x) -> bool:
        """Whether ``x`` is a canonical element value: a type and range test."""
        raise NotImplementedError

    def length(self, x: Element) -> int:
        """The declared proper length of ``x``; the finite-kind default
        is 0 at the identity and 1 elsewhere."""
        return 0 if x == self.identity else 1

    def sort_key(self, x: Element):
        """Key realising the canonical enumeration order; the finite-kind
        default is the identity first, then the others in increasing order."""
        return (x != self.identity, x)

    def enumerate_elements(self) -> Iterator[Element]:
        """All elements in canonical order, identity first.

        The iterator is infinite for infinite kinds and yields elements
        in nondecreasing proper length.
        """
        raise NotImplementedError

    def elements(self) -> list[Element]:
        """All elements of a finite group, in canonical order."""
        n = self.order()
        if n is None:
            raise GroupSpecError(f"{self!r} is infinite")
        return list(itertools.islice(self.enumerate_elements(), n))

    def generators(self) -> list[Element]:
        """A generating set of a finite group, picked once per handle."""
        if self._generators is None:
            self._generators = self._pick_generators()
        return list(self._generators)

    def _pick_generators(self) -> list[Element]:
        """Greedy: each element, in canonical order, that is not yet in the
        subgroup generated by those picked before it joins them.  Each pick
        at least doubles that subgroup, so a group takes at most log2 of
        its order; the trivial group takes none.  The subgroup is walked as
        the orbit of the identity under right multiplication by the picks,
        which it is in a finite group, where s^-1 is a power of s.  Old
        elements meet only the new pick and new ones every pick, so the
        walk makes |G| |S| products.  On a table not yet known to be a group, each reached
        element is a product of picks, so the picks generate it as a
        magma, which is all Light's test needs.
        """
        mul = self.mul
        reached, seen = [self.identity], {self.identity}  # a list in discovery order
        gens = []
        for a in self.elements():
            if a in seen:
                continue
            gens.append(a)
            old = len(reached)
            for k, x in enumerate(reached):  # the loop meets the elements it appends
                for s in (a,) if k < old else gens:
                    y = mul(x, s)
                    if y not in seen:
                        seen.add(y)
                        reached.append(y)
        return gens

    def _ball_size(self, radius: int) -> int:
        """|B_radius| for radius >= 0, exact up to ``DEFAULT_BALL_CAP``;
        past it, some number above the cap.  On a finite kind the ball is
        the identity at radius 0 and the whole group above it."""
        return 1 if radius == 0 else self.order()

    def ball(self, radius: int) -> list[Element]:
        """All elements of proper length <= radius, in canonical order: the
        first ``_ball_size(radius)`` of the enumeration, refused from that
        size before any is built when it is over ``DEFAULT_BALL_CAP``."""
        if radius < 0:
            return []
        size = self._ball_size(radius)
        if size > DEFAULT_BALL_CAP:
            raise BudgetError(
                f"ball of radius {radius} in {self!r} exceeds cap {DEFAULT_BALL_CAP}")
        return list(itertools.islice(self.enumerate_elements(), size))

    def element_order(self, x: Element) -> Optional[int]:
        """Least k >= 1 with x^k trivial, or None when infinite.

        Torsion-free kinds report None for any non-identity element
        without iterating.
        """
        if x == self.identity:
            return 1
        if not self.is_finite:
            return None
        k = 1
        y = x
        while y != self.identity:
            y = self.mul(y, x)
            k += 1
        return k


class CyclicGroup(GroupHandle):
    kind = "cyclic"

    def __init__(self, n: int):
        if type(n) is not int or n < 1:
            raise GroupSpecError(f"cyclic order must be a positive integer, got {n!r}")
        self.n = n
        self.identity = 0

    def __repr__(self):
        return f"cyclic({self.n})"

    def order(self):
        return self.n

    def mul(self, a, b):
        return (a + b) % self.n

    def inv(self, a):
        return -a % self.n

    def _parse_text(self, text):
        try:
            return int(text) % self.n
        except ValueError:
            raise GroupSpecError(f"bad cyclic element {text!r}") from None

    def is_canonical(self, x):
        return type(x) is int and 0 <= x < self.n

    def enumerate_elements(self):
        return iter(range(self.n))

    def element_order(self, x):
        return self.n // gcd(self.n, x)


class CyclicPowerGroup(GroupHandle):
    """``(Z/m)^d``: tuples of ``d`` residues, multiplied componentwise mod ``m``.

    Elements enumerate in base-m order, the index order of
    ``direct_product_table`` over ``d`` copies of ``cyclic_table(m)``,
    and no table is built.  It is the target of the lattice quotients
    in ``lef``, not a spec kind, so it parses no text.
    """

    kind = "cyclic-power"

    def __init__(self, m: int, d: int):
        if type(m) is not int or m < 1:
            raise GroupSpecError(f"cyclic order must be a positive integer, got {m!r}")
        if type(d) is not int or d < 1:
            raise GroupSpecError(f"power must be positive, got {d!r}")
        self.m = m
        self.d = d
        self.identity = (0,) * d

    def __repr__(self):
        return f"cyclic({self.m})^{self.d}"

    def order(self):
        return self.m ** self.d

    def mul(self, a, b):
        m = self.m
        return tuple([(x + y) % m for x, y in zip(a, b)])

    def inv(self, a):
        m = self.m
        return tuple([-x % m for x in a])

    def enumerate_elements(self):
        return itertools.product(range(self.m), repeat=self.d)


class IntegersGroup(GroupHandle):
    kind = "integers"

    def __init__(self):
        self.identity = 0

    def __repr__(self):
        return "integers"

    def order(self):
        return None

    def mul(self, a, b):
        return a + b

    def inv(self, a):
        return -a

    def _parse_text(self, text):
        try:
            return int(text)
        except ValueError:
            raise GroupSpecError(f"bad integer element {text!r}") from None

    def is_canonical(self, x):
        return type(x) is int

    def length(self, x):
        return abs(x)

    def sort_key(self, x):
        return (abs(x), 0 if x >= 0 else 1)

    def _ball_size(self, radius):
        return 2 * radius + 1

    def enumerate_elements(self):
        yield 0
        for k in itertools.count(1):
            yield k
            yield -k


class LatticeGroup(GroupHandle):
    """``Z^d`` with the l1 proper length."""

    kind = "lattice"

    def __init__(self, d: int):
        if type(d) is not int or d < 1:
            raise GroupSpecError(f"lattice dimension must be positive, got {d!r}")
        self.d = d
        self.identity = (0,) * d

    def __repr__(self):
        return f"lattice({self.d})"

    def order(self):
        return None

    def mul(self, a, b):
        return tuple(map(operator.add, a, b))

    def inv(self, a):
        return tuple(map(operator.neg, a))

    def _parse_text(self, text):
        try:
            coords = tuple(map(int, text.split(",")))
        except ValueError:
            raise GroupSpecError(f"bad lattice element {text!r}") from None
        if len(coords) != self.d:
            raise GroupSpecError(
                f"lattice element {text!r} has {len(coords)} coordinates, expected {self.d}"
            )
        return coords

    def is_canonical(self, x):
        return type(x) is tuple and len(x) == self.d and all(type(c) is int for c in x)

    def length(self, x):
        return sum(map(abs, x))

    def sort_key(self, x):
        return (sum(map(abs, x)), x)

    def _ball_size(self, radius):
        """The sum over k <= min(d, radius) of 2^k C(d, k) C(radius, k)
        (k nonzero coordinates, their signs and the length split among
        them), one term from the last."""
        size = term = 1
        for k in range(1, min(self.d, radius) + 1):
            if size > DEFAULT_BALL_CAP:
                break
            term = term * 2 * (self.d - k + 1) * (radius - k + 1) // (k * k)
            size += term
        return size

    def _sphere(self, r: int) -> Iterator[tuple[int, ...]]:
        """The elements of length r in lexicographic order, one at a time.

        An odometer runs over the first d - 1 coordinates, and the last
        takes -rest, then +rest, of the length they leave.  ``rem[j]`` is
        the length left for coordinates j.., and the first ``live``
        coordinates are those with some left; every later one is 0, so a
        step touches at most two coordinates.
        """
        last = self.d - 1
        head = [0] * last
        rem = [r] + [0] * last
        if last:
            head[0] = -r
        live = 1 if r and last else 0
        while True:
            rest = rem[last]
            prefix = tuple(head)
            if rest:
                yield prefix + (-rest,)
                yield prefix + (rest,)
            else:
                yield prefix + (0,)
            i = live - 1
            if i >= 0 and head[i] == rem[i]:
                i -= 1  # spent all it had; the one before it has room
            if i < 0:
                return
            head[i] += 1
            left = rem[i + 1] = rem[i] - abs(head[i])
            if i + 1 < last:
                head[i + 1] = -left
                live = i + 2 if left else i + 1
            else:
                live = last

    def enumerate_elements(self):
        for r in itertools.count(0):
            yield from self._sphere(r)


class FreeGroup(GroupHandle):
    """Free group on ``rank`` letters; elements are reduced words.

    Letter ``a`` inverts to ``A`` and so on; the empty word is the
    identity.  All stored words are reduced.
    """

    kind = "free"

    def __init__(self, rank: int):
        if type(rank) is not int or not 1 <= rank <= 26:
            raise GroupSpecError(f"free rank must be in 1..26, got {rank!r}")
        self.rank = rank
        self.identity = ""
        self.letters = []
        for c in _FREE_ALPHABET[:rank]:
            self.letters.extend([c, c.upper()])
        self._letter_set = frozenset(self.letters)
        # each letter to the character of its rank, so words of one length
        # compare as strings exactly as their rank sequences compare
        self._rank_table = str.maketrans(
            "".join(self.letters), "".join(map(chr, range(len(self.letters)))))
        # a letter next to its inverse: the word is not reduced
        self._cancelling = re.compile("|".join(c + c.swapcase() for c in self.letters))
        # the letters that may follow each letter in a reduced word
        self._follow = {c: [x for x in self.letters if x != c.swapcase()]
                        for c in self.letters}

    def __repr__(self):
        return f"free({self.rank})"

    def order(self):
        return None

    @staticmethod
    def _reduce(chars: Sequence[str]) -> str:
        stack: list[str] = []
        for c in chars:
            if stack and stack[-1] == c.swapcase():
                stack.pop()
            else:
                stack.append(c)
        return "".join(stack)

    def mul(self, a, b):
        # both inputs reduced, so cancellation only happens at the seam
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == b[j].swapcase():
            i -= 1
            j += 1
        return a[:i] + b[j:]

    def inv(self, a):
        return a[::-1].swapcase()

    def _parse_text(self, text):
        if not self._letter_set.issuperset(text):
            c = next(c for c in text if c not in self._letter_set)
            raise GroupSpecError(f"letter {c!r} not among the {self.rank} generators")
        return self._reduce(text) if self._cancelling.search(text) else text

    def is_canonical(self, x):
        return type(x) is str and self._letter_set.issuperset(x) \
            and not self._cancelling.search(x)

    def length(self, x):
        return len(x)

    def sort_key(self, x):
        """The length, then the word with each letter replaced by the
        character of its rank: a string, not a tuple of ranks, since
        tuples of every word length would each fill their own free list."""
        return (len(x), x.translate(self._rank_table))

    def _ball_size(self, radius):
        """1 + the sum over j <= radius of 2k (2k - 1)^(j - 1), k the rank:
        a first letter, then any but the inverse of the last, one sphere
        from the last."""
        if self.rank == 1:  # every sphere has 2 words: no sum to run
            return 2 * radius + 1
        size, sphere = 1, 2 * self.rank
        for _ in range(radius):
            if size > DEFAULT_BALL_CAP:
                break
            size += sphere
            sphere *= 2 * self.rank - 1
        return size

    def enumerate_elements(self):
        yield ""
        yield from self.letters
        for length in itertools.count(2):
            yield from self._layer(length)

    def _layer(self, length: int) -> Iterator[str]:
        """The reduced words of one length >= 2 in canonical order, by a
        depth-first walk over their prefixes one letter shorter."""
        follow = self._follow
        stack = [("", iter(self.letters))]
        while stack:
            prefix, letters = stack[-1]
            for c in letters:
                w = prefix + c
                if len(w) < length - 1:
                    stack.append((w, iter(follow[c])))
                    break
                for x in follow[c]:
                    yield w + x
            else:
                stack.pop()


class TableGroup(GroupHandle):
    """Finite group given by a full multiplication table over indices."""

    kind = "table"

    def __init__(self, table: list[list[int]]):
        if type(table) is not list or not {list}.issuperset(map(type, table)) \
                or not {int}.issuperset(map(type, itertools.chain.from_iterable(table))):
            raise GroupSpecError("table must be a list of lists of ints")
        n = len(table)
        if n == 0 or set(map(len, table)) != {n}:
            raise GroupSpecError("table must be a nonempty square matrix")
        self._rows = rows = list(map(tuple, table))
        permutes = set(range(n)).__eq__
        if not all(map(permutes, map(set, rows))):
            raise GroupSpecError("table rows must each permute 0..n-1")
        columns = list(zip(*rows))
        if not all(map(permutes, map(set, columns))):
            raise GroupSpecError("table columns must each permute 0..n-1")
        cells = tuple(range(n))
        self.identity = next((e for e in range(n) if rows[e] == cells == columns[e]), None)
        if self.identity is None:
            raise GroupSpecError("table has no two-sided identity")
        self.n = n
        self._check_associativity()
        self._inv = [row.index(self.identity) for row in rows]

    def _check_associativity(self):
        """Light's test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, 1961), exact at n^2 |S| products.

        The s with (x s) y = x (s y) for all x, y are closed under the
        product, so checking them for a set S that generates the table
        proves associativity.  S is the greedy ``generators()``, whose
        orbit walk takes only products and so needs no associativity.  A
        row x (s y) is gathered in C, as ``compose_dense`` does.
        """
        n, t = self.n, self._rows
        for s in self.generators():
            ts = t[s]
            gather = operator.itemgetter(*ts)
            for x, tx in enumerate(t):
                left = t[tx[s]]
                if left != gather(tx):
                    y = next(y for y in range(n) if left[y] != tx[ts[y]])
                    raise GroupSpecError(f"table is not associative at ({x},{s},{y})")

    def __repr__(self):
        return f"table({self.n})"

    @property
    def table(self) -> list[list[int]]:
        """The table as a spec gives it, a list of lists; rows are held as tuples."""
        return list(map(list, self._rows))

    def order(self):
        return self.n

    def mul(self, a, b):
        return self._rows[a][b]

    def inv(self, a):
        return self._inv[a]

    def _parse_text(self, text):
        try:
            v = int(text)
        except ValueError:
            raise GroupSpecError(f"bad table element {text!r}") from None
        if not 0 <= v < self.n:
            raise GroupSpecError(f"table element {v} out of range 0..{self.n - 1}")
        return v

    def is_canonical(self, x):
        return type(x) is int and 0 <= x < self.n

    def enumerate_elements(self):
        yield self.identity
        for i in range(self.n):
            if i != self.identity:
                yield i


def parse_group(spec: dict) -> GroupHandle:
    """Build a handle from a group-spec document (parsed JSON)."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise GroupSpecError(f"group spec must be an object with a 'type': {spec!r}")
    kind = spec["type"]
    if kind == "cyclic":
        return CyclicGroup(spec.get("n", 0))
    if kind == "integers":
        return IntegersGroup()
    if kind == "lattice":
        return LatticeGroup(spec.get("d", 0))
    if kind == "free":
        return FreeGroup(spec.get("rank", 0))
    if kind == "table":
        if "table" not in spec:
            raise GroupSpecError("table spec needs a 'table' matrix")
        return TableGroup(spec["table"])
    raise GroupSpecError(f"unknown group kind {kind!r}")


def cyclic_table(n: int) -> list[list[int]]:
    """Multiplication table of Z/n over indices."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def direct_product_table(t1: Sequence[Sequence[int]],
                         t2: Sequence[Sequence[int]]) -> list[list[int]]:
    """Table of the direct product, elements indexed as i1 * |G2| + i2."""
    pairs = list(itertools.product(range(len(t1)), range(len(t2))))
    return [[t1[a1][b1] * len(t2) + t2[a2][b2] for b1, b2 in pairs] for a1, a2 in pairs]


def symmetric_group_table(n: int) -> list[list[int]]:
    """Table of Sym(n) with elements enumerated by itertools.permutations."""
    perms = list(itertools.permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    return [
        [index[tuple(p[q[k]] for k in range(n))] for q in perms]
        for p in perms
    ]


# ----------------------------------------------------------------------
# Dense permutations of 0..n-1 and the order engine for the groups they
# generate.

DensePerm = tuple[int, ...]

# The most points the order engine and ``finite.glued_order`` take.  At
# 64 points both certify C32 glued with C33 from a 3-cycle, in about
# 0.4 ms and 0.06 ms; the engine's completion takes about 0.3 s on
# Sym(32) x Sym(32) (2-CPU x86 host, Python 3.11).
POINT_CAP = 64


def compose_dense(p: DensePerm, q: DensePerm) -> DensePerm:
    """(p o q): apply q first, then p.

    The gather runs in C: ``itemgetter(*q)(p)`` is the tuple of p[i] for
    i in q, in one call.  Below two points a plain tuple is built, since
    itemgetter takes no index at n = 0 and returns a bare item at n = 1.
    """
    if len(q) < 2:
        return tuple([p[i] for i in q])
    return operator.itemgetter(*q)(p)


def inverse_dense(p: DensePerm) -> DensePerm:
    out = [0] * len(p)
    for i, j in enumerate(p):
        out[j] = i
    return tuple(out)


def parity_dense(p: DensePerm) -> int:
    """0 for even, 1 for odd."""
    seen = [False] * len(p)
    flips = 0
    for i in range(len(p)):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        flips += length - 1
    return flips % 2


def _check_point_perm(p: Sequence[int], n: int) -> DensePerm:
    t = tuple(p)
    if len(t) != n or sorted(t) != list(range(n)):
        raise GroupSpecError(f"not a permutation of 0..{n - 1}: {p!r}")
    return t


def check_point_cap(n: int) -> None:
    """Refuse a permutation group on more points than the order engine takes."""
    if n > POINT_CAP:
        raise BudgetError(f"{n} points exceeds the cap of {POINT_CAP}")


def alt_sym_order(gens: Sequence[DensePerm], c: DensePerm) -> Optional[int]:
    """n! or n!/2 when a 3-cycle c certifies that ``gens`` generate Sym(n)
    or Alt(n), and None when it does not.

    c must lie in the group G the generators generate.  A permutation
    that moves exactly three points is a 3-cycle.  Atkinson's union-find
    (*Math. Comp.* 29, 1975; Seress 2003, ch. 5) merges supp(c) and closes
    the merge under ``gens``: each merge of the classes of a and b queues
    (g(a), g(b)) for every generator g.  Every merge is forced, and the
    result is invariant, so it is the finest G-invariant partition
    holding supp(c) in one class; it stops at the merge that leaves one
    class, since no pair can split it.  Lemma: if that partition is a
    single class, G contains Alt(n).  Let N be the normal closure of <c> in G.
    The orbits of N form a G-invariant partition, and supp(c) lies in one
    of them, so they are a single class and N is transitive.  N is
    generated by 3-cycles, the conjugates of c, and a transitive group
    generated by 3-cycles is Alt(n) (Wielandt 1964, section 13; Dixon and
    Mortimer 1996, ch. 3).  So G is Sym(n) when some generator is odd and
    Alt(n) otherwise.  Conversely a group containing Alt(n) is primitive,
    so the certificate holds for every such G and every 3-cycle c in it.
    """
    support = [i for i, x in enumerate(c) if x != i]
    if len(support) != 3:
        return None
    n = len(c)
    label = list(range(n))  # point -> its class
    members = [[i] for i in range(n)]  # class -> its points
    classes = n
    pairs = [(support[0], b) for b in support[1:]]
    while pairs and classes > 1:
        a, b = pairs.pop()
        x, y = label[a], label[b]
        if x != y:
            # relabel the smaller class: a point moves at most log2(n) times
            if len(members[x]) < len(members[y]):
                x, y = y, x
            for p in members[y]:
                label[p] = x
            members[x] += members[y]
            classes -= 1
            for g in gens:
                pairs.append((g[a], g[b]))
    if classes > 1:
        return None
    order = math.factorial(n)
    return order if any(parity_dense(g) for g in gens) else order // 2


def schreier_sims_order(generators: Sequence[Sequence[int]]) -> int:
    """Exact order of the permutation group generated by ``generators``.

    Certificate first, completion second (Seress, *Permutation Group
    Algorithms*, 2003, ch. 4; Holt, Eick and O'Brien, *Handbook of
    Computational Group Theory*, 2005, 4.4).  When the orbit of the
    first base point holds every point, a 3-cycle found by
    ``_three_cycle`` may let ``alt_sym_order`` prove n! or n!/2.  An
    intransitive group skips the search: on 3 or more points it is
    neither Alt nor Sym.

    Otherwise incremental deterministic Schreier-Sims completes the same
    chain, and the order is the product of its orbit sizes.  No work is
    done twice: the strong generators are append-only and the base
    prefix of a level never changes, so a level's generators only grow
    at their end; ``_StabilizerChain.close`` meets old orbit points only
    with the generators they have not met; each transversal only grows,
    with each entry's inverse stored beside it; and each level records
    how many of its generators every orbit point has been tested
    against, so re-completing a level sifts only the new (point,
    generator) pairs.  An element that once sifted to the identity still
    does, since the transversals below keep every entry they had.
    """
    gens = list(generators)
    if not gens:
        return 1
    n = len(gens[0])
    check_point_cap(n)
    gens = [_check_point_perm(g, n) for g in gens]
    chain = _StabilizerChain(gens)
    if chain.levels:
        chain.close(chain.levels[0])
        if len(chain.levels[0].orbit) == n:
            c = _three_cycle(gens)
            order = None if c is None else alt_sym_order(gens, c)
            if order is not None:
                return order
    for i in range(len(chain.levels) - 1, -1, -1):
        chain.complete(i)
    return math.prod(len(level.orbit) for level in chain.levels)


# The 3-cycle search of ``schreier_sims_order``: product-replacement
# slots, and elements drawn before it gives up.
_SEARCH_SLOTS = 8
_SEARCH_DRAWS = 64


def _three_cycle(gens: Sequence[DensePerm]) -> Optional[DensePerm]:
    """A 3-cycle in the group ``gens`` generate, or None.

    Seeded product replacement (Celler, Leedham-Green, Murray, Niemeyer
    and O'Brien, *Comm. Algebra* 23, 1995) draws elements x until one
    has exactly one 3-cycle and no other cycle of length divisible by 3.
    With m the lcm of the other lengths, x^m is that 3-cycle or its
    inverse, so the 3-cycle read off x lies in the group.
    """
    n = len(gens[0])
    randrange = Random(0).randrange
    slots = [gens[k % len(gens)] for k in range(_SEARCH_SLOTS)]
    x = tuple(range(n))
    for _ in range(_SEARCH_DRAWS):
        i = randrange(_SEARCH_SLOTS)
        j = (i + 1 + randrange(_SEARCH_SLOTS - 1)) % _SEARCH_SLOTS  # any slot but i
        slots[i] = compose_dense(slots[i], slots[j])
        x = compose_dense(x, slots[i])
        seen, divisible, three = set(), 0, None
        for a in range(n):
            if a not in seen:
                cycle = [a]
                while x[cycle[-1]] != a:
                    cycle.append(x[cycle[-1]])
                seen.update(cycle)
                if len(cycle) % 3 == 0:
                    divisible += 1
                    if len(cycle) == 3:
                        three = cycle
        if divisible == 1 and three:
            c = list(range(n))
            for a in three:
                c[a] = x[a]
            return tuple(c)
    return None


class _Level:
    """One level of a stabilizer chain: the base point, the strong
    generators fixing every earlier base point, and the transversal of
    the point's orbit under them."""

    __slots__ = ("point", "gens", "orbit", "reps", "inverses", "tested", "closed")

    def __init__(self, point: int, identity: DensePerm):
        self.point = point
        self.gens: list[DensePerm] = []
        self.orbit = [point]  # in discovery order
        self.reps = {point: identity}  # orbit point b -> u with u[point] = b
        self.inverses = {point: identity}  # b -> the inverse of reps[b]
        self.tested = [0]  # orbit[k] has met gens[:tested[k]]
        self.closed = 0  # the orbit is closed under gens[:closed]


class _StabilizerChain:
    """The state of ``schreier_sims_order``.  Its methods recurse through
    ``self``, so no closure refers to itself and nothing is left for the
    cycle collector."""

    def __init__(self, gens: Sequence[DensePerm]):
        """The chain with strong generators ``gens`` and no orbit built."""
        self.identity = tuple(range(len(gens[0])))
        self.levels: list[_Level] = []
        self.seen: set[DensePerm] = set()
        for g in gens:
            self.add_strong(g)

    def add_strong(self, p: DensePerm) -> None:
        """Append p to the generators of every level whose base prefix it
        fixes, and add a base point it moves if it fixes them all."""
        if p == self.identity or p in self.seen:
            return
        self.seen.add(p)
        for level in self.levels:
            level.gens.append(p)
            if p[level.point] != level.point:
                return
        level = _Level(next(i for i, x in enumerate(p) if x != i), self.identity)
        level.gens.append(p)
        self.levels.append(level)

    def close(self, level: _Level) -> None:
        """Close the orbit of ``level`` under its generators; old points
        meet only those past ``level.closed``.  Closure sifts no Schreier
        generator, so a point it finds starts with ``tested`` at 0."""
        gens, orbit, reps, inverses = level.gens, level.orbit, level.reps, level.inverses
        old, fresh = len(orbit), gens[level.closed:]
        for k, a in enumerate(orbit):  # the loop meets the points it appends
            for g in fresh if k < old else gens:
                b = g[a]
                if b not in reps:
                    u = compose_dense(g, reps[a])
                    reps[b] = u
                    inverses[b] = inverse_dense(u)
                    orbit.append(b)
                    level.tested.append(0)
        level.closed = len(gens)

    def sift(self, p: DensePerm, i: int) -> tuple[DensePerm, int]:
        """Divide p by transversal entries from level i on: the residue,
        and the level it stopped at."""
        for level in self.levels[i:]:
            point = level.point
            b = p[point]
            if b != point:  # else the entry is the identity
                inv = level.inverses.get(b)
                if inv is None:
                    break
                p = compose_dense(inv, p)
            i += 1
        return p, i

    def complete(self, i: int) -> None:
        """Make level i complete, given that the levels below it are.

        The orbit is closed first, so each (point, generator) pair not yet
        tested only sifts its Schreier generator.  Only the generators
        present on entry are tested; one appended meanwhile lies in the
        group they generate, and meets the orbit the next time this level
        is completed.
        """
        identity = self.identity
        level = self.levels[i]
        if level.closed < len(level.gens):
            self.close(level)
        m = level.closed
        inverses, tested = level.inverses, level.tested
        for k, a in enumerate(level.orbit):
            start = tested[k]
            tested[k] = m
            ta = level.reps[a]
            for g in level.gens[start:m]:
                schreier = compose_dense(inverses[g[a]], compose_dense(g, ta))
                if schreier == identity:
                    continue
                residue, j = self.sift(schreier, i + 1)
                if residue != identity:
                    self.add_strong(residue)
                    for below in range(j, i, -1):
                        self.complete(below)
