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

Each handle also fixes a proper length (0/1 on finite kinds, word or
l1 length on infinite ones) and a canonical enumeration order used for
balls and for deterministic serialisation.
"""

from __future__ import annotations

import itertools
import operator
from math import comb, gcd
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
        """The declared proper length of ``x``."""
        raise NotImplementedError

    def sort_key(self, x: Element):
        """Key realising the canonical enumeration order."""
        raise NotImplementedError

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

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[Element]:
        """All elements of proper length <= radius, in canonical order."""
        if radius < 0:
            return []
        out: list[Element] = []
        for x in self.enumerate_elements():
            if self.length(x) > radius:
                break
            out.append(x)
            if len(out) > cap:
                self._refuse_ball(radius, cap)
        return out

    def _refuse_ball(self, radius: int, cap: int):
        raise BudgetError(f"ball of radius {radius} in {self!r} exceeds cap {cap}")

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

    def length(self, x):
        return 0 if x == 0 else 1

    def sort_key(self, x):
        return (x,)

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

    def length(self, x):
        return 0 if x == self.identity else 1

    def sort_key(self, x):
        return x

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

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[Element]:
        """Refused from its size, sum over k of 2^k C(d, k) C(radius, k),
        before any element is built: each one holds d ints."""
        if sum(2**k * comb(self.d, k) * comb(radius, k) for k in range(radius + 1)) > cap:
            self._refuse_ball(radius, cap)
        return super().ball(radius, cap)

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
        self._letter_rank = {c: i for i, c in enumerate(self.letters)}
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
        for c in text:
            if c not in self._letter_rank:
                raise GroupSpecError(
                    f"letter {c!r} not among the {self.rank} generators"
                )
        return self._reduce(text)

    def is_canonical(self, x):
        return type(x) is str and all(c in self._letter_rank for c in x) \
            and self._reduce(x) == x

    def length(self, x):
        return len(x)

    def sort_key(self, x):
        return (len(x), tuple(self._letter_rank[c] for c in x))

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
        if type(table) is not list or not all(
                type(row) is list and all(type(x) is int for x in row) for row in table):
            raise GroupSpecError("table must be a list of lists of ints")
        self.table = [list(row) for row in table]
        n = len(self.table)
        if n == 0 or any(len(row) != n for row in self.table):
            raise GroupSpecError("table must be a nonempty square matrix")
        cells = set(range(n))
        for row in self.table:
            if set(row) != cells:
                raise GroupSpecError("table rows must each permute 0..n-1")
        for j in range(n):
            if {row[j] for row in self.table} != cells:
                raise GroupSpecError("table columns must each permute 0..n-1")
        ident = [e for e in range(n)
                 if all(self.table[e][j] == j for j in range(n))
                 and all(self.table[i][e] == i for i in range(n))]
        if not ident:
            raise GroupSpecError("table has no two-sided identity")
        self.identity = ident[0]
        self.n = n
        self._check_associativity()
        self._inv = [0] * n
        for i in range(n):
            self._inv[i] = self.table[i].index(self.identity)

    def _check_associativity(self):
        """Light's test (Clifford and Preston, The Algebraic Theory of
        Semigroups I, 1961), exact at n^2 |S| products.

        The s with (x s) y = x (s y) for all x, y are closed under the
        product, so checking them for a set S that generates the table
        proves associativity.  S is picked greedily: each element not yet
        in the closure of {e} and S joins it, so a group takes at most
        log2(n) + 1 of them.
        """
        n, t = self.n, self.table
        reached = {self.identity}
        gens = []
        for a in range(n):
            if a in reached:
                continue
            gens.append(a)
            reached.add(a)
            frontier = [a]
            while frontier:  # each new u meets every element reached so far
                u = frontier.pop()
                for v in list(reached):
                    for w in (t[u][v], t[v][u]):
                        if w not in reached:
                            reached.add(w)
                            frontier.append(w)
        for s in gens:
            ts = t[s]
            for x in range(n):
                tx, left = t[x], t[t[x][s]]
                if left != [tx[v] for v in ts]:
                    y = next(y for y in range(n) if left[y] != tx[ts[y]])
                    raise GroupSpecError(f"table is not associative at ({x},{s},{y})")

    def __repr__(self):
        return f"table({self.n})"

    def order(self):
        return self.n

    def mul(self, a, b):
        return self.table[a][b]

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

    def length(self, x):
        return 0 if x == self.identity else 1

    def sort_key(self, x):
        return (x,)

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
    n1, n2 = len(t1), len(t2)

    def pair(i, j):
        return i * n2 + j

    out = [[0] * (n1 * n2) for _ in range(n1 * n2)]
    for a1, a2, b1, b2 in itertools.product(range(n1), range(n2), range(n1), range(n2)):
        out[pair(a1, a2)][pair(b1, b2)] = pair(t1[a1][b1], t2[a2][b2])
    return out


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

POINT_CAP = 64  # the most points the order engine takes; at 64 a run can take minutes


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


def schreier_sims_order(generators: Sequence[Sequence[int]]) -> int:
    """Exact order of the permutation group generated by ``generators``.

    Deterministic base-and-strong-generating-set computation; the result
    is the product of the basic orbit sizes along the stabilizer chain.
    """
    gens = [list(g) for g in generators]
    if not gens:
        return 1
    n = len(gens[0])
    check_point_cap(n)
    identity = tuple(range(n))
    strong = []
    seen = set()
    for g in gens:
        p = _check_point_perm(g, n)
        if p != identity and p not in seen:
            strong.append(p)
            seen.add(p)
    if not strong:
        return 1

    base: list[int] = []
    orbits: list[dict[int, tuple[int, ...]]] = []

    def extend_base_for(p: tuple[int, ...]):
        if all(p[b] == b for b in base):
            point = next(i for i in range(n) if p[i] != i)
            base.append(point)
            orbits.append({})

    for p in strong:
        extend_base_for(p)

    def level_gens(i: int) -> list[tuple[int, ...]]:
        prefix = base[:i]
        return [g for g in strong if all(g[b] == b for b in prefix)]

    def rebuild_orbit(i: int, gens_i: list[tuple[int, ...]]):
        transversal = {base[i]: identity}
        frontier = [base[i]]
        while frontier:
            a = frontier.pop()
            ta = transversal[a]
            for g in gens_i:
                b = g[a]
                if b not in transversal:
                    transversal[b] = compose_dense(g, ta)
                    frontier.append(b)
        orbits[i] = transversal

    def sift(p: tuple[int, ...], i: int) -> tuple[tuple[int, ...], int]:
        while i < len(base):
            rep = orbits[i].get(p[base[i]])
            if rep is None:
                return p, i
            p = compose_dense(inverse_dense(rep), p)
            i += 1
        return p, i

    def complete_level(i: int):
        # assumes levels i+1.. are complete; makes level i complete
        gens_i = level_gens(i)
        rebuild_orbit(i, gens_i)
        for a in sorted(orbits[i]):
            ta = orbits[i][a]
            for g in gens_i:
                tb = orbits[i][g[a]]
                schreier = compose_dense(inverse_dense(tb), compose_dense(g, ta))
                if schreier == identity:
                    continue
                residue, j = sift(schreier, i + 1)
                if residue == identity:
                    continue
                if residue not in seen:
                    strong.append(residue)
                    seen.add(residue)
                    extend_base_for(residue)
                for level in range(min(j, len(base) - 1), i, -1):
                    complete_level(level)

    for i in range(len(base) - 1, -1, -1):
        complete_level(i)

    order = 1
    for transversal in orbits:
        order *= len(transversal)
    return order
