"""Catalog of factor groups with a uniform exact-element interface.

Every element is a canonical string, so equality and hashing are byte
equality regardless of kind:

- ``integers``:   decimal, e.g. ``"-3"``
- ``cyclic(n)``:  decimal residue ``"0"`` .. ``"n-1"``
- ``lattice(d)``: comma-separated decimals, e.g. ``"1,-2"``
- ``free(rank)``: reduced word; lowercase generators, uppercase inverses
- ``table``:      element index ``"0"`` .. ``"n-1"``

Each handle also fixes a proper length (0/1 on finite kinds, word or
l1 length on infinite ones) and a canonical enumeration order used for
balls and for deterministic serialisation.
"""

from __future__ import annotations

import itertools
from math import gcd
from random import Random
from typing import Iterator, Optional, Sequence

from .errors import BudgetError, GroupSpecError

DEFAULT_BALL_CAP = 10**6
TABLE_EXHAUSTIVE_LIMIT = 64
_TABLE_SAMPLED_TRIPLES = 10**4
_FREE_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class GroupHandle:
    """A factor group with exact multiplication on canonical strings."""

    kind: str = ""
    identity: str = ""

    @property
    def is_finite(self) -> bool:
        return self.order() is not None

    def order(self) -> Optional[int]:
        """Group order, or None when infinite."""
        raise NotImplementedError

    def mul(self, a: str, b: str) -> str:
        raise NotImplementedError

    def inv(self, a: str) -> str:
        raise NotImplementedError

    def parse(self, text: str) -> str:
        """Canonicalise an element literal, validating it."""
        raise NotImplementedError

    def length(self, x: str) -> int:
        """The declared proper length of ``x``."""
        raise NotImplementedError

    def sort_key(self, x: str):
        """Key realising the canonical enumeration order."""
        raise NotImplementedError

    def enumerate_elements(self) -> Iterator[str]:
        """All elements in canonical order, identity first.

        The iterator is infinite for infinite kinds and yields elements
        in nondecreasing proper length.
        """
        raise NotImplementedError

    def spec(self) -> dict:
        """A JSON-serialisable spec that reparses to an equal handle."""
        raise NotImplementedError

    def elements(self) -> list[str]:
        """All elements of a finite group, in canonical order."""
        n = self.order()
        if n is None:
            raise GroupSpecError(f"{self!r} is infinite")
        return list(itertools.islice(self.enumerate_elements(), n))

    def ball(self, radius: int, cap: int = DEFAULT_BALL_CAP) -> list[str]:
        """All elements of proper length <= radius, in canonical order."""
        if radius < 0:
            return []
        out: list[str] = []
        for x in self.enumerate_elements():
            if self.length(x) > radius:
                break
            out.append(x)
            if len(out) > cap:
                raise BudgetError(
                    f"ball of radius {radius} in {self!r} exceeds cap {cap}"
                )
        return out

    def element_order(self, x: str) -> Optional[int]:
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

    def power(self, x: str, n: int) -> str:
        if n < 0:
            return self.power(self.inv(x), -n)
        acc = self.identity
        base = x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc


class CyclicGroup(GroupHandle):
    kind = "cyclic"

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 1:
            raise GroupSpecError(f"cyclic order must be a positive integer, got {n!r}")
        self.n = n
        self.identity = "0"

    def __repr__(self):
        return f"cyclic({self.n})"

    def order(self):
        return self.n

    def mul(self, a, b):
        return str((int(a) + int(b)) % self.n)

    def inv(self, a):
        return str(-int(a) % self.n)

    def parse(self, text):
        try:
            v = int(text)
        except ValueError:
            raise GroupSpecError(f"bad cyclic element {text!r}") from None
        return str(v % self.n)

    def length(self, x):
        return 0 if x == "0" else 1

    def sort_key(self, x):
        return (int(x),)

    def enumerate_elements(self):
        return (str(i) for i in range(self.n))

    def element_order(self, x):
        return self.n // gcd(self.n, int(x))

    def spec(self):
        return {"type": "cyclic", "n": self.n}


class IntegersGroup(GroupHandle):
    kind = "integers"

    def __init__(self):
        self.identity = "0"

    def __repr__(self):
        return "integers"

    def order(self):
        return None

    def mul(self, a, b):
        return str(int(a) + int(b))

    def inv(self, a):
        return str(-int(a))

    def parse(self, text):
        try:
            v = int(text)
        except ValueError:
            raise GroupSpecError(f"bad integer element {text!r}") from None
        return str(v)

    def length(self, x):
        return abs(int(x))

    def sort_key(self, x):
        v = int(x)
        return (abs(v), 0 if v >= 0 else 1)

    def enumerate_elements(self):
        yield "0"
        for k in itertools.count(1):
            yield str(k)
            yield str(-k)

    def spec(self):
        return {"type": "integers"}


class LatticeGroup(GroupHandle):
    """``Z^d`` with the l1 proper length."""

    kind = "lattice"

    def __init__(self, d: int):
        if not isinstance(d, int) or d < 1:
            raise GroupSpecError(f"lattice dimension must be positive, got {d!r}")
        self.d = d
        self.identity = ",".join(["0"] * d)

    def __repr__(self):
        return f"lattice({self.d})"

    def order(self):
        return None

    def _coords(self, x: str) -> tuple[int, ...]:
        return tuple(int(c) for c in x.split(","))

    def _fmt(self, coords: Sequence[int]) -> str:
        return ",".join(str(c) for c in coords)

    def mul(self, a, b):
        return self._fmt([u + v for u, v in zip(self._coords(a), self._coords(b))])

    def inv(self, a):
        return self._fmt([-u for u in self._coords(a)])

    def parse(self, text):
        try:
            coords = self._coords(text)
        except ValueError:
            raise GroupSpecError(f"bad lattice element {text!r}") from None
        if len(coords) != self.d:
            raise GroupSpecError(
                f"lattice element {text!r} has {len(coords)} coordinates, expected {self.d}"
            )
        return self._fmt(coords)

    def length(self, x):
        return sum(abs(c) for c in self._coords(x))

    def sort_key(self, x):
        coords = self._coords(x)
        return (sum(abs(c) for c in coords), coords)

    def _sphere(self, r: int) -> list[tuple[int, ...]]:
        out = []

        def rec(prefix: tuple[int, ...], remaining: int, slots: int):
            if slots == 1:
                for c in (remaining, -remaining) if remaining else (0,):
                    out.append(prefix + (c,))
                return
            for a in range(-remaining, remaining + 1):
                rec(prefix + (a,), remaining - abs(a), slots - 1)

        rec((), r, self.d)
        return sorted(out)

    def enumerate_elements(self):
        for r in itertools.count(0):
            for coords in self._sphere(r):
                yield self._fmt(coords)

    def spec(self):
        return {"type": "lattice", "d": self.d}


class FreeGroup(GroupHandle):
    """Free group on ``rank`` letters; elements are reduced words.

    Letter ``a`` inverts to ``A`` and so on; the empty word is the
    identity.  All stored words are reduced.
    """

    kind = "free"

    def __init__(self, rank: int):
        if not isinstance(rank, int) or not 1 <= rank <= 26:
            raise GroupSpecError(f"free rank must be in 1..26, got {rank!r}")
        self.rank = rank
        self.identity = ""
        self.letters = []
        for c in _FREE_ALPHABET[:rank]:
            self.letters.extend([c, c.upper()])
        self._letter_rank = {c: i for i, c in enumerate(self.letters)}

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

    def parse(self, text):
        for c in text:
            if c not in self._letter_rank:
                raise GroupSpecError(
                    f"letter {c!r} not among the {self.rank} generators"
                )
        return self._reduce(text)

    def length(self, x):
        return len(x)

    def sort_key(self, x):
        return (len(x), tuple(self._letter_rank[c] for c in x))

    def enumerate_elements(self):
        layer = [""]
        yield ""
        while True:
            nxt = []
            for w in layer:
                for c in self.letters:
                    if w and w[-1] == c.swapcase():
                        continue
                    nxt.append(w + c)
            yield from nxt
            layer = nxt

    def spec(self):
        return {"type": "free", "rank": self.rank}


class TableGroup(GroupHandle):
    """Finite group given by a full multiplication table over indices."""

    kind = "table"

    def __init__(self, table: Sequence[Sequence[int]]):
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
        self._e = ident[0]
        self.identity = str(self._e)
        self.n = n
        self._check_associativity()
        self._inv = [0] * n
        for i in range(n):
            self._inv[i] = self.table[i].index(self._e)

    def _check_associativity(self):
        n = self.n
        t = self.table
        if n <= TABLE_EXHAUSTIVE_LIMIT:
            triples = itertools.product(range(n), repeat=3)
        else:
            rng = Random(0)
            triples = (
                (rng.randrange(n), rng.randrange(n), rng.randrange(n))
                for _ in range(_TABLE_SAMPLED_TRIPLES)
            )
        for a, b, c in triples:
            if t[t[a][b]][c] != t[a][t[b][c]]:
                raise GroupSpecError(
                    f"table is not associative at ({a},{b},{c})"
                )

    def __repr__(self):
        return f"table({self.n})"

    def order(self):
        return self.n

    def mul(self, a, b):
        return str(self.table[int(a)][int(b)])

    def inv(self, a):
        return str(self._inv[int(a)])

    def parse(self, text):
        try:
            v = int(text)
        except ValueError:
            raise GroupSpecError(f"bad table element {text!r}") from None
        if not 0 <= v < self.n:
            raise GroupSpecError(f"table element {v} out of range 0..{self.n - 1}")
        return str(v)

    def length(self, x):
        return 0 if x == self.identity else 1

    def sort_key(self, x):
        return (int(x),)

    def enumerate_elements(self):
        yield self.identity
        for i in range(self.n):
            if i != self._e:
                yield str(i)

    def spec(self):
        return {"type": "table", "table": self.table}


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


def compose_dense(p: DensePerm, q: DensePerm) -> DensePerm:
    """(p o q): apply q first, then p."""
    return tuple(p[i] for i in q)


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


def schreier_sims_order(generators: Sequence[Sequence[int]],
                        point_cap: int = 64) -> int:
    """Exact order of the permutation group generated by ``generators``.

    Deterministic base-and-strong-generating-set computation; the result
    is the product of the basic orbit sizes along the stabilizer chain.
    """
    gens = [list(g) for g in generators]
    if not gens:
        return 1
    n = len(gens[0])
    if n > point_cap:
        raise BudgetError(f"{n} points exceeds the cap of {point_cap}")
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
