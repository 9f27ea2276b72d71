"""The benchmark's workloads: seeded inputs, request executors and oracles.

Inputs are generated here from the workload seed as text words, JSON
group specs and JSON vertex ledgers, without ``gluedprod.sampling``, so
the library only ever receives these generated inputs.  Each executor
turns one request into its canonical output text, as the matching CLI
command would print it.  Each ``check`` is an oracle on that text that
does not go through the code path being timed.

Requests come in rounds: a round is a fixed mix, and the timed loop
stops only between rounds, so the mix measured does not depend on where
the clock ran out.  Per-round sizes are fixed and the seed only chooses
payloads, so different seeds cost about the same.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from random import Random

from gluedprod import cubes, dynamics, finite, lef
from gluedprod.core import PvContext
from gluedprod.groups import parse_group
from gluedprod.pointed import BASE

INTEGERS = {"type": "integers"}
FREE2 = {"type": "free", "rank": 2}
LATTICE2 = {"type": "lattice", "d": 2}
CYCLIC3 = {"type": "cyclic", "n": 3}
NONZERO = (-3, -2, -1, 1, 2, 3)


@dataclass(frozen=True)
class Request:
    kind: str
    pair: str
    args: tuple

    @property
    def label(self) -> str:
        return f"{self.kind}:{self.pair}"


def _context(left: dict, right: dict) -> PvContext:
    return PvContext(parse_group(left), parse_group(right))


# ----------------------------------------------------------------------
# text payloads, generated without the library

def _reduced_word(rng: Random, length: int) -> str:
    out: list[str] = []
    while len(out) < length:
        c = rng.choice("aAbB")
        if not out or out[-1] != c.swapcase():
            out.append(c)
    return "".join(out)


def _payload(rng: Random, spec: dict) -> str:
    """A canonical element literal; the identity too, except for free groups,
    whose identity is the empty word and cannot be written as a letter."""
    kind = spec["type"]
    if kind == "integers":
        return str(rng.randint(-4, 4))
    if kind == "lattice":
        return ",".join(str(rng.randint(-2, 2)) for _ in range(spec["d"]))
    if kind == "free":
        return _reduced_word(rng, rng.randint(1, 3))
    return str(rng.randrange(spec["n"]))


def _side_payloads(spec: dict) -> list[str]:
    """Small canonical non-identity payloads of one factor, in a fixed order."""
    kind = spec["type"]
    if kind == "integers":
        return [str(k) for k in NONZERO]
    if kind == "lattice":
        return [",".join(map(str, c))
                for c in itertools.product(range(-1, 2), repeat=spec["d"]) if any(c)]
    if kind == "free":
        return ["a", "A", "b", "B", "ab", "aB", "Ab", "AB", "ba", "bA", "Ba", "BA"]
    return [str(k) for k in range(1, spec["n"])]


def _point_pool(left: dict, right: dict) -> list[str]:
    return (["e"] + [f"g:{x}" for x in _side_payloads(left)]
            + [f"h:{y}" for y in _side_payloads(right)])


def _even_perm(rng: Random, pool: list[str]) -> str:
    """Cycle text of a random even permutation: a 3-cycle, two swaps or a 5-cycle."""
    shape = rng.choice(((3,), (2, 2), (5,)))
    pts = rng.sample(pool, sum(shape))
    cycles, i = [], 0
    for k in shape:
        cycles.append("(" + " ".join(pts[i:i + k]) + ")")
        i += k
    return "".join(cycles)


def _word(rng: Random, length: int, left: dict, right: dict, pool: list[str]) -> str:
    letters = []
    for _ in range(length):
        kind = rng.choice("GGHHP")
        if kind == "G":
            letters.append("G:" + _payload(rng, left))
        elif kind == "H":
            letters.append("H:" + _payload(rng, right))
        else:
            letters.append("PERM:" + _even_perm(rng, pool))
    return " ".join(letters)


def _parse_element(ctx: PvContext, text: str):
    """The element of a canonical ``g=.. h=.. a=..`` line."""
    g_part, h_part, a_part = text.split(" ", 2)
    if not (g_part.startswith("g=") and h_part.startswith("h=") and a_part.startswith("a=")):
        raise ValueError(f"not a canonical element: {text!r}")
    return ctx.element(g=g_part[2:], h=h_part[2:], a=ctx.union.parse_perm(a_part[2:]))


def _vertex(ctx: PvContext, text: str) -> cubes.CubeVertex:
    """The vertex of a JSON ledger ``{"removed": [...], "added": [...]}``."""
    data = json.loads(text)
    return cubes.CubeVertex(frozenset(ctx.union.parse_point(t) for t in data["removed"]),
                            frozenset(ctx.union.parse_point(t) for t in data["added"]))


def _vertex_record(ctx: PvContext, v: cubes.CubeVertex) -> str:
    fmt, order = ctx.union.format_point, ctx.union.sorted_points
    return json.dumps({"removed": [fmt(p) for p in order(v.removed)],
                       "added": [fmt(p) for p in order(v.added)],
                       "s": cubes.s_invariant(v)}, sort_keys=True)


# ----------------------------------------------------------------------

class Workload:
    """A seeded pool of requests, executed round by round."""

    name = ""
    round_size = 0
    trace_rounds = 1  # rounds in the fixed batch of a traced run
    check_every = 1  # the oracle checks every k-th pool entry

    def __init__(self, seed: int):
        self.seed = seed
        self.requests: list[Request] = []

    @property
    def settings(self) -> dict:
        return {"round_size": self.round_size, "pool": len(self.requests),
                "trace_rounds": self.trace_rounds, "check_every": self.check_every}

    def execute(self, req: Request) -> str:
        raise NotImplementedError

    def check(self, req: Request, out: str) -> str | None:
        """None when ``out`` is right for ``req``, else what is wrong."""
        raise NotImplementedError

    def lef_pairs(self, outs: list[str | None]) -> int:
        """Pairs drawn by the multiplicativity checks that gave these outputs."""
        return 0


class Words(Workload):
    """Text words in, canonical text out: the product law on every factor kind."""

    name = "words"
    PAIRS = {
        "ZxZ": (INTEGERS, INTEGERS),
        "F2xZ": (FREE2, INTEGERS),
        "Z2xZ": (LATTICE2, INTEGERS),
        "ZxZ/3": (INTEGERS, CYCLIC3),
    }
    MAX_LENGTH = 64
    POOL_ROUNDS = 4 * MAX_LENGTH
    round_size = len(PAIRS)
    trace_rounds = 16
    check_every = 7  # coprime to the round size, so every pair is checked

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = Random(f"words/{seed}")
        self.ctx = {name: _context(*specs) for name, specs in self.PAIRS.items()}
        pools = {name: _point_pool(*specs) for name, specs in self.PAIRS.items()}
        # every pair sees each length 1..MAX_LENGTH equally often, in a seeded order
        lengths = {name: [] for name in self.PAIRS}
        for name in self.PAIRS:
            for _ in range(self.POOL_ROUNDS // self.MAX_LENGTH):
                block = list(range(1, self.MAX_LENGTH + 1))
                rng.shuffle(block)
                lengths[name] += block
        for r in range(self.POOL_ROUNDS):
            for name, specs in self.PAIRS.items():
                text = _word(rng, lengths[name][r], *specs, pools[name])
                self.requests.append(Request("eval", name, (text,)))

    def execute(self, req):
        ctx = self.ctx[req.pair]
        return ctx.format_element(ctx.eval_word(req.args[0]))

    def check(self, req, out):
        ctx = self.ctx[req.pair]
        s = _parse_element(ctx, out)
        letters = []
        probes = {BASE} | set(s.a.support())
        for kind, value in ctx.parse_word(req.args[0]):
            if kind == "G":
                letter = ctx.from_g(value)
                probes |= {ctx.union.g_point(letter.g), ctx.union.g_point(ctx.G.inv(letter.g))}
            elif kind == "H":
                letter = ctx.from_h(value)
                y = ctx.H.parse(value)
                probes |= {ctx.union.h_point(y), ctx.union.h_point(ctx.H.inv(y))}
            else:
                letter = ctx.from_perm(value)
            probes |= set(letter.a.support())
            letters.append(letter)
        for p in probes:
            q = p
            for letter in reversed(letters):
                q = ctx.act(letter, q)
            if ctx.act(s, p) != q:
                return f"{out} moves {ctx.union.format_point(p)} wrongly"
        return None


class LefWindow(Workload):
    """One ``lef check``-equivalent call per request, rotating over three factor pairs."""

    name = "lef-window"
    N = 1
    SAMPLE = 100
    POOL_ROUNDS = 4
    # name -> (left, right, modulus)
    PAIRS = {
        "ZxZ": (INTEGERS, INTEGERS, 17),
        "Z2xZ": (LATTICE2, INTEGERS, 9),
        "ZxZ/3": (INTEGERS, CYCLIC3, None),
    }
    round_size = len(PAIRS)

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = Random(f"lef-window/{seed}")
        self.ctx = {name: _context(left, right) for name, (left, right, _) in self.PAIRS.items()}
        for _ in range(self.POOL_ROUNDS):
            for name in self.PAIRS:
                self.requests.append(Request("lef", name, (rng.randrange(2**32),)))

    def execute(self, req):
        check_seed = req.args[0]
        approx = lef.Approximation(self.ctx[req.pair], self.N, modulus=self.PAIRS[req.pair][2])
        reports = [
            approx.check_multiplicativity(mode="sample", sample=self.SAMPLE, seed=check_seed),
            approx.check_window_closure(mode="sample", sample=self.SAMPLE, seed=check_seed),
            approx.check_injectivity(samples=self.SAMPLE, seed=check_seed),
            approx.check_pushforward(mode="sample", sample=self.SAMPLE, seed=check_seed),
            approx.check_equivariance(mode="exhaustive"),
        ]
        return "\n".join(json.dumps({"name": r.name, "pairs_checked": r.pairs_checked,
                                     "failures": r.failures}, sort_keys=True)
                         for r in reports)

    def lef_pairs(self, outs):
        reports = (json.loads(line) for out in outs if out for line in out.splitlines())
        return sum(r["pairs_checked"] for r in reports if r["name"] == "multiplicativity")

    def _equivariance_cases(self, pair: str) -> int:
        """|C_4n| * (|B_G(2n)| + |B_H(2n)|), from closed-form ball sizes.

        No point of C_4n is in a kernel shadow, because every quotient
        used here is injective on the radius-4n ball.
        """
        def ball(spec: dict, r: int) -> int:
            if spec["type"] == "integers":
                return 2 * r + 1
            if spec["type"] == "lattice":
                return 2 * r * r + 2 * r + 1
            return spec["n"]

        left, right, _ = self.PAIRS[pair]
        window = ball(left, 4 * self.N) + ball(right, 4 * self.N) - 1
        return window * (ball(left, 2 * self.N) + ball(right, 2 * self.N))

    def check(self, req, out):
        reports = {r["name"]: r for r in map(json.loads, out.splitlines())}
        expected = {"multiplicativity": self.SAMPLE, "window-closure": self.SAMPLE,
                    "injectivity": self.SAMPLE,
                    "equivariance": self._equivariance_cases(req.pair)}
        if set(reports) != set(expected) | {"pushforward"}:
            return f"unexpected reports {sorted(reports)}"
        for name, report in reports.items():
            if report["failures"]:
                return f"{name} failed: {report['failures'][:3]}"
            if name in expected and report["pairs_checked"] != expected[name]:
                return f"{name} checked {report['pairs_checked']}, expected {expected[name]}"
        if not 0 < reports["pushforward"]["pairs_checked"] <= self.SAMPLE:
            return f"pushforward checked {reports['pushforward']['pairs_checked']}"
        return None


def _perm_table(gens: list[tuple[int, ...]]) -> list[list[int]]:
    """Multiplication table of the permutation group the generators span."""
    identity = tuple(range(len(gens[0])))
    elements = [identity]
    seen = {identity}
    for p in elements:  # grows while iterating: a breadth-first closure
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in seen:
                seen.add(q)
                elements.append(q)
    index = {p: i for i, p in enumerate(elements)}
    return [[index[tuple(p[i] for i in q)] for q in elements] for p in elements]


def _cycle(n: int, *cycles: tuple[int, ...]) -> tuple[int, ...]:
    images = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            images[a] = b
    return tuple(images)


# Non-cyclic finite factors by order, as permutation generators.
TABLE_GROUPS = {
    4: {"V4": [_cycle(4, (0, 1), (2, 3)), _cycle(4, (0, 2), (1, 3))]},
    6: {"S3": [_cycle(3, (0, 1, 2)), _cycle(3, (0, 1))]},
    8: {"D4": [_cycle(4, (0, 1, 2, 3)), _cycle(4, (0, 2))],
        "Z2xZ4": [_cycle(6, (0, 1)), _cycle(6, (2, 3, 4, 5))],
        "Z2^3": [_cycle(6, (0, 1)), _cycle(6, (2, 3)), _cycle(6, (4, 5))]},
    9: {"Z3xZ3": [_cycle(6, (0, 1, 2)), _cycle(6, (3, 4, 5))]},
    10: {"D5": [_cycle(5, (0, 1, 2, 3, 4)), _cycle(5, (1, 4), (2, 3))]},
}


# Median time of one classify request at each point count n = |G| + |H| - 1,
# in ms, over seeded requests drawn as below (2-CPU x86 host, Python 3.11).
CLASSIFY_MS = {8: 3.8, 9: 4.6, 10: 12.5, 11: 22, 12: 38, 13: 37, 14: 75, 15: 155,
               16: 190, 17: 300, 18: 480}
# Requests of each point count in a classify round: about inversely
# proportional to their time, so every size of the range takes about the
# same share of the round's Schreier-Sims time.
CLASSIFY_COUNTS = {n: round(CLASSIFY_MS[18] / ms) for n, ms in CLASSIFY_MS.items()}


class Classify(Workload):
    """``classify --verify`` over seeded pairs of finite factors, 8 to 18 points."""

    name = "classify"
    COUNTS = CLASSIFY_COUNTS
    ORDERS = {n: ((n + 1) // 2, n + 1 - (n + 1) // 2) for n in COUNTS}
    POOL_ROUNDS = 4
    round_size = sum(COUNTS.values())

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = Random(f"classify/{seed}")
        for _ in range(self.POOL_ROUNDS):
            sizes = [n for n, count in self.COUNTS.items() for _ in range(count)]
            # interleaved, so that a slow spell of the host hits every size alike
            rng.shuffle(sizes)
            for n in sizes:
                a, b = self.ORDERS[n]
                left, right = self._spec(rng, a), self._spec(rng, b)
                if rng.random() < 0.5:
                    left, right = right, left
                self.requests.append(Request("classify", f"{a}+{b}", (left, right)))

    @staticmethod
    def _spec(rng: Random, order: int) -> str:
        """A cyclic spec or a relabelled table of some group of this order."""
        choices = ["cyclic"] + sorted(TABLE_GROUPS.get(order, {}))
        choice = rng.choice(choices)
        if choice == "cyclic":
            if rng.random() < 0.5:
                return json.dumps({"type": "cyclic", "n": order})
            table = _perm_table([_cycle(order, tuple(range(order)))])
        else:
            table = _perm_table(TABLE_GROUPS[order][choice])
        relabel = list(range(order))
        rng.shuffle(relabel)
        out = [[0] * order for _ in range(order)]
        for i in range(order):
            for j in range(order):
                out[relabel[i]][relabel[j]] = relabel[table[i][j]]
        return json.dumps({"type": "table", "table": out})

    def execute(self, req):
        G = parse_group(json.loads(req.args[0]))
        H = parse_group(json.loads(req.args[1]))
        kind = finite.classify(G, H)
        n = G.order() + H.order() - 1
        order = finite.glued_order(G, H)
        return f"{kind}({n}) order={order}"

    def check(self, req, out):
        specs = [json.loads(text) for text in req.args]
        n = sum(len(spec["table"]) if "table" in spec else spec["n"] for spec in specs) - 1
        full = math.factorial(n)
        if out not in (f"Sym({n}) order={full}", f"Alt({n}) order={full // 2}"):
            return f"{out} is neither Sym({n}) nor Alt({n})"
        return None


class Actions(Workload):
    """Vertex actions, transporters, Folner ratios and free-semigroup checks.

    The workload exercises ``core`` through ``invert`` and ``act``, so
    products are kept short: a vertex is acted on by a word of 1 to 3
    letters, a transporter multiplies once, a Folner ratio only acts,
    and a free-semigroup check runs at length 2, the shortest at which
    it compares two-letter words (gh against hg).
    """

    name = "actions"
    PAIRS = {"ZxZ": (INTEGERS, INTEGERS), "F2xZ": (FREE2, INTEGERS)}
    FOLNER_N = tuple(range(5, 101, 5))
    # every Folner n three times, so that the pool's percentiles vary little
    # from seed to seed (a run goes over the whole pool many times)
    POOL_ROUNDS = 3 * len(FOLNER_N)
    PONG_LENGTH = 2
    # Each of the four calls once on each pair; Folner ratios run on Z x Z
    # only, because the library has no Folner scheme for a free first factor.
    ROUND = (("act", "ZxZ"), ("act", "F2xZ"), ("transport", "ZxZ"), ("transport", "F2xZ"),
             ("folner", "ZxZ"), ("pong", "ZxZ"), ("pong", "F2xZ"))
    round_size = len(ROUND)
    trace_rounds = POOL_ROUNDS

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = Random(f"actions/{seed}")
        self.ctx = {name: _context(*specs) for name, specs in self.PAIRS.items()}
        folner_n = list(self.FOLNER_N) * (self.POOL_ROUNDS // len(self.FOLNER_N))
        rng.shuffle(folner_n)
        for _ in range(self.POOL_ROUNDS):
            for kind, pair in self.ROUND:
                if kind == "act":
                    args = self._act_args(rng, pair)
                elif kind == "transport":
                    args = self._transport_args(rng, pair)
                elif kind == "folner":
                    test = rng.choice(["G:1", "G:-1", f"H:{rng.choice(NONZERO)}"])
                    args = (folner_n.pop(), test)
                else:
                    g = str(rng.choice(NONZERO)) if pair == "ZxZ" \
                        else _reduced_word(rng, rng.randint(1, 3))
                    args = (g, str(rng.choice(NONZERO)), self.PONG_LENGTH)
                self.requests.append(Request(kind, pair, args))

    def _ledger(self, rng: Random, pair: str, removed: int, added: int) -> str:
        left, right = self.PAIRS[pair]
        g_pool = ["e"] + [f"g:{x}" for x in _side_payloads(left)]
        h_pool = [f"h:{y}" for y in _side_payloads(right)]
        return json.dumps({"removed": rng.sample(g_pool, removed),
                           "added": rng.sample(h_pool, added)})

    def _act_args(self, rng: Random, pair: str) -> tuple[str, str]:
        left, right = self.PAIRS[pair]
        word = _word(rng, rng.randint(1, 3), left, right, _point_pool(left, right))
        return (word, self._ledger(rng, pair, rng.randint(0, 3), rng.randint(0, 3)))

    def _transport_args(self, rng: Random, pair: str) -> tuple[str, str]:
        """Two ledgers in the same fiber, s = |added| - |removed|."""
        s = rng.randint(-3, 3)
        ledgers = []
        for _ in range(2):
            removed = rng.randint(max(0, -s), min(3, 3 - s))
            ledgers.append(self._ledger(rng, pair, removed, removed + s))
        return tuple(ledgers)

    def execute(self, req):
        ctx = self.ctx[req.pair]
        if req.kind == "act":
            s = ctx.eval_word(req.args[0])
            return _vertex_record(ctx, cubes.act_vertex(ctx, s, _vertex(ctx, req.args[1])))
        if req.kind == "transport":
            v, w = (_vertex(ctx, text) for text in req.args)
            return ctx.format_element(cubes.transporter(ctx, v, w))
        if req.kind == "folner":
            n, test = req.args
            ratio = dynamics.folner_ratio(ctx, dynamics.folner_set(ctx, n), ctx.eval_word(test))
            return f"{ratio.numerator}/{ratio.denominator}"
        g, h, length = req.args
        report = dynamics.free_semigroup_check(ctx, g, h, length)
        if report.ok:
            return f"ok {report.words_checked} words pairwise distinct"
        return f"COLLISION {report.first_collision[0]} = {report.first_collision[1]}"

    @staticmethod
    def _maps_onto(ctx, s, v, w, probes) -> bool:
        """p in v exactly when s(p) in w, and every ledger point of w is an image."""
        images = {ctx.act(s, p) for p in probes}
        if not (w.removed | w.added) <= images:
            return False
        return all(cubes.contains(v, p) == cubes.contains(w, ctx.act(s, p)) for p in probes)

    def check(self, req, out):
        ctx = self.ctx[req.pair]
        if req.kind == "act":
            s = ctx.eval_word(req.args[0])
            v = _vertex(ctx, req.args[1])
            w = _vertex(ctx, out)
            probes = {BASE} | v.removed | v.added | s.a.support()
            if s.h != ctx.H.identity:
                probes.add(ctx.union.h_point(ctx.H.inv(s.h)))
            if json.loads(out)["s"] != cubes.s_invariant(v) or not self._maps_onto(ctx, s, v, w, probes):
                return f"act_vertex gave {out}"
        elif req.kind == "transport":
            t = _parse_element(ctx, out)
            v, w = (_vertex(ctx, text) for text in req.args)
            probes = {BASE} | v.removed | v.added | w.removed | w.added | t.a.support()
            if not ctx.in_monolith(t) or not self._maps_onto(ctx, t, v, w, probes):
                return f"transporter gave {out}"
        elif req.kind == "folner":
            n, test = req.args
            expected = f"2/{2 * n + 1}" if test.startswith("G:") else "0/1"
            if out != expected:
                return f"Folner ratio {out}, expected {expected}"
        elif out != f"ok {2 ** (req.args[2] + 1) - 2} words pairwise distinct":
            return f"free semigroup check gave {out}"
        return None


WORKLOADS = {cls.name: cls for cls in (Words, LefWindow, Classify, Actions)}
