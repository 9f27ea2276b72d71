"""Deterministic property-suite runner backing the ``suite`` subcommand.

Each suite re-runs the module's invariants at desk scale with a seeded
generator; identical (seed, config) pairs produce byte-identical
reports.  Failures carry a reproduction command line; checks that do
not apply to the configured factors are reported as skipped.
"""

from __future__ import annotations

import itertools
import json
import os
import shlex
import zlib
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random
from typing import Callable, Optional

from . import cubes, dynamics, lef
from .core import PvContext
from .errors import FiberMismatchError, GluedError, GroupSpecError, RegimeError
from .finite import classify, translation_sign, verify_classification
from .groups import (
    CyclicGroup,
    TableGroup,
    cyclic_table,
    direct_product_table,
    format_value,
    parse_group,
    symmetric_group_table,
)
from .pointed import PointedUnion
from .sampling import element as sample_element
from .sampling import points as sample_points
from .sampling import vertex as sample_vertex

SUITE_NAMES = ("core", "finite", "cube", "lef", "dynamics")
DEFAULT_SPEC = {"type": "integers"}


@dataclass
class SuiteConfig:
    seed: int = 42
    budget: Optional[int] = None
    left: dict = field(default_factory=lambda: dict(DEFAULT_SPEC))
    right: dict = field(default_factory=lambda: dict(DEFAULT_SPEC))
    fmt: str = "text"

    def limit(self) -> Optional[int]:
        """The case budget: ``budget``, else ``PV_BUDGET``, else None (no cap)."""
        if self.budget is not None:
            source, value = "--budget", str(self.budget)
        else:
            source, value = "PV_BUDGET", os.environ.get("PV_BUDGET")
            if value is None:
                return None
        if not value.strip().isdecimal() or int(value) < 1:
            raise GluedError(f"{source} must be an integer of at least 1, got {value}")
        return int(value)

    def cap(self, nominal: int) -> int:
        cap = self.limit()
        return nominal if cap is None else min(nominal, cap)


@dataclass
class CheckResult:
    suite: str
    name: str
    ok: Optional[bool]  # None: the check does not apply to the configured factors
    detail: str

    def repro(self, cfg: SuiteConfig) -> str:
        """A command line that re-runs just this check under ``cfg``: the
        factors when they are not the default, and the case budget when
        one is in force (from ``--budget`` or ``PV_BUDGET``)."""
        argv = ["gluedprod", "suite", self.suite, "--seed", str(cfg.seed), "--only", self.name]
        for flag, spec in (("--left", cfg.left), ("--right", cfg.right)):
            if spec != DEFAULT_SPEC:
                argv += [flag, json.dumps(spec, separators=(",", ":"))]
        budget = cfg.limit()
        if budget is not None:
            argv += ["--budget", str(budget)]
        return shlex.join(argv)


_SUITES: dict[str, dict[str, Callable[[SuiteConfig], CheckResult]]] = {}


def _check(suite: str, name: str):
    """Declare ``fn(cfg, rng) -> (ok, detail)`` as the check ``suite.name``.

    The rng is seeded from the seed and the declared name.  A check whose
    factors it does not apply to raises GroupSpecError or RegimeError and
    is reported as skipped.
    """
    def register(fn: Callable[[SuiteConfig, Random], tuple[bool, str]]):
        def run(cfg: SuiteConfig) -> CheckResult:
            rng = Random(cfg.seed * 1000003 + zlib.crc32(f"{suite}.{name}".encode()))
            try:
                ok, detail = fn(cfg, rng)
            except (GroupSpecError, RegimeError) as exc:
                return CheckResult(suite, name, None, str(exc))
            except GluedError as exc:
                return CheckResult(suite, name, False, f"error: {exc}")
            return CheckResult(suite, name, ok, detail)

        _SUITES.setdefault(suite, {})[name] = run
        return fn
    return register


def _ctx(cfg: SuiteConfig) -> PvContext:
    return PvContext(parse_group(cfg.left), parse_group(cfg.right))


def _sampled(suite: str, name: str, nominal: int, unit: str):
    """Declare ``case(ctx, rng) -> failure text or None`` as the check
    ``suite.name``: ``cfg.cap(nominal)`` seeded cases on the configured
    factors, stopping at the first failure, detailed "{count} {unit}"."""
    def register(case: Callable[[PvContext, Random], Optional[str]]):
        @_check(suite, name)
        def run(cfg: SuiteConfig, rng: Random):
            ctx = _ctx(cfg)
            count = cfg.cap(nominal)
            for _ in range(count):
                failure = case(ctx, rng)
                if failure is not None:
                    return False, failure
            return True, f"{count} {unit}"
        return case
    return register


def finite_catalog() -> dict[str, CyclicGroup | TableGroup]:
    """The finite groups used by the classification checks."""
    return {
        "Z2": CyclicGroup(2),
        "Z3": CyclicGroup(3),
        "Z4": CyclicGroup(4),
        "V4": TableGroup(direct_product_table(cyclic_table(2), cyclic_table(2))),
        "Z5": CyclicGroup(5),
        "S3": TableGroup(symmetric_group_table(3)),
    }


# ----------------------------------------------------------------------
# core suite

@_sampled("core", "action-homomorphism", 10**4, "samples")
def _core_action_homomorphism(ctx: PvContext, rng: Random):
    s1 = sample_element(ctx, rng)
    s2 = sample_element(ctx, rng)
    p = sample_points(ctx, rng, 1)[0]
    holds = ctx.act(ctx.multiply(s1, s2), p) == ctx.act(s1, ctx.act(s2, p))
    return None if holds else f"mismatch at {ctx.format_element(s1)}"


@_sampled("core", "residual-parity", 2000, "products even")
def _core_residual_parity(ctx: PvContext, rng: Random):
    if ctx.mixed_symmetric:
        raise RegimeError("odd residuals are elements: the finite factor has a "
                          "nontrivial cyclic 2-Sylow")
    prod = ctx.multiply(sample_element(ctx, rng), sample_element(ctx, rng))
    return None if prod.a.is_even() else ctx.format_element(prod)


@_check("core", "commutator-identity")
def _core_commutator(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    count = cfg.cap(1000)
    pool_g = [x for x in ctx.G.ball(6) if x != ctx.G.identity]
    pool_h = [y for y in ctx.H.ball(6) if y != ctx.H.identity]
    if not (pool_g and pool_h):
        raise GroupSpecError("a factor has no non-identity element")
    for _ in range(count):
        g = rng.choice(pool_g)
        h = rng.choice(pool_h)
        c = ctx.commutator(g, h)
        word = ctx.normalize([("G", g), ("H", h),
                              ("G", ctx.G.inv(g)), ("H", ctx.H.inv(h))])
        if word != c:
            return False, f"g={format_value(g)} h={format_value(h)}"
        if ctx.multiply(ctx.multiply(c, c), c) != ctx.identity:
            return False, f"cube not trivial at g={format_value(g)} h={format_value(h)}"
    return True, f"{count} pairs"


@_sampled("core", "inverse-law", 1000, "elements")
def _core_inverse(ctx: PvContext, rng: Random):
    s = sample_element(ctx, rng)
    return None if ctx.multiply(s, ctx.invert(s)) == ctx.identity else ctx.format_element(s)


@_sampled("core", "projection-monolith", 10**4, "pairs")
def _core_projection(ctx: PvContext, rng: Random):
    s1 = sample_element(ctx, rng)
    s2 = sample_element(ctx, rng)
    prod = ctx.multiply(s1, s2)
    if ctx.project(prod) != (ctx.G.mul(s1.g, s2.g), ctx.H.mul(s1.h, s2.h)):
        return "projection not multiplicative"
    trivial = ctx.project(prod) == (ctx.G.identity, ctx.H.identity)
    return None if ctx.in_monolith(prod) == trivial else "kernel characterisation failed"


@_check("core", "pong-words")
def _core_pong(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    g = cubes.first_infinite_order(ctx.G)
    h = cubes.first_infinite_order(ctx.H)
    report = dynamics.free_semigroup_check(ctx, g, h, 8)
    ok = report.ok and report.words_checked == 510
    return ok, f"{report.distinct}/{report.words_checked} distinct"


# ----------------------------------------------------------------------
# finite suite

@_check("finite", "catalog-classification")
def _finite_classification(cfg: SuiteConfig, rng: Random):
    done = 0
    for a, b in itertools.combinations_with_replacement(finite_catalog().values(), 2):
        if a.order() + b.order() - 1 > 10:
            continue
        if not verify_classification(a, b):
            return False, f"{a!r} vs {b!r}"
        done += 1
    return True, f"{done} pairs"


@_check("finite", "translation-signs")
def _finite_translation_signs(cfg: SuiteConfig, rng: Random):
    for name, G in finite_catalog().items():
        union = PointedUnion(G, CyclicGroup(2))
        for x in G.elements():
            direct = 1 if union.translation("g", x).is_even() else -1
            if translation_sign(G, x) != direct:
                return False, f"{name} element {format_value(x)}"
    return True, "catalog agreed"


@_check("finite", "classify-symmetric")
def _finite_symmetry(cfg: SuiteConfig, rng: Random):
    for a, b in itertools.combinations(finite_catalog().values(), 2):
        if classify(a, b) != classify(b, a):
            return False, f"{a!r} vs {b!r}"
    return True, "all pairs"


# ----------------------------------------------------------------------
# cube suite

@_sampled("cube", "s-invariance", 1000, "samples")
def _cube_invariance(ctx: PvContext, rng: Random):
    cubes._require_both_infinite(ctx)
    s = sample_element(ctx, rng)
    v = sample_vertex(ctx, rng)
    w = sample_vertex(ctx, rng)
    sv = cubes.act_vertex(ctx, s, v)
    sw = cubes.act_vertex(ctx, s, w)
    if cubes.s_invariant(sv) != cubes.s_invariant(v):
        return "fiber moved"
    return None if cubes.distance(sv, sw) == cubes.distance(v, w) else "distance changed"


@_sampled("cube", "action-compatibility", 1000, "samples")
def _cube_action(ctx: PvContext, rng: Random):
    cubes._require_both_infinite(ctx)
    s1 = sample_element(ctx, rng)
    s2 = sample_element(ctx, rng)
    v = sample_vertex(ctx, rng)
    lhs = cubes.act_vertex(ctx, ctx.multiply(s1, s2), v)
    rhs = cubes.act_vertex(ctx, s1, cubes.act_vertex(ctx, s2, v))
    return None if lhs == rhs else "not an action"


@_check("cube", "adjacent-fixed-pair")
def _cube_fixed_pair(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    vertices = cubes.vertex_ball(ctx, 3, 3)
    pairs = [
        (x, y)
        for x in vertices if cubes.fixed_by_G(x)
        for y in vertices if cubes.fixed_by_H(y) and cubes.adjacent(x, y)
    ]
    ok = pairs == [(cubes.whole_g_side(), cubes.g_side_without_base())]
    return ok, f"{len(vertices)} vertices scanned"


@_check("cube", "growth-witness")
def _cube_growth(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    rows = cubes.growth_witness(ctx, 40)
    dists = [d for _, d in rows]
    ok = all(d >= len(w) / 2 for w, d in rows) and \
        all(b > a for a, b in zip(dists, dists[1:]))
    return ok, "distances " + ",".join(str(d) for d in dists[:5]) + ",..."


@_check("cube", "transporter")
def _cube_transporter(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    cubes._require_both_infinite(ctx)
    same = cross = 0
    target = cfg.cap(100)
    while same < target or cross < target:
        v = sample_vertex(ctx, rng)
        w = sample_vertex(ctx, rng)
        if cubes.s_invariant(v) == cubes.s_invariant(w):
            if same >= target:
                continue
            t = cubes.transporter(ctx, v, w)
            if cubes.act_vertex(ctx, t, v) != w or not ctx.in_monolith(t):
                return False, "bad transporter"
            same += 1
        else:
            if cross >= target:
                continue
            try:
                cubes.transporter(ctx, v, w)
            except FiberMismatchError:
                cross += 1
            else:
                return False, "cross-fiber transport accepted"
    return True, f"{same} transports, {cross} rejections"


# ----------------------------------------------------------------------
# lef suite: the harness reports of the window-one approximation, then
# those of the infinite-by-finite products with Z/2 and Z/3

def _lef_check(name: str, factors: Callable[[SuiteConfig], PvContext],
               report: Callable[[lef.Approximation, SuiteConfig], lef.CheckReport]):
    @_check("lef", name)
    def check(cfg: SuiteConfig, rng: Random):
        r = report(lef.Approximation(factors(cfg), 1), cfg)
        return r.ok, f"{r.pairs_checked} checks"


def _mixed(order: int) -> Callable[[SuiteConfig], PvContext]:
    return lambda cfg: PvContext(parse_group(cfg.left), CyclicGroup(order))


for _name, _report in (
    ("point-bijection", lambda a, cfg: a.check_point_bijection()),
    ("equivariance", lambda a, cfg: a.check_equivariance(mode="exhaustive")),
    ("pushforward", lambda a, cfg: a.check_pushforward(
        mode="sample", sample=min(cfg.cap(10**4), 2000), seed=cfg.seed)),
    ("multiplicativity", lambda a, cfg: a.check_multiplicativity(
        mode="sample", sample=cfg.cap(10**4), seed=cfg.seed)),
    ("window-closure", lambda a, cfg: a.check_window_closure(
        mode="sample", sample=cfg.cap(10**4), seed=cfg.seed)),
    ("injectivity", lambda a, cfg: a.check_injectivity(samples=cfg.cap(10**4), seed=cfg.seed)),
):
    _lef_check(_name, _ctx, _report)


def _mixed_multiplicativity(a: lef.Approximation, cfg: SuiteConfig) -> lef.CheckReport:
    """Every pair of F_n when they fit the pair budget, capped by the case
    budget, else seeded draws."""
    if lef.window(a.ctx, a.n).size ** 2 <= cfg.cap(lef.PAIR_BUDGET):
        return a.check_multiplicativity(mode="exhaustive", seed=cfg.seed)
    return a.check_multiplicativity(mode="sample", sample=cfg.cap(10**4), seed=cfg.seed)


for _order in (2, 3):
    _lef_check(f"mixed-z{_order}-multiplicativity", _mixed(_order), _mixed_multiplicativity)
    _lef_check(f"mixed-z{_order}-injectivity", _mixed(_order),
               lambda a, cfg: a.check_injectivity(samples=cfg.cap(10**4), seed=cfg.seed))


# ----------------------------------------------------------------------
# dynamics suite

@_check("dynamics", "folner-ratios")
def _dynamics_folner(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    # a unit translation displaces two boundary slabs of the interval/box
    gen_g = cubes.first_infinite_order(ctx.G, span=1)
    if ctx.H.order() == 1:
        raise GroupSpecError("the H factor has no non-identity element")
    gen_h = next(y for y in ctx.H.ball(1) if y != ctx.H.identity)
    for n in range(1, 101):
        F = dynamics.folner_set(ctx, n)
        if dynamics.folner_ratio(ctx, F, ctx.from_g(gen_g)) != Fraction(2, 2 * n + 1):
            return False, f"n={n}"
        if dynamics.folner_ratio(ctx, F, ctx.from_h(gen_h)) != 0:
            return False, f"n={n} (H side)"
    return True, "n=1..100 exact"


@_check("dynamics", "pong-catalog")
def _dynamics_pong(cfg: SuiteConfig, rng: Random):
    ctx = _ctx(cfg)
    if ctx.G.kind == ctx.H.kind == "integers":
        pairs = ((1, 1), (2, 3), (-1, 5))
    else:
        gs = [x for x in ctx.G.ball(3)
              if ctx.G.element_order(x) is None][:3]
        hs = [y for y in ctx.H.ball(3)
              if ctx.H.element_order(y) is None][:3]
        if len(gs) < 3 or len(hs) < 3:
            raise GroupSpecError("not enough infinite-order elements to sample")
        pairs = tuple(zip(gs, hs))
    for g, h in pairs:
        report = dynamics.free_semigroup_check(ctx, g, h, 8)
        if not report.ok:
            return False, f"g={format_value(g)} h={format_value(h)}"
    return True, f"{len(pairs)} generator pairs"


@_check("selftest", "always-fails")
def _selftest_fail(cfg: SuiteConfig, rng: Random):
    return False, "intentional failure exercising the report path"


def run_suite(name: str, cfg: SuiteConfig,
              only: Optional[str] = None) -> tuple[int, list[str]]:
    """Run one suite (or ``all``); returns (exit code, report lines).

    With ``only``, just the checks declared with that name run.
    """
    if name == "all":
        names = list(SUITE_NAMES)
    elif name in _SUITES:
        names = [name]
    else:
        raise GluedError(f"unknown suite {name!r}; choose from "
                         f"{', '.join(list(SUITE_NAMES) + ['all'])}")
    if only is not None and not any(only in _SUITES[suite] for suite in names):
        raise GluedError(f"no check {only!r} in suite {name!r}")
    cfg.limit()  # a bad budget is one error, not a failure of every check
    results = [run(cfg) for suite in names
               for check, run in _SUITES[suite].items()
               if only is None or check == only]
    lines = []
    for r in results:
        check = f"{r.suite}.{r.name}"
        if r.ok is None:
            record, text = {"skipped": True}, f"skip {check}  {r.detail}"
        elif r.ok:
            record, text = {"ok": True}, f"ok   {check}  {r.detail}"
        else:
            record = {"ok": False, "repro": r.repro(cfg)}
            text = f"FAIL {check}  {r.detail}  | repro: {r.repro(cfg)}"
        lines.append(json.dumps({"check": check, "detail": r.detail, **record}, sort_keys=True)
                     if cfg.fmt == "jsonl" else text)
    return (1 if any(r.ok is False for r in results) else 0), lines
