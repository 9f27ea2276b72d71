"""Every oracle refuses a planted fault.

Each row plants one single-site fault: the named function is recompiled
from its own source with one text replaced, and monkeypatched in place
of the original wherever the package binds it.  The row's oracle runs on
a small input and must pass on the real code and raise under the fault.
A row whose text is no longer in its function fails, so the table keeps
up with the code it mutates.
"""

from __future__ import annotations

import __future__
import contextlib
import inspect
import io
import math
import re
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from conftest import closure_picks, mulclose
from gluedprod import (
    BudgetError,
    CyclicGroup,
    FinPerm,
    GluedError,
    GroupSpecError,
    IntegersGroup,
    LatticeGroup,
    MembershipError,
    PointedUnion,
    PvContext,
    PvElement,
    TableGroup,
    cli,
    core,
    cubes,
    dynamics,
    finite,
    groups,
    lef,
    pointed,
    schreier_sims_order,
    symmetric_group_table,
    transposition,
)
from gluedprod.finite import classify, full_order, glued_order, realize_finite
from gluedprod.groups import compose_dense, inverse_dense, parity_dense
from gluedprod.lef import Approximation, FiniteQuotient

# ----------------------------------------------------------------------
# oracles: each returns on the real code and raises on a fault


def agree(got, want, what: str) -> None:
    if got != want:
        raise AssertionError(f"{what}: {got!r} != {want!r}")


def refused(call: Callable[[], object], error: type, match: str) -> None:
    """A check must refuse a bad input with ``error``; accepting it is the fault."""
    try:
        call()
    except error as exc:
        if re.search(match, str(exc)):
            return
        raise
    raise AssertionError("a bad input was accepted")


def schreier_sims_against_closure() -> None:
    """Two glued products, whose full order the 3-cycle certificate proves,
    and three groups that are not full, so the completion runs: the
    dihedral group of order 12 on 6 points, whose elements with a
    3-cycle have two; the intransitive cyclic group of (0 1)(2 5 4 3),
    for which the completion builds a second level; and M11 on 11
    points, whose elements with a 3-cycle have a second cycle of length
    divisible by 3 (types 3^3 and 6.3.2), so a 3-cycle read off one of
    them lies outside the group."""
    for left, right in ((CyclicGroup(3), CyclicGroup(3)),
                        (TableGroup(symmetric_group_table(3)), CyclicGroup(2))):
        gens = realize_finite(left, right)
        agree(schreier_sims_order(gens), len(mulclose(gens)), f"order of {left} x {right}")
    for name, gens in (("D12", [(1, 2, 3, 4, 5, 0), (0, 5, 4, 3, 2, 1)]),
                       ("C4", [(1, 0, 5, 2, 3, 4)])):
        agree(schreier_sims_order(gens), len(mulclose(gens)), f"order of {name}")
    m11 = [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 0), (0, 1, 6, 9, 5, 3, 10, 2, 8, 4, 7)]
    agree(schreier_sims_order(m11), 7920, "order of M11")


def alt_sym_against_closure() -> None:
    """Alt(5) from C3 glued C3 and its commutator, and three groups with a
    c that certifies nothing: D8 with c = (0 1)(2 3), not a 3-cycle;
    C3 wr C2 on 6 points with c = (0 1 2), whose support is a block; and
    the intransitive <(0 1 2), (3 4)>."""
    left, right = CyclicGroup(3), CyclicGroup(3)
    tg, th = realize_finite(left, right, (left.generators(), right.generators()))
    commutator = compose_dense(inverse_dense(compose_dense(th, tg)), compose_dense(tg, th))
    for name, gens, c in (("Alt(5)", [tg, th], commutator),
                          ("D8", [(1, 2, 3, 0), (2, 1, 0, 3)], (1, 0, 3, 2)),
                          ("C3 wr C2", [(1, 2, 0, 3, 4, 5), (3, 4, 5, 0, 1, 2)],
                           (1, 2, 0, 3, 4, 5)),
                          ("<(0 1 2), (3 4)>", [(1, 2, 0, 3, 4), (0, 1, 2, 4, 3)],
                           (1, 2, 0, 3, 4))):
        order = len(mulclose(gens))
        full = 2 * order >= math.factorial(len(c))  # Alt and Sym: index at most 2
        agree(groups.alt_sym_order(gens, c), order if full else None, f"certificate of {name}")


def point_cap_refusal() -> None:
    refused(lambda: glued_order(CyclicGroup(33), CyclicGroup(33)),
            BudgetError, "^65 points exceeds the cap of 64$")


def absorbed_cap_refusal() -> None:
    ctx = PvContext(CyclicGroup(pointed.ABSORBED_CAP + 1), IntegersGroup())
    refused(lambda: ctx.eval_word("G:1"),
            BudgetError, r"^absorbed factor cyclic\(129\): 129 elements exceeds the cap of 128$")


def check_mode_product() -> None:
    PvContext(IntegersGroup(), IntegersGroup(), check=True).eval_word("H:1 G:1 H:2 G:-1")


def check_mode_refuses_a_wrong_product() -> None:
    ctx = PvContext(IntegersGroup(), IntegersGroup(), check=True)
    s1 = ctx.from_perm(ctx.union.parse_perm("(g:1 g:2 g:3)"))
    wrong = PvElement(10, 0, FinPerm.identity())
    refused(lambda: ctx._verify_product(s1, ctx.from_g(10), wrong),
            GluedError, "^product law mismatch")


def quotients_must_be_injective() -> None:
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    mod5 = FiniteQuotient(ctx.G, CyclicGroup(5), lambda x: x % 5)
    refused(lambda: Approximation(ctx, 1, quotient_g=mod5),
            GroupSpecError, "^quotient is not injective on the radius-4 ball$")


def odd_residuals_are_refused() -> None:
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    refused(lambda: ctx.eval_word("PERM:(e g:1)"),
            MembershipError, "^an odd finitely supported permutation")


def odd_residuals_against_classify() -> None:
    """Odd residuals are elements exactly over a symmetric product, whichever
    side the factor with an odd translation is on."""
    for left, right in ((CyclicGroup(2), CyclicGroup(3)), (CyclicGroup(3), CyclicGroup(2))):
        agree(PvContext(left, right).mixed_symmetric, classify(left, right) == "Sym",
              f"odd residuals of {left} x {right}")


def parity_against_dense() -> None:
    union = PointedUnion(CyclicGroup(4), CyclicGroup(4))
    p = union.points
    a = FinPerm.identity()
    for i, j in ((0, 1), (1, 2), (3, 5), (2, 4), (5, 6)):
        a = transposition(p[i], p[j]).compose(a)
        agree(a.is_even(), parity_dense(union.dense(a)) == 0, f"parity of {a}")


def classification_against_order() -> None:
    for left, right in ((CyclicGroup(2), CyclicGroup(3)), (CyclicGroup(3), CyclicGroup(3))):
        n = left.order() + right.order() - 1
        agree(full_order(classify(left, right), n), glued_order(left, right),
              f"classification of {left} x {right}")


def multiplicativity_of_phi() -> None:
    approx = Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1)
    report = approx.check_multiplicativity(mode="sample", sample=50)
    agree(report.failures, [], "multiplicativity failures")


def image_against_pushforward() -> None:
    approx = Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1)
    report = approx.check_pushforward(mode="sample", sample=20)
    agree(report.failures, [], "pushforward failures")


def loops_are_refused() -> None:
    """A non-associative loop generated by 1 and 2 whose triples through 1
    alone all associate."""
    loop = [[0, 1, 2, 3, 4, 5], [1, 0, 5, 4, 3, 2], [2, 3, 4, 5, 0, 1],
            [3, 2, 1, 0, 5, 4], [4, 5, 3, 2, 1, 0], [5, 4, 0, 1, 2, 3]]
    refused(lambda: TableGroup(loop), GroupSpecError, r"^table is not associative at \(1,2,2\)$")


def picks_against_closure() -> None:
    for G in (CyclicGroup(4), TableGroup(symmetric_group_table(3))):
        agree(G.generators(), closure_picks(G), f"picks of {G}")


def quotients_must_be_homomorphisms() -> None:
    """Z -> Z/17 followed by the swap of residues 1 and 2, which fixes 0:
    only the homomorphism law refuses it."""
    swap = {1: 2, 2: 1}
    q = FiniteQuotient(IntegersGroup(), CyclicGroup(17), lambda x: swap.get(x % 17, x % 17))
    refused(lambda: q.verify(4), GroupSpecError, "^quotient map is not a homomorphism$")


def folner_ratio_against_pointwise() -> None:
    for ctx in (PvContext(IntegersGroup(), IntegersGroup()),
                PvContext(LatticeGroup(2), IntegersGroup())):
        F = dynamics.folner_set(ctx, 2)
        for c in (-1, -3):
            s = ctx.from_g(str(c) if ctx.G.kind == "integers" else f"{c},0")
            image = {ctx.act(s, p) for p in F.points}
            agree(dynamics.folner_ratio(ctx, F, s),
                  Fraction(len(image ^ F.points), len(F.points)), f"Folner ratio of {c}")


def equivariance_of_the_projection() -> None:
    approx = Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1)
    agree(approx.check_equivariance().failures[:1], [], "equivariance failures")


def command(*argv: str) -> Callable[[], None]:
    """An oracle that runs the command line: a nonzero exit is the fault,
    reported with its output."""
    def run() -> None:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        if code != 0:
            raise AssertionError(f"exit {code}: {out.getvalue().strip()}")
    return run


def carried_parity_against_cycles() -> None:
    ctx = PvContext(IntegersGroup(), IntegersGroup())
    for word in ("H:1 G:1 H:-1 G:-1", "PERM:(g:1 g:2 g:3) G:2 H:1 PERM:(e h:1 h:2)"):
        a = ctx.eval_word(word).a
        agree(a.known_even(), sum(len(c) - 1 for c in a.cycles()) % 2 == 0, f"parity of {word}")


# ----------------------------------------------------------------------
# faults


@dataclass(frozen=True)
class Fault:
    slug: str
    owner: object  # the module or class holding the function
    attr: str
    old: str
    new: str
    oracle: Callable[[], None]
    raises: type
    match: str


FAULTS = [
    Fault("swapped-compose-dense", groups, "compose_dense",
          "operator.itemgetter(*q)(p)", "operator.itemgetter(*p)(q)",
          multiplicativity_of_phi, AssertionError, "^multiplicativity failures"),
    Fault("reversed-commutator", core.PvContext, "_compose_commutator",
          "((e, hp), (hp, gp), (gp, e))", "((e, gp), (gp, hp), (hp, e))",
          check_mode_product, GluedError, "^product law mismatch"),
    Fault("verify-product-never-compares", core.PvContext, "_verify_product",
          "if self.act(out, p) != self.act(s1, self.act(s2, p)):", "if False:",
          check_mode_refuses_a_wrong_product, AssertionError, "accepted"),
    Fault("quotient-injectivity-off", lef.FiniteQuotient, "verify",
          "if len({proj(x) for x in ball}) != len(ball):", "if False:",
          quotients_must_be_injective, AssertionError, "accepted"),
    Fault("odd-residuals-accepted", core.PvContext, "_check_residual",
          "if not self.mixed_symmetric and not a.is_even():",
          "if not self.mixed_symmetric and False:",
          odd_residuals_are_refused, AssertionError, "accepted"),
    Fault("odd-residuals-from-h-only", core.PvContext, "__init__",
          "has_cyclic_two_sylow(G) or ", "",
          odd_residuals_against_classify, AssertionError,
          r"^odd residuals of cyclic\(2\) x cyclic\(3\)"),
    Fault("wrong-parity-sum", pointed.FinPerm, "is_even",
          "sum(len(c) - 1 for c", "sum(len(c) for c",
          parity_against_dense, AssertionError, "^parity of"),
    Fault("flipped-odd-translation", finite, "_odd_translation",
          "(n // k) % 2 == 1", "(n // k) % 2 == 0",
          classification_against_order, AssertionError, "^classification of"),
    Fault("transposed-image-patch", lef.Approximation, "_image",
          "images[index[p]] = outer[index[q]]", "images[index[q]] = outer[index[p]]",
          image_against_pushforward, AssertionError, "^pushforward failures"),
    Fault("sift-exit", groups._StabilizerChain, "sift",
          "return p, i", "return p, i - 1",
          schreier_sims_against_closure, AssertionError, "^order of C4"),
    Fault("three-cycle-search-takes-any-three-cycle", groups, "_three_cycle",
          "if divisible == 1 and three:", "if three:",
          schreier_sims_against_closure, AssertionError,
          r"^order of M11: 19958400 != 7920$"),
    Fault("certificate-support-loosened", groups, "alt_sym_order",
          "if len(support) != 3:", "if len(support) < 3:",
          alt_sym_against_closure, AssertionError, r"^certificate of D8: 24 != None$"),
    Fault("certificate-class-count-off-by-one", groups, "alt_sym_order",
          "classes = n\n", "classes = n - 1\n",
          alt_sym_against_closure, AssertionError, r"^certificate of C3 wr C2: 720 != None$"),
    Fault("certificate-parity-inverted", groups, "alt_sym_order",
          "return order if any(", "return order if not any(",
          alt_sym_against_closure, AssertionError, r"^certificate of Alt\(5\): 120 != 60$"),
    Fault("point-cap-off-by-one", groups, "check_point_cap",
          "if n > POINT_CAP:", "if n > POINT_CAP + 1:",
          point_cap_refusal, AssertionError, "accepted"),
    Fault("absorbed-cap-off-by-one", pointed, "check_absorbed",
          "if n is not None and n > ABSORBED_CAP:", "if n is not None and n > ABSORBED_CAP + 1:",
          absorbed_cap_refusal, AssertionError, "accepted"),
    Fault("associativity-first-generator-only", groups.TableGroup, "_check_associativity",
          "for s in self.generators():", "for s in self.generators()[:1]:",
          loops_are_refused, AssertionError, "accepted"),
    Fault("orbit-walk-skips-earlier-elements", groups.GroupHandle, "_pick_generators",
          "for s in (a,) if k < old else gens:", "for s in () if k < old else gens:",
          picks_against_closure, AssertionError, r"^picks of cyclic\(4\): \[1, 2, 3\] != \[1\]$"),
    Fault("homomorphism-law-off", lef.FiniteQuotient, "verify",
          "if proj(source.mul(x, y)) != target.mul(proj(x), proj(y)):", "if False:",
          quotients_must_be_homomorphisms, AssertionError, "accepted"),
    Fault("folner-unsigned-translation", dynamics, "folner_ratio",
          "side - abs(c)", "side - c",
          folner_ratio_against_pointwise, AssertionError, "^Folner ratio of -1"),
    Fault("carried-parity-flipped", pointed, "carry_parity",
          "out._carried = ex == ey", "out._carried = ex != ey",
          carried_parity_against_cycles, AssertionError, "^parity of"),
    Fault("basepoint-to-the-inverse", pointed.PointedUnion, "apply_factor",
          "y = x", "y = handle.inv(x)",
          equivariance_of_the_projection, AssertionError,
          r"^equivariance failures: \['g:1 at e'\]"),
    Fault("lef-image-transposed", lef.Approximation, "_image",
          "images[index[p]] = outer[index[q]]", "images[index[q]] = outer[index[p]]",
          command("suite", "lef", "--only", "multiplicativity"), AssertionError,
          r"^exit 1: FAIL lef\.multiplicativity  g=.* \| g=.*  \| repro: "
          r"gluedprod suite lef --seed 42 --only multiplicativity$"),
    Fault("transporter-reversed", cubes, "transporter",
          "ctx.multiply(ctx.invert(carrier_w), carrier_v)",
          "ctx.multiply(carrier_v, ctx.invert(carrier_w))",
          command("suite", "cube", "--only", "transporter"), AssertionError,
          r"^exit 1: FAIL cube\.transporter  error: transporter failed post-verification  "
          r"\| repro: gluedprod suite cube --seed 42 --only transporter$"),
    Fault("pong-letters-equal", dynamics, "free_semigroup_check",
          '("h", ctx.from_h(h))', '("h", ctx.from_g(g))',
          command("pong", "--g", "1", "--h", "1"), AssertionError, "^exit 1: COLLISION g = h$"),
    Fault("full-order-halved", finite, "full_order",
          '// (1 if kind == "Sym" else 2)', "// 2",
          command("classify", "--left", '{"type":"cyclic","n":4}',
              "--right", '{"type":"cyclic","n":3}', "--verify"), AssertionError,
          r"^exit 1: Sym\(6\) MISMATCH: order 720 != 360$"),
]


def suite_fault(slug: str, owner: object, attr: str, old: str, new: str,
                check: str, detail: str) -> Fault:
    """A fault under which the suite check ``check`` (``suite.name``), run
    alone, fails with ``detail`` and its repro line."""
    suite, name = check.split(".")
    return Fault(slug, owner, attr, old, new, command("suite", suite, "--only", name),
                 AssertionError,
                 rf"^exit 1: FAIL {re.escape(check)}  {re.escape(detail)}  "
                 rf"\| repro: gluedprod suite {suite} --seed 42 --only {name}$")


# the failure return of every suite check that no other test reaches
FAULTS += [
    suite_fault("commutator-sides-swapped", core.PvContext, "commutator",
                'three_cycle(BASE, Point("g", g), Point("h", h))',
                'three_cycle(BASE, Point("h", h), Point("g", g))',
                "core.commutator-identity", "g=1 h=6"),
    suite_fault("commutator-term-dropped", core.PvContext, "multiply",
                "if a1 or not commutes:", "if not commutes:",
                "core.commutator-identity", "cube not trivial at g=1 h=6"),
    suite_fault("projection-swapped", core.PvContext, "project",
                "return (g, s.h)", "return (s.h, g)",
                "core.projection-monolith", "projection not multiplicative"),
    suite_fault("classify-always-alt", finite, "classify",
                'return "Sym"', 'return "Alt"',
                "finite.catalog-classification", "cyclic(2) vs cyclic(2)"),
    suite_fault("translation-sign-always-even", finite, "translation_sign",
                "return -1 if", "return 1 if",
                "finite.translation-signs", "Z2 element 1"),
    suite_fault("classify-left-factor-only", finite, "classify",
                "if has_cyclic_two_sylow(G) or has_cyclic_two_sylow(H):",
                "if has_cyclic_two_sylow(G):",
                "finite.classify-symmetric", "cyclic(2) vs cyclic(3)"),
    suite_fault("act-vertex-drops-added", cubes, "act_vertex",
                "added.add(q)", "pass",
                "cube.s-invariance", "fiber moved"),
    suite_fault("monolith-empty", core.PvContext, "in_monolith",
                "return s.g == self.G.identity and s.h == self.H.identity", "return False",
                "cube.transporter", "bad transporter"),
    suite_fault("cross-fiber-transport", cubes, "transporter",
                "raise FiberMismatchError(", "return ctx.identity or FiberMismatchError(",
                "cube.transporter", "cross-fiber transport accepted"),
    suite_fault("folner-ratio-zero", dynamics, "folner_ratio",
                "return Fraction(2 * (F.size - kept), F.size)", "return Fraction(0)",
                "dynamics.folner-ratios", "n=1"),
    suite_fault("folner-ratio-adds-h", dynamics, "folner_ratio",
                "g = s.g", "g = s.g + s.h",
                "dynamics.folner-ratios", "n=1 (H side)"),
    suite_fault("pong-catalog-letters-equal", dynamics, "free_semigroup_check",
                '("h", ctx.from_h(h))', '("h", ctx.from_g(g))',
                "dynamics.pong-catalog", "g=1 h=1"),
]


def plant(monkeypatch, fault: Fault) -> None:
    """Recompile ``fault.attr`` with its one text replaced and bind the mutant
    wherever the package binds the original."""
    original = vars(fault.owner)[fault.attr]
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(fault.old) == 1, f"{fault.slug}: the planted text is not in the source"
    namespace = dict(vars(sys.modules[original.__module__]))
    exec(compile(source.replace(fault.old, fault.new), f"<{fault.slug}>", "exec",
                 flags=__future__.annotations.compiler_flag, dont_inherit=True), namespace)
    mutant = namespace[original.__name__]
    if isinstance(fault.owner, type):
        monkeypatch.setattr(fault.owner, fault.attr, mutant)
        return
    for name, bound in list(sys.modules.items()):
        if name.split(".")[0] == "gluedprod" and vars(bound).get(fault.attr) is original:
            monkeypatch.setattr(bound, fault.attr, mutant)


@pytest.mark.parametrize("fault", FAULTS, ids=[f.slug for f in FAULTS])
def test_oracle_passes_on_the_real_code(fault):
    fault.oracle()


@pytest.mark.parametrize("fault", FAULTS, ids=[f.slug for f in FAULTS])
def test_oracle_refuses_its_planted_fault(monkeypatch, fault):
    plant(monkeypatch, fault)
    with pytest.raises(fault.raises, match=fault.match):
        fault.oracle()


def test_a_failing_lef_suite_check_names_its_first_failure(monkeypatch):
    """The FAIL line of a lef suite check carries its report's first failure."""
    fault = next(f for f in FAULTS if f.slug == "lef-image-transposed")
    plant(monkeypatch, fault)
    approx = Approximation(PvContext(IntegersGroup(), IntegersGroup()), 1)
    report = approx.check_multiplicativity(mode="sample", sample=10**4, seed=42)
    with pytest.raises(AssertionError) as failed:
        fault.oracle()
    assert str(failed.value) == (
        f"exit 1: FAIL lef.multiplicativity  {report.failures[0]}  "
        "| repro: gluedprod suite lef --seed 42 --only multiplicativity")
