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
import inspect
import re
import sys
import textwrap
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import pytest

from conftest import mulclose
from gluedprod import (
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
    core,
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
from gluedprod.groups import parity_dense
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
    for left, right in ((CyclicGroup(3), CyclicGroup(3)),
                        (TableGroup(symmetric_group_table(3)), CyclicGroup(2))):
        gens = realize_finite(left, right)
        agree(schreier_sims_order(gens), len(mulclose(gens)), f"order of {left} x {right}")


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
          schreier_sims_against_closure, AssertionError, "^order of"),
    Fault("associativity-first-generator-only", groups.TableGroup, "_check_associativity",
          "for s in self.generators():", "for s in self.generators()[:1]:",
          loops_are_refused, AssertionError, "accepted"),
    Fault("homomorphism-law-off", lef.FiniteQuotient, "verify",
          "if proj(source.mul(x, y)) != target.mul(proj(x), proj(y)):", "if False:",
          quotients_must_be_homomorphisms, AssertionError, "accepted"),
    Fault("folner-unsigned-translation", dynamics, "folner_ratio",
          "side - abs(c)", "side - c",
          folner_ratio_against_pointwise, AssertionError, "^Folner ratio of -1"),
    Fault("carried-parity-flipped", pointed, "carry_parity",
          "out._carried = ex == ey", "out._carried = ex != ey",
          carried_parity_against_cycles, AssertionError, "^parity of"),
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
