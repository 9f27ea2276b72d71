"""Exact computation in the group glued from two factors at their identity.

The product of two groups G and H realised as a permutation group of the
pointed union of their underlying sets, together with its normal form,
finite Alt/Sym classification, cubical complex, Folner sets, free
semigroup checks, and finite-group approximation maps.
"""

from .errors import (
    BudgetError,
    FiberMismatchError,
    GluedError,
    GroupSpecError,
    MembershipError,
    RegimeError,
    WordParseError,
)
from .groups import (
    CyclicGroup,
    CyclicPowerGroup,
    FreeGroup,
    GroupHandle,
    IntegersGroup,
    LatticeGroup,
    TableGroup,
    cyclic_table,
    direct_product_table,
    parse_group,
    schreier_sims_order,
    symmetric_group_table,
)
from .pointed import BASE, FinPerm, Point, PointedUnion, three_cycle, transposition
from .core import PvContext, PvElement

__all__ = [
    "BASE",
    "BudgetError",
    "CyclicGroup",
    "CyclicPowerGroup",
    "FiberMismatchError",
    "FinPerm",
    "FreeGroup",
    "GluedError",
    "GroupHandle",
    "GroupSpecError",
    "IntegersGroup",
    "LatticeGroup",
    "MembershipError",
    "Point",
    "PointedUnion",
    "PvContext",
    "PvElement",
    "RegimeError",
    "TableGroup",
    "WordParseError",
    "cyclic_table",
    "direct_product_table",
    "parse_group",
    "schreier_sims_order",
    "symmetric_group_table",
    "three_cycle",
    "transposition",
]
