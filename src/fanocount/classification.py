"""The irregularity and Picard-number classifications of Fano schemes of k-planes
on general complete intersections.

They record two facts about these Fano schemes: which ones are irregular (exactly three
families), and which very general complete intersections have Fano schemes of Picard
number bigger than one (three exceptional families of quadric type).  Both read only the
multidegree, r and k of a ``ProblemSpec``: this module imports neither the extraction
route nor a fixed-point module, so the ``irregularity`` and ``picard`` subcommands load
no fold and no kernel.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import ProblemSpec, RegimeError, _check_nonempty_regime

__all__ = ["Classification", "IrregularityCase", "PicardInfo", "irregularity_classify",
           "picard_number"]


class IrregularityCase(Enum):
    CUBIC_THREEFOLD_LINES = "irregular-cubic-threefold-lines"
    CUBIC_FIVEFOLD_PLANES = "irregular-cubic-fivefold-planes"
    TWO_QUADRICS = "irregular-two-quadrics"
    REGULAR = "regular"


class Classification(NamedTuple):
    case: IrregularityCase
    k: int | None
    note: str


def _require_nonempty_fano(spec: ProblemSpec, task: str) -> None:
    if spec.delta < 2:
        raise RegimeError("delta-too-small", f"{task} needs delta >= 2, got {spec.delta}")
    _check_nonempty_regime(spec)


def irregularity_classify(spec: ProblemSpec) -> Classification:
    """Which Fano schemes of general complete intersections (irreducible, of
    dimension >= 2) are irregular.

    Exactly three families: lines on cubic threefolds, planes on cubic
    fivefolds, and k-planes on intersections of two quadrics in P^{2k+3}
    (dimension k+1).  Everything else has vanishing irregularity; in
    particular r >= 2k + m + 2 forces regularity.
    """
    _require_nonempty_fano(spec, "classification")
    degs = tuple(sorted(spec.degrees))
    if degs == (2,) and spec.r == 2 * spec.k + 1:
        raise RegimeError(
            "reducible-fano",
            "the Fano scheme of middle-dimensional planes on an even-dimensional "
            "quadric has two components, so the irreducibility hypothesis fails")
    if degs == (3,) and spec.r == 4 and spec.k == 1:
        return Classification(IrregularityCase.CUBIC_THREEFOLD_LINES, None,
                              "surface of lines on a general cubic threefold")
    if degs == (3,) and spec.r == 6 and spec.k == 2:
        return Classification(IrregularityCase.CUBIC_FIVEFOLD_PLANES, None,
                              "surface of planes on a general cubic fivefold")
    if degs == (2, 2) and spec.r == 2 * spec.k + 3:
        return Classification(
            IrregularityCase.TWO_QUADRICS, spec.k,
            f"(k+1)-dimensional Fano scheme of k-planes on two general quadrics, k={spec.k}")
    return Classification(IrregularityCase.REGULAR, None, "irregularity vanishes")


VERY_GENERAL_NOTE = ("Picard numbers refer to the very general complete intersection; "
                     "'general' is not enough here.")


class PicardInfo(NamedTuple):
    rho: int
    components: int
    note: str


def picard_number(spec: ProblemSpec) -> PicardInfo:
    """Picard number of the Fano scheme of the very general complete
    intersection with delta >= 2: equal to 1 except for three quadric-type
    families.  For the two-component quadric case the number refers to each
    component.  Requires r >= 2k + m: below it the Fano scheme is empty."""
    _require_nonempty_fano(spec, "Picard classification")
    degs = tuple(sorted(spec.degrees))
    k = spec.k
    if degs == (2,) and spec.r == 2 * k + 1:
        return PicardInfo(1, 2, "two isomorphic disjoint components, each of Picard "
                                "number 1. " + VERY_GENERAL_NOTE)
    if degs == (2,) and spec.r == 2 * k + 3:
        return PicardInfo(2, 1, VERY_GENERAL_NOTE)
    if degs == (2, 2) and spec.r == 2 * k + 4:
        return PicardInfo(2 * k + 6, 1, VERY_GENERAL_NOTE)
    return PicardInfo(1, 1, VERY_GENERAL_NOTE)
