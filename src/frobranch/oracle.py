"""Independent branch counts for structured families.

For plane hypersurface curves the branch count over a perfect base field is
the number of distinct points of the projective zero locus over the
algebraic closure, obtained from squarefree root counting of a
dehomogenization.  Coordinate-axes rings have a closed form.  Both serve as
oracles validating the closure-quotient formula.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Sequence

from .errors import NotSquarefree
from .ffield import Field
from .graded import (
    DEFAULT_S_MAX,
    BranchReport,
    GradedQuotient,
    HomogPoly,
    branch_count,
    plane_zero_count,
)


@dataclass(frozen=True)
class HypersurfaceCurve:
    """A reduced plane curve k[x,y]/(f) with f homogeneous squarefree."""

    field: Field
    f: HomogPoly
    var_names: Sequence[str] = ("x", "y")  # how messages name the variables

    def __post_init__(self):
        if self.f.nvars != 2 or self.f.field != self.field:
            raise ValueError("hypersurface oracle needs a form in two variables")
        if self.f.is_zero():
            raise ValueError("the zero form defines no curve")
        if self.f.degree < 1:
            raise ValueError(f"the constant {self.f.format(self.var_names)} defines no curve")
        if plane_zero_count(self.f) is None:
            raise NotSquarefree(f"{self.f.format(self.var_names)} has a repeated factor")


def hypersurface_branches(curve: HypersurfaceCurve) -> int:
    """Distinct projective zeros of f over the algebraic closure.

    These are the distinct roots of f(1, t), plus the point at infinity
    [0:1] when x divides f (at most once, f being squarefree), counted by
    the decomposition that made the curve.
    """
    return plane_zero_count(curve.f)


def axes_ring(field: Field, d: int) -> GradedQuotient:
    rels = []
    for i in range(d):
        for j in range(i + 1, d):
            mono = tuple(1 if k in (i, j) else 0 for k in range(d))
            rels.append(HomogPoly(field, d, 2, {mono: 1}))
    return GradedQuotient(field, d, rels)


def _match_axes(R: GradedQuotient) -> Optional[int]:
    d = R.nvars
    if d == 1:
        return 1 if not R.relations else None
    expected = {
        tuple(1 if k in (i, j) else 0 for k in range(d))
        for i in range(d)
        for j in range(i + 1, d)
    }
    seen = set()
    for g in R.relations:
        if len(g.terms) != 1:
            return None
        mono = next(iter(g.terms))
        if mono not in expected:
            return None
        seen.add(mono)
    return d if seen == expected else None


def oracle_branch_count(R: GradedQuotient) -> Optional[int]:
    """Oracle count when the presentation fits a known family, else None."""
    d = _match_axes(R)
    if d is not None:  # the d axes of k[x1..xd]/(xi*xj, i<j)
        return d
    if R.nvars == 2 and len(R.relations) == 1:
        try:
            curve = HypersurfaceCurve(R.field, R.relations[0])
        except NotSquarefree:
            return None
        return hypersurface_branches(curve)
    return None


def crosscheck(R: GradedQuotient, s_max: int = DEFAULT_S_MAX) -> BranchReport:
    """The formula's report with the applicable oracle's count and verdict."""
    report = branch_count(R, s_max=s_max)
    oracle = oracle_branch_count(R)
    if oracle is None:
        return report
    match = oracle == report.branches_formula
    status = "match" if match else "mismatch"
    return replace(report, oracle_branches=oracle, oracle_status=status,
                   consistent=report.consistent and match)
