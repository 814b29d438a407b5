"""Exact-arithmetic branch counting and F-nilpotence for semigroup rings.

Core entry points:

- ffield: finite fields GF(p^s), univariate polynomials, squarefree
  decomposition and distinct-root counts.
- graded: standard-graded quotients, Hilbert functions, linear reductions,
  Frobenius closures and the closure-quotient branch count.
- oracle: independent branch counts for plane curves and axes rings.
- semigroup: affine semigroup saturation, pure inseparability, F-nilpotence
  verdicts, tight closure membership and Frobenius test exponents.
- cli: the `frobranch` command.
"""

from .errors import FrobranchError
from .ffield import (
    PrimeField,
    ExtensionField,
    UniPoly,
    extend_field,
    squarefree_decomposition,
    distinct_root_count,
)
from .graded import (
    GradedQuotient,
    HomogPoly,
    BranchReport,
    branch_count,
    hilbert_function,
    multiplicity,
)
from .oracle import HypersurfaceCurve, crosscheck, hypersurface_branches, axes_ring
from .semigroup import (
    AffineSemigroup,
    FNilpotencyReport,
    is_f_nilpotent,
    membership,
    saturation_hilbert_basis,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "FrobranchError",
    "PrimeField",
    "ExtensionField",
    "UniPoly",
    "extend_field",
    "squarefree_decomposition",
    "distinct_root_count",
    "GradedQuotient",
    "HomogPoly",
    "BranchReport",
    "branch_count",
    "hilbert_function",
    "multiplicity",
    "HypersurfaceCurve",
    "crosscheck",
    "hypersurface_branches",
    "axes_ring",
    "AffineSemigroup",
    "FNilpotencyReport",
    "is_f_nilpotent",
    "membership",
    "saturation_hilbert_basis",
    "smith_normal_form",
]
