"""Reference checks the program does not call; the tests compare against them.

The program checks its own "no" verdicts on eventual p-power membership
with semigroup._check_order, and its extension moduli with
ffield._is_field on the basis it already built.
"""

from typing import Sequence

from frobranch.ffield import UniPoly, _is_field, _regular_basis
from frobranch.semigroup import AffineSemigroup, smith_normal_form, solve_integer


def verify_no_certificate(A: AffineSemigroup, a: Sequence[int], p: int, cert: dict) -> bool:
    """Soundness check of a No certificate: p^e * a lies outside the
    lattice L of the face generators for every e >= 0.  One solve at q * a
    decides it, q the largest power of p dividing a diagonal entry d_i of
    L's Smith normal form U*M*V = D: the coordinates of U*a past the rank do
    not depend on e, and d_i divides p^e * (U*a)_i for some e only if it
    does for every e >= v_p(d_i).  L = 0 holds p^e * a only for a = 0."""
    face_gens = [tuple(g) for g in cert["face_generators"]]
    v = tuple(int(x) for x in a)
    if not face_gens:
        return any(v)
    nf = smith_normal_form([[g[i] for g in face_gens] for i in range(A.n)])
    q = 1
    for d in nf.diagonal()[:nf.rank]:
        while d % (q * p) == 0:
            q *= p
    return solve_integer(nf, [q * x for x in v]) is None


def is_irreducible(f: UniPoly) -> bool:
    """Irreducibility over the coefficient field, by Berlekamp's criterion
    on the regular representation of base[t]/(f) (see ffield._is_field)."""
    f = f.monic()
    return f.degree > 0 and _is_field(f, _regular_basis(f.field, f))
