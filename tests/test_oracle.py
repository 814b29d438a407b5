import random

import pytest

from frobranch.errors import NotSquarefree
from frobranch.ffield import PrimeField
from frobranch.graded import GradedQuotient, HomogPoly, plane_zero_count
from frobranch.oracle import (
    HypersurfaceCurve,
    axes_ring,
    crosscheck,
    hypersurface_branches,
    oracle_branch_count,
)


def form(field, terms):
    return HomogPoly.from_ints(field, 2, terms)


def test_hypersurface_branches_examples():
    F3, F5, F7 = PrimeField(3), PrimeField(5), PrimeField(7)
    assert hypersurface_branches(HypersurfaceCurve(F3, form(F3, {(2, 0): 1, (0, 2): 1}))) == 2
    assert hypersurface_branches(HypersurfaceCurve(F5, form(F5, {(1, 1): 1}))) == 2
    assert hypersurface_branches(HypersurfaceCurve(F7, form(F7, {(4, 0): 1, (0, 4): 1}))) == 4


def test_hypersurface_rejects_repeated_factor():
    F3 = PrimeField(3)
    with pytest.raises(NotSquarefree):
        HypersurfaceCurve(F3, form(F3, {(2, 0): 1}))


def test_hypersurface_symmetric_in_variables():
    rng = random.Random(5)
    for p in (2, 3, 5):
        F = PrimeField(p)
        found = 0
        while found < 10:
            d = rng.randint(2, 5)
            terms = {(d - i, i): rng.randrange(p) for i in range(d + 1)}
            terms = {m: c for m, c in terms.items() if c}
            if not terms:
                continue
            f = HomogPoly.from_ints(F, 2, terms)
            if plane_zero_count(f) is None:
                continue
            swapped = HomogPoly.from_ints(F, 2, {(m[1], m[0]): c for m, c in f.terms.items()})
            assert hypersurface_branches(HypersurfaceCurve(F, f)) == hypersurface_branches(
                HypersurfaceCurve(F, swapped)
            )
            found += 1


def test_axes_oracle_matches_formula():
    for p in (2, 3):
        for d in (2, 3, 4):
            res = crosscheck(axes_ring(PrimeField(p), d))
            assert res.oracle_status == "match" and res.branches_formula == d


def test_crosscheck_match_circle():
    F3 = PrimeField(3)
    R = GradedQuotient(F3, 2, [form(F3, {(2, 0): 1, (0, 2): 1})], ("x", "y"))
    res = crosscheck(R)
    assert res.oracle_status == "match"
    assert res.oracle_branches == 2
    assert res.consistent


def test_oracle_pattern_miss():
    # x^2 + yz is neither a plane curve nor an axes presentation
    F5 = PrimeField(5)
    f = HomogPoly.from_ints(F5, 3, {(2, 0, 0): 1, (0, 1, 1): 1})
    assert oracle_branch_count(GradedQuotient(F5, 3, [f])) is None


def test_crosscheck_no_oracle():
    # two coordinate points in the plane: ideal (z, xy) in three variables;
    # one-dimensional and reduced, but outside both oracle families
    F5 = PrimeField(5)
    z = HomogPoly.from_ints(F5, 3, {(0, 0, 1): 1})
    xy = HomogPoly.from_ints(F5, 3, {(1, 1, 0): 1})
    R = GradedQuotient(F5, 3, [z, xy], ("x", "y", "z"))
    res = crosscheck(R)
    assert res.oracle_status == "no-oracle"
    assert res.branches_formula == 2
    assert res.branches_formula == res.branches_multiplicity


def test_random_squarefree_agreement_small_sample():
    # the acceptance suite runs the full 200-instance version
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        p = rng.choice((2, 3, 5, 7))
        F = PrimeField(p)
        d = rng.randint(2, 5)
        terms = {(d - i, i): rng.randrange(p) for i in range(d + 1)}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        f = HomogPoly.from_ints(F, 2, terms)
        if plane_zero_count(f) is None:
            continue
        R = GradedQuotient(F, 2, [f], ("x", "y"))
        res = crosscheck(R)
        assert res.oracle_status == "match", (p, f)
        checked += 1


def test_squarefree_verdict_matches_both_dehomogenizations():
    # the one-decomposition verdict against the two-sided rule, with gcd(g, g')
    # computed by sympy over GF(p): f is squarefree exactly when f(1, t) and
    # f(t, 1) are, and then its deg f linear factors are distinct zeros
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        d = rng.randint(1, 6)
        terms = {(d - i, i): rng.randrange(p) for i in range(d + 1)}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        f = HomogPoly.from_ints(PrimeField(p), 2, terms)
        expected = True
        for at in (0, 1):
            g = sympy.Poly(sum(c * t ** m[1 - at] for m, c in terms.items()), t, modulus=p)
            if g.degree() >= 1 and sympy.gcd(g, g.diff(t)).degree() >= 1:
                expected = False
        assert plane_zero_count(f) == (f.degree if expected else None), (p, terms)
        verdicts.add(expected)
    assert verdicts == {True, False}
