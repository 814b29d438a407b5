"""Acceptance suite.

Each test covers one numbered criterion and announces a single PASS/FAIL
line on the real terminal (pytest capture is bypassed for those lines).
All assertions are exact integer checks; random suites are seeded.
"""

import random
from math import comb, gcd

import pytest

from frobranch.cli import parse_request, run
from frobranch.ffield import PrimeField, extend_field
from frobranch.graded import (
    GradedQuotient,
    HomogPoly,
    branch_count,
    closure_quotient_dim,
    find_linear_reduction,
    frobenius_closure_membership,
    ideal_membership,
    is_linear_reduction,
    multiplicity,
    plane_zero_count,
)
from frobranch.ffield import UniPoly, poly_gcd, squarefree_decomposition
from frobranch.oracle import axes_ring, crosscheck
from frobranch.semigroup import (
    AffineSemigroup,
    eventual_p_membership,
    frobenius_closure_exponent,
    fte_bruteforce,
    is_f_nilpotent,
    membership,
    saturation_hilbert_basis,
    smith_normal_form,
    tight_closure_membership_monomial,
    weak_normalization,
)
from reference import verify_no_certificate

PINCHED = AffineSemigroup([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)])


@pytest.fixture
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)

    return _announce


def criterion(announce, num, desc, body):
    try:
        body()
    except BaseException:
        announce(f"acceptance {num}: FAIL - {desc}")
        raise
    announce(f"acceptance {num}: PASS - {desc}")


def fermat_ring(field, d):
    return GradedQuotient(
        field, 2, [HomogPoly.from_ints(field, 2, {(d, 0): 1, (0, d): 1})], ("x", "y")
    )


def circle_rings():
    return [fermat_ring(PrimeField(3), 2)]


def axes_rings():
    return [axes_ring(PrimeField(p), d) for p in (2, 3, 5) for d in (2, 3, 4, 5)]


def fermat_rings():
    return [fermat_ring(PrimeField(p), d) for d, p in ((2, 5), (3, 2), (4, 7), (5, 3))]


def test_criterion_1_two_branch_plane_curve(announce):
    def body():
        req = parse_request(["branches", "--p", "3", "--vars", "x,y", "--rel", "x^2+y^2"])
        report = run(req)
        assert report.exit_code == 0
        r = report.results
        assert r["branches_formula"] == 2
        assert r["branches_multiplicity"] == 2
        assert r["oracle_branches"] == 2
        assert r["consistent"] is True

    criterion(announce, 1, "x^2+y^2 over GF(3) has exactly two branches", body)


def test_criterion_2_axes_rings(announce):
    def body():
        for p in (2, 3, 5):
            for d in (2, 3, 4, 5):
                res = crosscheck(axes_ring(PrimeField(p), d))
                assert res.oracle_status == "match", (p, d)
                assert res.branches_formula == d
                assert res.dim_quotient == d - 1

    criterion(announce, 2, "axes ring of d lines has d branches, quotient dim d-1", body)


def test_criterion_3_fermat_curves(announce):
    def body():
        for d, p in ((2, 5), (3, 2), (4, 7), (5, 3)):
            assert d % p != 0
            R = fermat_ring(PrimeField(p), d)
            res = crosscheck(R)
            assert res.oracle_status == "match", (d, p)
            assert res.branches_formula == d
            # the degree-d slice check: dim m^d / ((x^d) + m^(d+1)) = d - 1
            red = find_linear_reduction(R)
            assert closure_quotient_dim(red.ring, red.form, d) == d - 1

    criterion(announce, 3, "x^d+y^d has d branches and degree-d quotient dim d-1", body)


def _random_squarefree(rng, field, d):
    while True:
        terms = {(d - i, i): rng.randrange(field.p) for i in range(d + 1)}
        terms = {m: c for m, c in terms.items() if c}
        if not terms:
            continue
        f = HomogPoly.from_ints(field, 2, terms)
        if plane_zero_count(f) is not None:
            return f


def test_criterion_4_multiplicity_matches_oracle(announce):
    def body():
        rng = random.Random(20240824)
        mismatches = 0
        for _ in range(200):
            p = rng.choice((2, 3, 5, 7))
            field = PrimeField(p)
            d = rng.randint(2, 6)
            f = _random_squarefree(rng, field, d)
            R = GradedQuotient(field, 2, [f], ("x", "y"))
            res = crosscheck(R)
            r = res
            if not (
                res.oracle_status == "match"
                and r.branches_formula == r.branches_multiplicity == res.oracle_branches
            ):
                mismatches += 1
        assert mismatches == 0

    criterion(announce, 4, "200 random squarefree curves: formula = multiplicity = oracle", body)


def _probe_exponent(p, n, nvars, degree_cap=64, column_cap=3000):
    """Largest e <= 3 with p^e*n inside the degree cap and a desk-scale
    column count for the membership matrices."""
    e = 0
    for cand in (1, 2, 3):
        deg = n * p**cand
        if deg > degree_cap or comb(deg + nvars - 1, nvars - 1) > column_cap:
            break
        e = cand
    return e


def test_criterion_5_closure_equality_on_slices(announce):
    def body():
        checked = 0
        for R in circle_rings() + axes_rings() + fermat_rings():
            red = find_linear_reduction(R)
            ring, x = red.ring, red.form
            n = multiplicity(ring)[1]
            assert is_linear_reduction(ring, x, n + 1)
            if n == 0:
                continue
            p = ring.field.p
            e_probe = _probe_exponent(p, n, ring.nvars)
            if e_probe < 1:
                continue
            xn = x**n
            for mono in ring.slice(n).std_monomials:
                f = HomogPoly(ring.field, ring.nvars, n, {mono: 1})
                in_slice = ideal_membership(ring, f, [xn])
                probe = frobenius_closure_membership(ring, f, [xn], e_probe)
                assert (probe is not None) == in_slice, (R, mono)
                if probe is not None:
                    assert probe == 0  # already in the span at the slice level
                checked += 1
        assert checked >= 30

    criterion(announce, 5, "Frobenius closure of (x^n) matches (x^n)+m^(n+1) slice by slice", body)


def test_criterion_6_pinched_veronese(announce):
    def body():
        rep2 = is_f_nilpotent(PINCHED, 2)
        assert rep2.verdict == "f-nilpotent"
        assert rep2.e0 == 1
        for p in (3, 5, 7):
            rep = is_f_nilpotent(PINCHED, p)
            assert rep.verdict == "not-f-nilpotent"
            assert rep.witness == (0, 1, 1)
            assert verify_no_certificate(PINCHED, rep.witness, p, rep.certificate)

    criterion(announce, 6, "pinched Veronese is F-nilpotent exactly at p=2, with e0=1", body)


def _random_numerical(rng):
    while True:
        gens = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
        if len(gens) >= 2 and gcd(*gens) == 1:
            return AffineSemigroup([(g,) for g in gens])


def test_criterion_7_fte_and_tight_closure(announce):
    def body():
        rng = random.Random(4303)
        for _ in range(50):
            A = _random_numerical(rng)
            p = rng.choice((2, 3, 5))
            rep = is_f_nilpotent(A, p)
            assert rep.verdict == "f-nilpotent"
            members = [a for a in range(1, 80) if membership(A, (a,))]
            ideal = sorted(rng.sample(members, rng.randint(1, 2)))
            fte = fte_bruteforce(A, p, ideal)
            assert fte <= rep.e0
            for u in rng.sample(members, 5):
                shortcut = tight_closure_membership_monomial(A, [(v,) for v in ideal], (u,))
                chased = (
                    frobenius_closure_exponent(A, p, ideal, u, rep.e0 + 2) is not None
                )
                assert shortcut == chased, (A.generators, p, ideal, u)

    criterion(announce, 7, "50 random numerical semigroups: Fte <= e0 and I* membership agrees", body)


def test_criterion_8_scalar_extension_invariance(announce):
    def body():
        cases = [(PrimeField(3), lambda F: fermat_ring(F, 2), 2)]
        cases += [(PrimeField(p), (lambda d: lambda F: axes_ring(F, d))(d), d)
                  for p in (2, 3, 5) for d in (2, 3, 4, 5)]
        cases += [(PrimeField(p), (lambda d: lambda F: fermat_ring(F, d))(d), d)
                  for d, p in ((2, 5), (3, 2), (4, 7), (5, 3))]
        for base_field, make, expected in cases:
            assert branch_count(make(base_field)).branches_formula == expected
            for s in (2, 3):
                ext = extend_field(base_field, s)
                assert branch_count(make(ext)).branches_formula == expected, (base_field, s)

    criterion(announce, 8, "branch counts unchanged under forced scalar extension s in {2,3}", body)


def test_criterion_9_structural_suites(announce):
    def body():
        # squarefree reassembly at the module-invariant sample size
        rng = random.Random(906)
        for p in (2, 3, 5):
            F = PrimeField(p)
            for _ in range(40):
                deg = rng.randint(1, 12)
                coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                f = UniPoly.from_ints(F, coeffs)
                g = UniPoly.one(F)
                for fac, m in squarefree_decomposition(f):
                    assert poly_gcd(fac, fac.derivative()) == UniPoly.one(F)
                    for _ in range(m):
                        g = g * fac
                assert g == f.monic()

        # SNF transform identity is checked inside the constructor
        for _ in range(50):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 4)
            smith_normal_form([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])

        # containment chain span(x^n) <= slice of (x^n)+m^(n+1) <= [m^n]_n
        for R in circle_rings() + fermat_rings():
            red = find_linear_reduction(R)
            ring, x = red.ring, red.form
            n = multiplicity(ring)[1]
            assert is_linear_reduction(ring, x, n + 1)
            hf = len(ring.slice(n).std_monomials)
            xn = x**n
            assert ideal_membership(ring, xn, [xn])
            assert closure_quotient_dim(ring, x, n) == hf - 1

        # sandwich A <= *A <= saturation
        for A, ps in ((PINCHED, (2, 3, 5)), (AffineSemigroup([(2,), (3,)]), (2, 5))):
            sat = set(saturation_hilbert_basis(A))
            for p in ps:
                wn = weak_normalization(A, p)
                star = AffineSemigroup(wn)
                for g in A.generators:
                    assert membership(star, g)
                for g in wn:
                    assert A.in_cone(g) and A.in_lattice(g)
                    assert eventual_p_membership(A, g, p).status == "yes"

    criterion(announce, 9, "structural invariants: reassembly, SNF, chains, A <= *A <= saturation", body)
