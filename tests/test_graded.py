import itertools
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from frobranch.errors import CapExceeded, FieldMismatch, NoReductionFound, NotOneDimensional, PowerVanishes
from frobranch.ffield import PrimeField, extend_field
from frobranch.graded import (
    CLOSURE_DEGREE_CAP,
    GradedQuotient,
    HomogPoly,
    base_change,
    branch_count,
    closure_quotient_dim,
    dehomogenize,
    find_linear_reduction,
    frobenius_closure_membership,
    frobenius_power,
    hilbert_function,
    ideal_membership,
    is_linear_reduction,
    linear_form,
    linear_power_vector,
    macaulay_matrix,
    monomials_of_degree,
    multiplicity,
    reducedness_status,
    _first_reduction,
)
from frobranch import graded
from frobranch.linalg import Echelon, kernel_for
from frobranch.oracle import axes_ring

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)
F7 = PrimeField(7)


def circle_ring(field):
    # k[x,y]/(x^2+y^2)
    return GradedQuotient(field, 2, [HomogPoly.from_ints(field, 2, {(2, 0): 1, (0, 2): 1})], ("x", "y"))


def fermat_ring(field, d):
    # k[x,y]/(x^d+y^d)
    return GradedQuotient(field, 2, [HomogPoly.from_ints(field, 2, {(d, 0): 1, (0, d): 1})], ("x", "y"))


def test_monomial_order_is_grevlex():
    assert monomials_of_degree(2, 2) == ((2, 0), (1, 1), (0, 2))
    assert monomials_of_degree(3, 2)[0] == (2, 0, 0)
    # grevlex: within a degree, last exponent ascending first
    for m, m2 in zip(monomials_of_degree(3, 3), monomials_of_degree(3, 3)[1:]):
        assert tuple(reversed(m)) < tuple(reversed(m2))


def _recursive_monomials(nvars, d):
    """The recursive listing monomials_of_degree replaced, kept as its
    reference: every composition, sorted grevlex-descending."""
    def gen(n, total):
        if n == 1:
            yield (total,)
            return
        for first in range(total + 1):
            for rest in gen(n - 1, total - first):
                yield (first,) + rest

    return tuple(sorted(gen(nvars, d), key=lambda m: tuple(reversed(m))))


def test_monomial_listing_equals_the_recursive_one():
    for nvars in range(1, 6):
        for d in range(7):
            assert monomials_of_degree(nvars, d) == _recursive_monomials(nvars, d), (nvars, d)


def test_monomials_of_many_variables_need_no_recursion():
    # the recursive listing went one level per variable, even at degree 0;
    # the uncached listing keeps 1200 tuples of 1200 ints out of the cache
    assert monomials_of_degree(5000, 0) == ((0,) * 5000,)
    ones = monomials_of_degree.__wrapped__(1200, 1)
    assert len(ones) == 1200 and ones[0][0] == 1 and ones[-1][-1] == 1


def test_degree_basis_circle():
    R = circle_ring(F3)
    data = R.slice(2)
    assert set(data.std_monomials) == {(1, 1), (0, 2)}
    assert data.echelon.rank == 1


def test_degree_basis_degree_zero():
    R = circle_ring(F3)
    data = R.slice(0)
    assert data.std_monomials == ((0, 0),) and data.echelon.rank == 0


def test_degree_basis_axes():
    R = axes_ring(F2, 3)
    data = R.slice(2)
    assert set(data.std_monomials) == {(2, 0, 0), (0, 2, 0), (0, 0, 2)}
    assert data.echelon.rank == 3


def test_hilbert_function_sequences():
    R = circle_ring(F3)
    assert [hilbert_function(R, d) for d in range(4)] == [1, 2, 2, 2]
    poly = GradedQuotient(F5, 1, [])
    assert all(hilbert_function(poly, d) == 1 for d in range(6))
    R3 = axes_ring(F2, 3)
    assert [hilbert_function(R3, d) for d in (1, 2, 3, 4)] == [3, 3, 3, 3]


def test_hilbert_function_against_monomial_staircase():
    # independent oracle for monomial ideals: count monomials not divisible
    # by any generator
    cases = [
        (F2, 3, [(1, 1, 0), (1, 0, 1), (0, 1, 1)]),
        (F3, 2, [(2, 1)]),
        (F5, 3, [(2, 0, 0), (0, 3, 0)]),
    ]
    for field, n, gens in cases:
        R = GradedQuotient(field, n, [HomogPoly.from_ints(field, n, {g: 1}) for g in gens])
        for d in range(7):
            count = 0
            for m in monomials_of_degree(n, d):
                if not any(all(a >= b for a, b in zip(m, g)) for g in gens):
                    count += 1
            assert hilbert_function(R, d) == count


def test_multiplicity_values():
    assert multiplicity(circle_ring(F3)) == (2, 1)
    assert multiplicity(GradedQuotient(F5, 1, [])) == (1, 0)
    e, n = multiplicity(axes_ring(F2, 4))
    assert e == 4


def test_multiplicity_without_a_reduction_rests_on_persistence():
    # x*y*(x+y) has every GF(2)-line as a factor: no form over GF(2) is a
    # parameter, but HF(3) = HF(4) = 3 <= 3 proves e = 3 from degree 2 on
    x = HomogPoly.from_ints(F2, 2, {(1, 0): 1})
    y = HomogPoly.from_ints(F2, 2, {(0, 1): 1})
    R = GradedQuotient(F2, 2, [x * y * (x + y)], ("x", "y"))
    assert multiplicity(R, 1) == (3, 2)
    assert R.certificate.m == 3 and R.certificate.reduction is None
    with pytest.raises(NoReductionFound):
        find_linear_reduction(R, 1)
    assert find_linear_reduction(R, 2).scalar_extension == 2


def test_multiplicity_skips_refuted_degrees_above_the_persistence_bound(monkeypatch):
    # the all-points curve {x_i^2*x_j - x_i*x_j^2} over GF(2) has HF 1, 3,
    # 6, 7, 7, ..: no GF(2)-form reduces in degrees 4, 5 and 6, where
    # HF = 7 > m leaves persistence silent, so the sweep goes on to m = 7
    def ring():
        rels = []
        for i, j in itertools.combinations(range(3), 2):
            a, b = [0] * 3, [0] * 3
            a[i], a[j], b[i], b[j] = 2, 1, 1, 2
            rels.append(HomogPoly(F2, 3, 3, {tuple(a): 1, tuple(b): 1}))
        return GradedQuotient(F2, 3, rels, ("x", "y", "z"))

    R = ring()
    tried = []
    search = graded._first_reduction
    monkeypatch.setattr(graded, "_first_reduction", lambda R, d, s_max: tried.append(d) or search(R, d, s_max))
    assert multiplicity(R, 1) == (7, 3)
    assert tried == [4, 5, 6, 7]
    assert R.certificate.m == 7 and R.certificate.reduction is None
    with pytest.raises(NoReductionFound):
        find_linear_reduction(R, 1)
    # over GF(8) a form reduces at once
    R = ring()
    assert multiplicity(R, 3) == (7, 3)
    red = R.certificate.reduction
    assert R.certificate.m == 4 and red.scalar_extension == 3 and red.ring.field.order == 8


def test_multiplicity_rejects_two_dimensional():
    # k[x,y] with no relations: HF grows linearly, never stabilizes
    with pytest.raises(NotOneDimensional):
        multiplicity(GradedQuotient(F3, 2, []))


def test_ideal_membership_circle():
    R = circle_ring(F3)
    y2 = HomogPoly.from_ints(F3, 2, {(0, 2): 1})
    x3 = HomogPoly.from_ints(F3, 2, {(3, 0): 1})
    xy = HomogPoly.from_ints(F3, 2, {(1, 1): 1})
    assert ideal_membership(R, x3, [y2])          # x^3 = -x*y^2 mod x^2+y^2
    assert not ideal_membership(R, xy, [y2])
    zero = HomogPoly(F3, 2, 2, {})
    assert ideal_membership(R, zero, [y2])


def _membership_reference(R, f, J):
    """f in J*R from the whole Macaulay matrix of the relations and J in
    degree deg f, in an echelon over the field holding every code."""
    ncols = len(monomials_of_degree(R.nvars, f.degree))
    whole = Echelon(R.kernel_holding(f, *J), ncols)
    for block in macaulay_matrix(R.nvars, list(R.relations) + list(J), f.degree):
        whole.add_row(block)
    return whole.contains(next(macaulay_matrix(R.nvars, [f], f.degree), np.zeros((1, ncols), dtype=np.int64))[0])


def test_ideal_membership_matches_the_whole_macaulay_matrix():
    rng = random.Random(20)

    def random_form(R, degree, codes):
        monos = monomials_of_degree(R.nvars, degree)
        return HomogPoly(R.field, R.nvars, degree, {m: rng.randrange(codes) for m in rng.sample(monos, min(len(monos), 3))})

    seen = {"cases": 0, True: 0, False: 0, "J empty": 0, "zero generator": 0, "generator above deg f": 0,
            "extension form": 0}
    for R in _seeded_rings():
        slice_order = R.kernel.field.order
        for _ in range(16):
            d = rng.randint(1, 3)
            J = []
            for _ in range(rng.randint(0, 3)):
                e = rng.randint(1, d + 1)
                J.append(random_form(R, e, rng.choice((1, slice_order, R.field.order))))
            codes = rng.choice((slice_order, R.field.order))
            if rng.random() < 0.6:
                # a combination of J and the relations, a member; or zero
                f = HomogPoly(R.field, R.nvars, d, {})
                for g in J + list(R.relations):
                    if g.degree <= d:
                        f = f + random_form(R, d - g.degree, codes) * g
            else:
                f = random_form(R, d, codes)
            verdict = ideal_membership(R, f, J)
            assert verdict == _membership_reference(R, f, J), (R, f, J)
            seen["cases"] += 1
            seen[verdict] += 1
            seen["J empty"] += not J
            seen["zero generator"] += any(g.is_zero() for g in J)
            seen["generator above deg f"] += any(g.degree > d for g in J)
            seen["extension form"] += R.kernel_holding(f, *J) is not R.kernel
    assert seen["cases"] >= 200 and min(seen.values()) >= 10, seen


def test_zero_of_any_degree_tag_adds_as_zero():
    xy = HomogPoly(F3, 2, 2, {(1, 1): 1})
    zero = HomogPoly(F3, 2, 5, {})
    for total in (zero + xy, xy + zero):
        assert total == xy and total.degree == 2
    assert (zero + zero).is_zero()


def test_is_linear_reduction():
    R = circle_ring(F5)
    y = linear_form(R, [0, 1])
    assert is_linear_reduction(R, y, 2)
    assert multiplicity(R)[1] == 1

    R2 = axes_ring(F3, 2)
    x1 = linear_form(R2, [1, 0])
    assert not is_linear_reduction(R2, x1, 2)

    P = GradedQuotient(F3, 1, [])
    x = linear_form(P, [1])
    assert is_linear_reduction(P, x, 1) is True
    assert multiplicity(P)[1] == 0


def _macaulay_rows(nvars, gens, d):
    """The Macaulay rows of gens in degree d, one at a time in
    macaulay_matrix's order, from a column dictionary."""
    columns = {m: i for i, m in enumerate(monomials_of_degree(nvars, d))}
    for g in sorted((g for g in gens if g.terms and g.degree <= d), key=lambda g: g.degree):
        for mult in monomials_of_degree(nvars, d - g.degree):
            row = np.zeros(len(columns), dtype=np.int64)
            for m, c in g.terms.items():
                row[columns[tuple(a + b for a, b in zip(mult, m))]] = c
            yield row


def test_macaulay_matrix_matches_rows_built_one_at_a_time():
    rng = random.Random(11)
    F9 = extend_field(F3, 2)
    cases = [(1, 0, 3), (2, 1, 4), (2, 3, 5), (3, 2, 4), (4, 2, 5), (5, 3, 4), (9, 2, 3)]
    for field in (F5, F9):
        for nvars, top, d in cases:
            gens = []
            for _ in range(rng.randint(1, 4)):
                e = rng.randint(max(top - 1, 0), top)
                monos = monomials_of_degree(nvars, e)
                terms = {m: rng.randrange(field.order) for m in rng.sample(monos, min(len(monos), rng.randint(1, 6)))}
                gens.append(HomogPoly(field, nvars, e, terms))
            gens.append(HomogPoly(field, nvars, d + 1, {}))  # zero, and too high
            blocks = list(macaulay_matrix(nvars, gens, d))
            ncols = len(monomials_of_degree(nvars, d))
            assert all(0 < len(b) <= ncols and b.shape[1] == ncols for b in blocks)
            got = np.concatenate(blocks) if blocks else np.zeros((0, ncols), dtype=np.int64)
            want = list(_macaulay_rows(nvars, gens, d))
            assert got.tolist() == [row.tolist() for row in want], (field, nvars, d)


def test_macaulay_matrix_in_forty_variables():
    # 3^40 > 2^63: a mixed-radix key of the degree-2 monomials would overflow
    F = PrimeField(7)
    rng = random.Random(40)
    monos = monomials_of_degree(40, 2)
    gens = [HomogPoly(F, 40, 2, {m: rng.randrange(1, 7) for m in rng.sample(monos, 5)}) for _ in range(3)]
    gens.append(HomogPoly(F, 40, 1, {monomials_of_degree(40, 1)[17]: 1, monomials_of_degree(40, 1)[39]: 3}))
    (block,) = macaulay_matrix(40, gens, 2)
    assert block.tolist() == [row.tolist() for row in _macaulay_rows(40, gens, 2)]


@pytest.mark.parametrize("nvars", [1, 2, 3, 4])
def test_no_multipliers_give_empty_rows_of_the_key_width(nvars):
    ends, keys = graded._multiplier_rows((), nvars, 3)
    assert ends.shape == (0, 1)
    assert keys.shape == (0, max(nvars - 2, 0))


def _clone_and_insert_reduction(R, x, d):
    """x*[R]_{d-1} = [R]_d as I_d + x*S_{d-1} spanning S_d, every row of
    both inserted one at a time into one echelon."""
    ncols = len(monomials_of_degree(R.nvars, d))
    ech = Echelon(kernel_for(R.field), ncols)
    for row in itertools.chain(_macaulay_rows(R.nvars, R.relations, d), _macaulay_rows(R.nvars, [x], d)):
        ech.add_row(row)
    return ech.rank == ncols


def test_reduction_test_matches_clone_and_insert():
    rng = random.Random(5)
    rings = [circle_ring(F) for F in (F2, F3, F5)] + [_all_points_ring(F) for F in (F2, F3)]
    rings += list(_oracle_rings())
    verdicts = set()
    for R in rings:
        for d in range(1, R.max_rel_degree + 3):
            for _ in range(4):
                x = linear_form(R, [rng.randrange(R.field.order) for _ in range(R.nvars)])
                if x.is_zero():
                    continue
                verdict = is_linear_reduction(R, x, d)
                assert verdict == _clone_and_insert_reduction(R, x, d), (R, x, d)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_slice_memory_stays_near_the_echelon():
    # the degree-4 slice of 60 random quadrics in 9 variables has 2700
    # Macaulay rows for 495 columns, 5.45 echelon arrays at once; in blocks
    # of at most 495 rows the peak holds the echelon, one block of codes,
    # its digit rows and temporaries of a panel of rows, whatever the row
    # count: 120 quadrics, 10.9 echelon arrays of rows, peak no higher
    rng = random.Random(60)
    echelon = 495 * 495 * np.dtype(kernel_for(F7).dtype).itemsize
    peaks = []
    for count in (60, 120):
        gens = [HomogPoly(F7, 9, 2, {m: rng.randrange(7) for m in monomials_of_degree(9, 2)}) for _ in range(count)]
        R = GradedQuotient(F7, 9, gens)
        tracemalloc.start()
        try:
            data = R.slice(4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(data.columns) == 495 and data.echelon.rank == 495
    assert max(peaks) < 4.5 * echelon, [peak / echelon for peak in peaks]
    assert peaks[1] < 1.1 * peaks[0]


def _window_reduction_reference(R, x):
    """x*[R]_d = [R]_{d+1} checked in every degree of the window
    [n0, n0 + nvars + max_rel_degree], from normal forms of x times each
    standard monomial."""
    _, n0 = multiplicity(R)
    for d in range(n0, n0 + R.nvars + R.max_rel_degree + 1):
        target = R.slice(d + 1)
        image = Echelon(kernel_for(R.field), len(target.columns))
        for mono in R.slice(d).std_monomials:
            f = x * HomogPoly(R.field, R.nvars, d, {mono: 1})
            image.add_row(target.normal_forms(next(macaulay_matrix(R.nvars, [f], d + 1))[0], R.kernel_holding(f)))
        if image.rank != len(target.std_monomials):
            return False
    return True


def _reduction_test_rings():
    for field in (F2, F3):
        yield circle_ring(field)
        for d in (2, 3):
            yield fermat_ring(field, d)
            yield axes_ring(field, d)
    yield base_change(axes_ring(F2, 3), 2)


def test_one_degree_reduction_test_matches_window_check():
    # and every nonzero multiple of a form gets its verdict, which is what
    # lets the reduction search test one form per projective class
    for R in _reduction_test_rings():
        verdicts = {}
        for combo in itertools.product(range(R.field.order), repeat=R.nvars):
            if any(combo):
                x = linear_form(R, combo)
                verdict = is_linear_reduction(R, x, multiplicity(R)[1] + 1)
                assert verdict == _window_reduction_reference(R, x), (R, combo)
                verdicts[combo] = verdict
        for combo, verdict in verdicts.items():
            for lam in range(1, R.field.order):
                multiple = tuple(R.field.mul(lam, c) for c in combo)
                assert verdicts[multiple] == verdict, (R, combo, lam)
        assert True in verdicts.values(), R


def _all_points_ring(field):
    # x^q*y - x*y^q vanishes at every GF(q)-point of the line
    q = field.order
    return GradedQuotient(field, 2, [HomogPoly(field, 2, q + 1, {
        (q, 1): 1, (1, q): field.neg(1),
    })], ("x", "y"))


def _full_enumeration_reduction(R, d, s_max):
    """The first success of the search over every nonzero form: those with
    no zero coordinate first, then the rest, each in product order."""
    for s in range(1, s_max + 1):
        ring = R if s == 1 else base_change(R, s)
        q = ring.field.order
        candidates = itertools.chain(
            itertools.product(range(1, q), repeat=ring.nvars),
            (c for c in itertools.product(range(q), repeat=ring.nvars) if any(c) and not all(c)),
        )
        for combo in candidates:
            x = linear_form(ring, combo)
            if is_linear_reduction(ring, x, d):
                return x, s
    return None


def test_projective_search_finds_the_full_enumerations_first_form():
    rng = random.Random(20261018)
    fields = (F2, F3, extend_field(F2, 2), extend_field(F3, 2))
    cases, extended, none = 0, 0, 0
    for field in fields:
        rings = [
            circle_ring(field),
            fermat_ring(field, rng.randint(2, 4)),
            axes_ring(field, rng.randint(2, 3)),
            _all_points_ring(field),
        ]
        for R, s_max in itertools.product(rings, (1, 2)):
            _, n0 = multiplicity(R, s_max)
            for d in sorted({n0 + 1, R.certificate.m}):
                red = _first_reduction(R, d, s_max)
                expected = _full_enumeration_reduction(R, d, s_max)
                cases += 1
                if expected is None:
                    assert red is None, (R, d, s_max)
                    none += 1
                    continue
                assert (red.form, red.scalar_extension) == expected, (R, d, s_max)
                # the coefficient of the first variable present is 1
                assert red.form.terms[max(red.form.terms)] == 1
                extended += red.scalar_extension == 2
    assert cases >= 32 and extended >= 4 and none >= 4


@pytest.mark.parametrize("p", [2, 3, 5])
def test_all_points_curve_tests_one_form_per_class(p, monkeypatch):
    # p + 1 classes fail over GF(p); over GF(p^2) the forms x + c*y with
    # c = 1..p-1 are classes over GF(p) and are skipped, and c = p, the
    # first code outside GF(p), succeeds
    calls = []
    original = graded.is_linear_reduction

    def counting(R, x, d):
        calls.append(x)
        return original(R, x, d)

    monkeypatch.setattr(graded, "is_linear_reduction", counting)
    report = branch_count(_all_points_ring(PrimeField(p)))
    assert report.branches_formula == p + 1 and report.reduction_scalar_extension == 2
    assert len(calls) == p + 2


def test_branch_count_builds_no_slice_above_the_certificate():
    # the certificate sits at m = 2 (n0 = 1), so slices 0..3 suffice; the
    # window rule built slices up to n0 + nvars + max_rel_degree + 1 = 9
    R = axes_ring(F2, 6)
    assert branch_count(R).branches_formula == 6
    assert (R.certificate.m, R.certificate.n0) == (2, 1)
    assert max(R._cache) <= 3


def test_axes_ring_in_seven_variables_is_fast():
    start = time.perf_counter()
    assert branch_count(axes_ring(F2, 7)).branches_formula == 7
    assert time.perf_counter() - start < 5


def _window_multiplicity_reference(R):
    """The retired stabilization rule: the least N with HF constant over
    [N, N + nvars + max_rel_degree], searched up to 4*max(D,1)*nvars."""
    window = R.nvars + R.max_rel_degree
    for n in range(4 * max(R.max_rel_degree, 1) * R.nvars + 1):
        e = hilbert_function(R, n)
        if all(hilbert_function(R, n + i) == e for i in range(1, window + 1)):
            return e, n
    raise AssertionError(f"the window rule found no stable value for {R}")


def _product_of_forms(field, forms):
    n = len(forms[0])
    out = HomogPoly(field, n, 0, {(0,) * n: 1})
    for coeffs in forms:
        out = out * HomogPoly(field, n, 1, {
            tuple(int(i == j) for j in range(n)): c for i, c in enumerate(coeffs) if c
        })
    return out


def _distinct_lines(rng, field, nvars, count):
    """count pairwise non-proportional linear forms."""
    seen, forms = set(), []
    while len(forms) < count:
        coeffs = [rng.randrange(field.p) for _ in range(nvars)]
        if not any(coeffs):
            continue
        lead = next(c for c in coeffs if c)
        inv = pow(lead, field.p - 2, field.p)
        key = tuple(c * inv % field.p for c in coeffs)
        if key not in seen:
            seen.add(key)
            forms.append(coeffs)
    return forms


def _oracle_rings():
    rng = random.Random(20261018)
    fields = (F2, F3, F5, F7)
    for field in fields:
        for _ in range(3):
            # a product of distinct lines in the plane
            r = rng.randint(2, min(field.p + 1, 5))
            f = _product_of_forms(field, _distinct_lines(rng, field, 2, r))
            yield GradedQuotient(field, 2, [f])
        for _ in range(3):
            # a star complete intersection: no line of f is one of g
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            lines = _distinct_lines(rng, field, 3, a + b)
            yield GradedQuotient(field, 3, [
                _product_of_forms(field, lines[:a]), _product_of_forms(field, lines[a:]),
            ])
        for d in (2, 3, 4 if field.p < 5 else 5):
            yield axes_ring(field, d)


def test_certified_hilbert_function_matches_groebner_oracle():
    sympy = pytest.importorskip("sympy")
    rings = list(_oracle_rings())
    assert len(rings) >= 30
    for R in rings:
        e, n0 = multiplicity(R)
        m = R.certificate.m
        assert m in (n0, n0 + 1) and max(R._cache) <= m + 1, R
        gens = sympy.symbols(f"x1:{R.nvars + 1}")
        polys = [
            sum(c * sympy.prod(v**k for v, k in zip(gens, mono)) for mono, c in g.terms.items())
            for g in R.relations
        ]
        basis = sympy.groebner(polys, *gens, modulus=R.field.p, order="grevlex")
        leads = [sympy.Poly(g, *gens).monoms(order="grevlex")[0] for g in basis.exprs]
        outside = [
            tuple(
                mono for mono in monomials_of_degree(R.nvars, d)
                if not any(all(a >= b for a, b in zip(mono, lt)) for lt in leads)
            )
            for d in range(m + 3)
        ]
        for d in range(m + 3):
            assert R.slice(d).std_monomials == outside[d], (R, d)
        assert (e, n0) == _window_multiplicity_reference(R), R
        # a fresh copy whose first request is the top slice builds the
        # slices below it on the way up
        fresh = GradedQuotient(R.field, R.nvars, R.relations, R.var_names)
        assert fresh.slice(m + 2).std_monomials == outside[m + 2], R
        for d in range(m + 3):
            assert fresh.slice(d).std_monomials == outside[d], (R, d)


def _seeded_rings():
    """Rings over GF(p) and GF(p^s), with relations inside and outside
    GF(p) and of mixed degrees, in one variable, and monomial ideals, and
    rings over GF(16) with relations over GF(4)."""
    rng = random.Random(15)
    F9, F8, F4 = extend_field(F3, 2), extend_field(F2, 3), extend_field(F2, 2)
    F16 = extend_field(F4, 2)

    def random_form(field, nvars, degree, codes):
        monos = monomials_of_degree(nvars, degree)
        return HomogPoly(field, nvars, degree, {m: rng.randrange(codes) for m in rng.sample(monos, min(len(monos), 4))})

    yield circle_ring(F5)
    yield axes_ring(F3, 4)
    yield GradedQuotient(F7, 3, [random_form(F7, 3, 2, 7), random_form(F7, 3, 3, 7)])
    for field in (F9, F8):
        # relations inside GF(p); one outside it from degree 3 on; one from degree 2
        yield GradedQuotient(field, 3, [random_form(field, 3, 2, field.p), random_form(field, 3, 2, field.p)])
        yield GradedQuotient(field, 3, [random_form(field, 3, 2, field.p), random_form(field, 3, 3, field.order)])
        yield GradedQuotient(field, 2, [random_form(field, 2, 2, field.order)])
    yield GradedQuotient(F7, 1, [HomogPoly(F7, 1, 3, {(3,): 2})])
    yield GradedQuotient(F9, 1, [HomogPoly(F9, 1, 2, {(2,): 5})])
    yield GradedQuotient(F9, 1, [])
    yield GradedQuotient(F2, 4, [HomogPoly(F2, 4, sum(m), {m: 1}) for m in ((1, 1, 0, 0), (0, 0, 2, 0), (0, 1, 0, 1), (1, 0, 1, 1))])
    yield GradedQuotient(F9, 3, [HomogPoly(F9, 3, 2, {(0, 1, 1): 1}), HomogPoly(F9, 3, 3, {(0, 0, 3): 4})])
    # GF(4)-codes, code 2 outside GF(2) in each ring
    yield GradedQuotient(F16, 3, [
        HomogPoly(F16, 3, 2, {(2, 0, 0): 2, (0, 1, 1): 1, (1, 0, 1): 3}), random_form(F16, 3, 2, 4),
    ])
    yield GradedQuotient(F16, 2, [HomogPoly(F16, 2, 3, {(3, 0): 1, (1, 2): 2, (0, 3): 3})])


def _tower(field):
    """field, field.base, .., GF(p)."""
    while True:
        yield field
        if not hasattr(field, "base"):
            return
        field = field.base


def test_seeded_slices_match_eliminating_the_whole_macaulay_matrix():
    # the slices lie over the least field holding the relations, and they
    # reduce vectors over R's field and over a scalar extension of it as an
    # echelon over that field, filled with the same rows, does; the normal
    # forms on the standard columns have the rank the vectors add to it
    rng = np.random.default_rng(15)
    towers = 0
    for R in _seeded_rings():
        top = max((c for g in R.relations for c in g.terms.values()), default=0)
        assert R.kernel.field == min((F for F in _tower(R.field) if top < F.order), key=lambda F: F.order), R
        towers += 1 < R.kernel.s < R.field.degree
        for d in range(R.max_rel_degree + 4):
            data = R.slice(d)
            ncols = len(data.columns)
            rows = list(macaulay_matrix(R.nvars, R.relations, d))
            whole = Echelon(R.kernel, ncols)
            for block in rows:
                whole.add_row(block)
            seeded = data.echelon
            assert seeded.pivots == whole.pivots, (R, d)
            vecs = rng.integers(0, R.kernel.field.order, size=(5, ncols))
            assert seeded.reduce(vecs).tolist() == whole.reduce(vecs).tolist(), (R, d)
            for field in (R.field, extend_field(R.field, 2)):
                kernel = kernel_for(field)
                ref = Echelon(kernel, ncols)
                for block in rows:
                    ref.add_row(block)
                vecs = rng.integers(0, field.order, size=(5, ncols))
                # dependent over field, not over the slices' field: a multiple
                # of a vector, and a Macaulay row
                c = int(rng.integers(1, field.order))
                vecs[1] = [field.mul(c, int(v)) for v in vecs[0]]
                if rows:
                    vecs[2] = rows[0][0]
                nf = data.normal_forms(vecs, kernel)
                assert nf.tolist() == ref.reduce(vecs).tolist(), (R, d, field)
                assert data.normal_forms(vecs[0], kernel).tolist() == ref.reduce(vecs[0]).tolist(), (R, d, field)
                std = data.std_index
                gain = Echelon(kernel, len(std)).add_row(nf[:, std])
                assert gain == ref.add_row(vecs), (R, d, field)
    assert towers >= 2


def _whole_product_reduction(R, x, d):
    """is_linear_reduction's verdict from the rank of all of x*S_{d-1}: the
    Macaulay blocks of I_d and of x*S_{d-1} must span S_d, in an echelon
    over x's field."""
    ncols = len(monomials_of_degree(R.nvars, d))
    whole = Echelon(R.kernel_holding(x), ncols)
    for block in macaulay_matrix(R.nvars, list(R.relations) + [x], d):
        whole.add_row(block)
    return whole.rank == ncols


def test_standard_row_reduction_test_matches_the_whole_product():
    verdicts = set()
    for R in _oracle_rings():
        _, n0 = multiplicity(R)
        for d in sorted({1, n0 + 1, R.certificate.m}):
            for combo in graded._projective_forms(R.field.order, R.nvars):
                x = linear_form(R, combo)
                verdict = is_linear_reduction(R, x, d)
                assert verdict == _whole_product_reduction(R, x, d), (R, combo, d)
                verdicts.add(verdict)
    assert verdicts == {True, False}


def test_subfield_slices_reduce_extension_forms_by_coordinates():
    # slices over GF(Q) reduce vectors over GF(Q^m) through their base-Q
    # digits as an echelon over GF(Q^m) holding the same rows does, and
    # the reduction test on the standard columns gives the whole product's
    # verdict; the last pair is the two-level tower GF(2) < GF(4) < GF(16)
    rng = random.Random(19)
    F4, F9 = extend_field(F2, 2), extend_field(F3, 2)
    pairs = [
        (F2, extend_field(F2, 3)), (F4, extend_field(F4, 2)), (F3, extend_field(F3, 3)),
        (F9, extend_field(F9, 2)), (F5, extend_field(F5, 2)), (F2, extend_field(F4, 2)),
    ]
    cases, verdicts = 0, set()
    for K, F in pairs:
        kernel = kernel_for(F)
        low = K.base.order if K.degree > 1 else 0
        for _ in range(10):
            nvars = rng.randint(2, 3)
            rels = []
            for _ in range(rng.randint(1, 2)):
                e = rng.randint(2, 3)
                monos = monomials_of_degree(nvars, e)
                terms = {m: rng.randrange(1, K.order) for m in rng.sample(monos, min(len(monos), 3))}
                rels.append(HomogPoly(F, nvars, e, terms))
            # a code outside K's base keeps K the least field of the relations
            mono = next(iter(rels[0].terms))
            rels[0] = HomogPoly(F, nvars, rels[0].degree, {**rels[0].terms, mono: rng.randrange(low, K.order) or 1})
            R = GradedQuotient(F, nvars, rels)
            assert R.kernel.field == K, (R, K)
            for d in range(1, 6):
                data = R.slice(d)
                ncols = len(data.columns)
                ref = Echelon(kernel, ncols)
                for block in macaulay_matrix(nvars, R.relations, d):
                    ref.add_row(block)
                vecs = np.array([[rng.randrange(F.order) for _ in range(ncols)] for _ in range(3)], dtype=np.int64)
                assert data.normal_forms(vecs, kernel).tolist() == ref.reduce(vecs).tolist(), (R, d)
                x = linear_form(R, [rng.randrange(F.order) for _ in range(nvars)])
                if not x.is_zero():
                    verdict = is_linear_reduction(R, x, d)
                    assert verdict == _whole_product_reduction(R, x, d), (R, x, d)
                    verdicts.add(verdict)
                cases += 1
            for bad in (F.order, -1):
                with pytest.raises(FieldMismatch):
                    data.normal_forms(np.full(ncols, bad, dtype=np.int64), kernel)
    assert cases >= 300 and verdicts == {True, False}


def test_lock_serialises_concurrent_slice_population():
    def ring():
        lines = _distinct_lines(random.Random(9), F7, 3, 5)
        return GradedQuotient(F7, 3, [_product_of_forms(F7, lines[:2]), _product_of_forms(F7, lines[2:])])

    R = ring()
    barrier = threading.Barrier(2, timeout=30)
    got = {}

    def request(d):
        barrier.wait()
        got[d] = R.slice(d)

    threads = [threading.Thread(target=request, args=(d,)) for d in (9, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(R._cache) == list(range(10))
    alone = ring()
    vecs = np.random.default_rng(9).integers(0, 7, size=(4, 55))
    for d in (9, 5):
        want = alone.slice(d)
        assert got[d] is R.slice(d)
        assert got[d].std_monomials == want.std_monomials and got[d].echelon.pivots == want.echelon.pivots
        assert got[d].echelon.reduce(vecs[:, :len(want.columns)]).tolist() == want.echelon.reduce(vecs[:, :len(want.columns)]).tolist()


def test_slice_cap_counts_gf_p_digit_columns():
    # the degree-38 slice in 3 variables has 780 columns: within the cap
    # over GF(2), but a GF(4)-coded relation makes it 1560 GF(2) columns
    F4 = extend_field(F2, 2)
    assert 780 <= graded.SLICE_COLUMN_CAP < 2 * 780
    R = GradedQuotient(F4, 3, [HomogPoly(F4, 3, 2, {(2, 0, 0): 1, (0, 1, 1): 2})])
    assert R.kernel.s == 2
    with pytest.raises(CapExceeded, match="780 columns of 2 GF.2. digits each"):
        R.slice(38)
    assert not R._cache


def test_zero_dimensional_rings_are_refused():
    def gens(field, nvars, monos):
        return [HomogPoly(field, nvars, sum(m), {m: 1}) for m in monos]

    cases = [
        (GradedQuotient(F5, 2, gens(F5, 2, [(1, 0), (0, 1)])), 1),
        (GradedQuotient(F5, 1, gens(F5, 1, [(1,)])), 1),
        (GradedQuotient(F5, 2, gens(F5, 2, [(2, 0), (0, 2)])), 3),
    ]
    for R, degree in cases:
        with pytest.raises(NotOneDimensional, match=rf"zero-dimensional: HF\(d\) = 0 for d >= {degree}$"):
            multiplicity(R)
        with pytest.raises(NotOneDimensional):
            branch_count(R)
        assert R.certificate is None


def test_find_linear_reduction_base_field():
    red = find_linear_reduction(circle_ring(F3))
    assert red.scalar_extension == 1
    red2 = find_linear_reduction(axes_ring(F2, 2))
    assert red2.scalar_extension == 1
    # x1 + x2 is the only candidate that works over GF(2)
    assert set(red2.form.terms) == {(1, 0), (0, 1)}


def test_find_linear_reduction_needs_extension():
    # xy(x+y) has every GF(2)-line as a factor, so no reduction exists
    # over GF(2) and scalars must be extended
    x = HomogPoly.from_ints(F2, 2, {(1, 0): 1})
    y = HomogPoly.from_ints(F2, 2, {(0, 1): 1})
    R = GradedQuotient(F2, 2, [x * y * (x + y)], ("x", "y"))
    red = find_linear_reduction(R)
    assert red.scalar_extension == 2
    assert red.ring.field.order == 4


def test_frobenius_power():
    y = HomogPoly.from_ints(F3, 2, {(0, 1): 1})
    (cube,) = frobenius_power([y], 1)
    assert cube.terms == HomogPoly.from_ints(F3, 2, {(0, 3): 1}).terms
    s = HomogPoly.from_ints(F2, 2, {(1, 0): 1, (0, 1): 1})
    (sq,) = frobenius_power([s], 1)
    assert set(sq.terms) == {(2, 0), (0, 2)}  # freshman's dream
    gens = [HomogPoly.from_ints(F2, 2, {(2, 0): 1}), HomogPoly.from_ints(F2, 2, {(1, 1): 1})]
    out = frobenius_power(gens, 2)
    assert [set(g.terms) for g in out] == [{(8, 0)}, {(4, 4)}]


def test_frobenius_closure_membership_axes():
    R = axes_ring(F2, 3)
    f = HomogPoly.from_ints(F2, 3, {(0, 2, 0): 1})
    J = [HomogPoly.from_ints(F2, 3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})]
    assert frobenius_closure_membership(R, f, J, 3) == 0


def test_frobenius_closure_membership_not_in():
    R = circle_ring(F3)
    xy = HomogPoly.from_ints(F3, 2, {(1, 1): 1})
    y2 = HomogPoly.from_ints(F3, 2, {(0, 2): 1})
    assert frobenius_closure_membership(R, xy, [y2], 3) is None
    # (x*y)^(3^e) has degree 54 <= 64 at e = 3 and 162 at e = 4
    with pytest.raises(CapExceeded, match=f"degree 162 at e=4 exceeds the cap {CLOSURE_DEGREE_CAP}"):
        frobenius_closure_membership(R, xy, [y2], 4)


def test_frobenius_closure_membership_in_ideal():
    R = circle_ring(F3)
    y2 = HomogPoly.from_ints(F3, 2, {(0, 2): 1})
    assert frobenius_closure_membership(R, y2, [y2], 3) == 0


def test_closure_quotient_dim():
    R = circle_ring(F3)
    y = linear_form(R, [0, 1])
    assert closure_quotient_dim(R, y, 2) == 1

    R3 = axes_ring(F5, 3)
    x = linear_form(R3, [1] * 3)
    assert closure_quotient_dim(R3, x, 2) == 2

    P = GradedQuotient(F5, 1, [])
    t = linear_form(P, [1])
    assert closure_quotient_dim(P, t, 4) == 0


def test_power_vector_matches_repeated_products():
    rng = random.Random(3)
    for field in (F2, F7, extend_field(F3, 2), extend_field(F2, 3)):
        for nvars in (1, 2, 3):
            for n in (0, 1, 2, 5, 8):
                x = linear_form(GradedQuotient(field, nvars, []), [rng.randrange(field.order) for _ in range(nvars)])
                if x.is_zero():
                    continue
                columns = monomials_of_degree(nvars, n)
                want = [(x**n).terms.get(m, 0) for m in columns]
                assert linear_power_vector(x, n, columns).tolist() == want, (field, x, n)


def test_closure_quotient_dim_power_vanishes():
    # x is nilpotent in k[x,y]/(x^2), so its square is zero and the quotient
    # is not a meaningful branch count
    R = GradedQuotient(F3, 2, [HomogPoly.from_ints(F3, 2, {(2, 0): 1})], ("x", "y"))
    x = linear_form(R, [1, 0])
    with pytest.raises(PowerVanishes):
        closure_quotient_dim(R, x, 2)


def test_branch_count_examples():
    assert branch_count(circle_ring(F3)).branches_formula == 2
    assert branch_count(fermat_ring(F7, 4)).branches_formula == 4
    r = branch_count(axes_ring(F2, 3))
    assert r.branches_formula == 3 and r.branches_multiplicity == 3 and r.consistent


def test_branch_count_invariant_under_scalar_extension():
    for make in (lambda F: circle_ring(F), lambda F: fermat_ring(F, 3)):
        base = branch_count(make(F5)).branches_formula
        for s in (2, 3):
            ext = extend_field(F5, s)
            assert branch_count(make(ext)).branches_formula == base


def test_containment_chain_at_slice():
    # span(x^n) inside the degree-n slice of (x^n)+m^(n+1) inside [m^n]_n
    for R in (circle_ring(F3), fermat_ring(F7, 4), axes_ring(F2, 3)):
        red = find_linear_reduction(R)
        ring, x = red.ring, red.form
        n0 = multiplicity(ring)[1]
        vec = next(macaulay_matrix(ring.nvars, [x**n0], n0))[0]
        nf = ring.slice(n0).normal_forms(vec, ring.kernel_holding(x))
        assert np.any(nf) or n0 == 0
        # the degree-n piece of m^(n+1) is zero, so the middle term is span(x^n);
        # its dimension is 1 and it sits inside the HF(n)-dimensional slice
        assert 1 <= hilbert_function(ring, n0)


def test_degree_one_multiple_lands_in_higher_power():
    # ideal-level shadow: z*f lies in (x^n)+m^(n+1) for any linear z, since
    # z*f is already in m^(n+1); the degree-(n+1) slice of m^(n+1) is the
    # whole space, so membership must be trivially true
    R = circle_ring(F3)
    red = find_linear_reduction(R)
    ring, x = red.ring, red.form
    n0 = multiplicity(ring)[1]
    mono_gens = [
        HomogPoly(ring.field, ring.nvars, n0 + 1, {m: 1})
        for m in monomials_of_degree(ring.nvars, n0 + 1)
    ]
    for m in ring.slice(n0).std_monomials:
        f = HomogPoly(ring.field, ring.nvars, n0, {m: 1})
        for i in range(ring.nvars):
            z = linear_form(ring, [1 if j == i else 0 for j in range(ring.nvars)])
            assert ideal_membership(ring, z * f, [x**n0] + mono_gens)


def test_reducedness_status():
    assert reducedness_status(GradedQuotient(F3, 1, [])) == "verified-polynomial-ring"
    assert reducedness_status(axes_ring(F2, 3)) == "verified-monomial"
    assert reducedness_status(circle_ring(F3)) == "verified-squarefree"
    sq = GradedQuotient(F3, 2, [HomogPoly.from_ints(F3, 2, {(2, 0): 1})])
    assert reducedness_status(sq) == "not-reduced"
    mixed = GradedQuotient(F3, 3, [HomogPoly.from_ints(F3, 3, {(1, 1, 0): 1, (0, 0, 2): 1})])
    assert reducedness_status(mixed) == "unverified"


def test_dehomogenize():
    f = HomogPoly.from_ints(F3, 2, {(2, 0): 1, (0, 2): 1})
    g = dehomogenize(f, at=0)  # x = 1
    assert list(g.coefficients) == [1, 0, 1]


def test_base_change_keeps_presentation():
    R = circle_ring(F3)
    S = base_change(R, 2)
    assert S.field.order == 9
    assert [g.terms for g in S.relations] == [g.terms for g in R.relations]
    assert multiplicity(S) == multiplicity(R)


def test_base_change_reuses_slices():
    R = axes_ring(F3, 3)
    built = [R.slice(d) for d in range(4)]
    S = base_change(R, 2)
    assert S.kernel is R.kernel
    for d, data in enumerate(built):
        assert S.slice(d) is data
    # slices S builds are R's too
    assert R.slice(5) is S.slice(5)
    # xy(x+y) over GF(2): its three lines are the GF(2)-points of P^1, so
    # no GF(2)-form is a reduction and the search extends to GF(4)
    R = GradedQuotient(F2, 2, [HomogPoly(F2, 2, 3, {(2, 1): 1, (1, 2): 1})], ("x", "y"))
    red = find_linear_reduction(R)
    assert red.scalar_extension == 2 and red.ring.field.order == 4
    for d in range(multiplicity(R)[1] + 2):
        assert red.ring.slice(d) is R.slice(d), d


def test_ring_mismatch_rejected():
    f = HomogPoly.from_ints(F3, 2, {(1, 0): 1})
    g = HomogPoly.from_ints(F5, 2, {(1, 0): 1})
    with pytest.raises(FieldMismatch):
        f + g
    with pytest.raises(FieldMismatch):
        GradedQuotient(F3, 2, [g])
    with pytest.raises(FieldMismatch):
        ideal_membership(circle_ring(F3), g, [f])
    with pytest.raises(FieldMismatch):
        is_linear_reduction(circle_ring(F3), g, 2)
    # a GF(5) form is no form of a GF(3) ring, whatever its codes, and a
    # code outside GF(3) fails the slices' field check
    x2 = HomogPoly(F5, 3, 2, {(2, 0, 0): 4})
    R = axes_ring(F3, 3)
    with pytest.raises(FieldMismatch):
        R.product_map(x2, 2)
    with pytest.raises(FieldMismatch):
        R.slice(2).normal_forms(next(macaulay_matrix(3, [x2], 2))[0], R.kernel)
    with pytest.raises(FieldMismatch):
        closure_quotient_dim(axes_ring(F3, 3), HomogPoly(F5, 3, 1, {(1, 0, 0): 1}), 2)
    with pytest.raises(FieldMismatch):
        closure_quotient_dim(axes_ring(F3, 3), linear_form(axes_ring(F3, 2), [1, 1]), 2)


def test_homog_poly_rejects_codes_outside_the_field():
    with pytest.raises(ValueError):
        HomogPoly(F3, 2, 1, {(1, 0): 3})
    with pytest.raises(ValueError):
        HomogPoly(extend_field(F2, 2), 2, 1, {(1, 0): -1})


def test_reduction_form_prints_extension_coefficients():
    F4 = extend_field(F2, 2)
    f = HomogPoly(extend_field(F4, 2), 2, 1, {(1, 0): 1, (0, 1): 4})
    assert f.format(("x", "y")) == "((1, 0), (0, 0))*x + ((0, 0), (1, 0))*y"
    assert HomogPoly(F5, 2, 1, {(1, 0): 1, (0, 1): 3}).format(("x", "y")) == "x + 3*y"


def test_rings_of_one_slice_key_share_slices_and_verdicts(add_row_calls):
    # the same GF(3) relation over GF(3) and over GF(9): one slice key
    R = circle_ring(F3)
    S = circle_ring(extend_field(F3, 2))
    assert graded.slice_key(R) == graded.slice_key(S) != graded.slice_key(fermat_ring(F3, 4))
    # one code over two fields of one characteristic: two keys
    F9, F27 = extend_field(F3, 2), extend_field(F3, 3)
    assert graded.slice_key(GradedQuotient(F9, 2, [HomogPoly(F9, 2, 1, {(1, 0): 3})])) != \
        graded.slice_key(GradedQuotient(F27, 2, [HomogPoly(F27, 2, 1, {(1, 0): 3})]))
    x = linear_form(R, (1, 1))
    assert is_linear_reduction(R, x, 2)
    assert R.slice(2).verdicts == {tuple(x.terms.items()): True}
    S.slice_store = R.slice_store
    add_row_calls.clear()
    # a form over GF(3) reads the stored verdict and runs no rank test
    assert is_linear_reduction(S, linear_form(S, (1, 1)), 2)
    assert not add_row_calls
    # forms over GF(9) alone are tested afresh and not stored
    fresh = circle_ring(S.field)
    want = [is_linear_reduction(fresh, linear_form(fresh, combo), 2) for combo in ((1, 3), (1, 4))]
    add_row_calls.clear()
    assert [is_linear_reduction(S, linear_form(S, combo), 2) for combo in ((1, 3), (1, 4))] == want
    assert len(add_row_calls) == 2 and len(S.slice(2).verdicts) == 1


def test_store_charge_covers_what_dropping_it_frees():
    import gc
    rings = [
        circle_ring(F3), fermat_ring(F7, 5), axes_ring(PrimeField(2147483647), 5),
        GradedQuotient(F5, 12, [HomogPoly(F5, 12, 2, {(1, 1) + (0,) * 10: 1})]),
    ]
    for R in rings:
        R.slice(min(6, 10 // R.nvars + 1))
        for combo in itertools.islice(graded._projective_forms(R.field.order, R.nvars), 6):
            is_linear_reduction(R, linear_form(R, combo), 2)
        assert R.slice(2).verdicts
    stores = [R.slice_store for R in rings]
    charges = [graded.store_bytes(store) for store in stores]
    del rings, R
    gc.collect()
    tracemalloc.start()
    try:
        for i, charge in enumerate(charges):
            before = tracemalloc.get_traced_memory()[0]
            stores[i] = None
            gc.collect()
            freed = before - tracemalloc.get_traced_memory()[0]
            assert 0 <= freed <= charge, (i, freed, charge)
    finally:
        tracemalloc.stop()
