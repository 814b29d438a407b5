import itertools
import random
import time
from fractions import Fraction
from math import gcd, inf, prod

import numpy as np
import pytest

from frobranch.errors import CapExceeded, CertificateFailed, CompositeCharacteristic
from frobranch.semigroup import (
    AffineSemigroup,
    IntMatrixNF,
    cone_geometry,
    eventual_p_membership,
    frobenius_closure_exponent,
    frobenius_number,
    fte_bruteforce,
    is_f_nilpotent,
    membership,
    pure_insep_index,
    saturation_hilbert_basis,
    smith_normal_form,
    solve_integer,
    tight_closure_membership_monomial,
    weak_normalization,
)
from frobranch import semigroup
from reference import verify_no_certificate

PINCHED_VERONESE = AffineSemigroup([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 0, 2)])


def veronese():
    return AffineSemigroup([(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])


# -- Smith normal form --------------------------------------------------------


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]).diagonal() == [1, 6]
    assert smith_normal_form([[1, 0], [0, 1]]).diagonal() == [1, 1]
    assert smith_normal_form([[2]]).diagonal() == [2]


def test_snf_divisibility_chain():
    nf = smith_normal_form([[4, 6], [6, 10]])
    d = nf.diagonal()
    assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1) if d[i])


def test_snf_random_verified():
    # the U*M*V = D identity and unimodularity are checked at construction
    rng = random.Random(17)
    for _ in range(50):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        M = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        nf = smith_normal_form(M)
        d = nf.diagonal()
        assert all(x >= 0 for x in d)
        assert all(d[i + 1] % d[i] == 0 for i in range(len(d) - 1) if d[i])


def test_snf_matches_sympy():
    from sympy import ZZ, Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    rng = random.Random(29)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        M = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
        if rows > 1 and rng.random() < 0.3:
            M[-1] = [2 * x for x in M[0]]  # rank deficient
        ours = smith_normal_form(M).diagonal()
        D = sympy_snf(Matrix(M), domain=ZZ)
        assert ours == [abs(D[i, i]) for i in range(min(rows, cols))], M


def test_forged_snf_rejected():
    # explicit checks, not asserts, so they also run under python -O
    with pytest.raises(CertificateFailed):
        IntMatrixNF([[2]], [[1]], [[1]], [[3]], 1)
    with pytest.raises(CertificateFailed):
        IntMatrixNF([[1]], [[2]], [[1]], [[2]], 1)  # U*M*V = D but U is not unimodular


def test_solve_integer():
    nf = smith_normal_form([[2, 0], [0, 3]])
    assert solve_integer(nf, [4, 9]) == [2, 3]
    assert solve_integer(nf, [1, 0]) is None


# -- integer lattices ---------------------------------------------------------


def _leibniz_det(m):
    """Determinant by permutation expansion, independent of Smith normal form."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(m)), 2))
        total += (-1) ** inversions * prod(m[i][perm[i]] for i in range(len(m)))
    return total


def _minors(cols, r, extra=None):
    """The r x r minors of the matrix with these columns; with extra, only
    the minors that use the column extra."""
    if extra is None:
        picks = list(itertools.combinations(cols, r))
    else:
        picks = [c + (extra,) for c in itertools.combinations(cols, r - 1)]
    return [
        _leibniz_det([[c[i] for c in cs] for i in rows])
        for rows in itertools.combinations(range(len(cols[0])), r)
        for cs in picks
    ]


def _minor_rank(cols):
    """Rank of the matrix with these columns and the gcd of its minors of
    that size."""
    for r in range(min(len(cols[0]), len(cols)), 0, -1):
        minors = _minors(cols, r)
        if any(minors):
            return r, gcd(*minors)
    return 0, 0


def _lattice_oracle(cols, r, g, v):
    """Least m >= 1 with m * v in the column lattice L of M, or None when no
    multiple of v is in L.  v is in L exactly when M and [M | v] have equal
    rank and equal gcd of maximal minors; the minors of [M | m*v] that use
    the last column are m times those of [M | v]."""
    if r < len(v) and any(_minors(cols, r + 1, v)):
        return None
    h = gcd(*_minors(cols, r, v))
    return next((m for m in range(1, 1001) if m * h % g == 0), None)


def _random_generators(rng):
    """Generators in N^n, n <= 4, k <= 8; some span a proper subspace, some
    a lattice that is not saturated."""
    n = rng.randint(1, 4)
    k = rng.randint(1, 8)
    gens = [[rng.randint(0, 5) for _ in range(n)] for _ in range(k)]
    shape = rng.randrange(4)
    if shape == 1 and n > 1:
        # rank deficient: the last coordinate repeats the sum of the others
        gens = [g[:-1] + [sum(g[:-1])] for g in gens]
    elif shape == 2:
        # not saturated: every generator is a multiple of a common factor
        c = rng.randint(2, 3)
        gens = [[c * x for x in g] for g in gens]
    if not any(any(g) for g in gens):
        gens[0][0] = 1
    return gens


def test_lattice_questions_match_a_minor_oracle():
    rng = random.Random(41)
    deficient = unsaturated = 0
    for _ in range(200):
        A = AffineSemigroup(_random_generators(rng))
        n, cols = A.n, A.generators
        r, g = _minor_rank(cols)
        nf = A.lattice_nf()
        assert nf.rank == r
        deficient += r < n
        unsaturated += g > 1
        eqs = cone_geometry(A)[1]
        assert len(eqs) == n - r
        assert all(sum(w[i] * c[i] for i in range(n)) == 0 for w in eqs for c in cols)
        for _ in range(6):
            if rng.random() < 0.5:
                coeffs = [rng.randint(-3, 3) for _ in cols]
                v = tuple(sum(a * c[i] for a, c in zip(coeffs, cols)) for i in range(n))
                if rng.random() < 0.5:
                    v = tuple(x + rng.randint(-1, 1) for x in v)
            else:
                v = tuple(rng.randint(-6, 6) for _ in range(n))
            order = _lattice_oracle(cols, r, g, v)
            assert A.in_lattice(v) == (order == 1), (cols, v)
            x = solve_integer(nf, v)
            assert (x is not None) == (order == 1), (cols, v)
            if x is not None:
                assert [sum(a * c[i] for a, c in zip(x, cols)) for i in range(n)] == list(v)
            assert semigroup._torsion_order(nf, v) == order, (cols, v)
    assert deficient > 20 and unsaturated > 20


def test_lattice_membership_is_fast_on_many_generators():
    rng = random.Random(5)
    gens = set()
    while len(gens) < 60:
        g = tuple(rng.randint(0, 4) for _ in range(4))
        if any(g):
            gens.add(g)
    A = AffineSemigroup(gens)
    A.lattice_nf()
    points = [tuple(rng.randint(0, 40) for _ in range(4)) for _ in range(20_000)]
    start = time.perf_counter()
    for v in points:
        A.in_lattice(v)
    assert time.perf_counter() - start < 1


# -- membership ---------------------------------------------------------------


def test_membership_numerical():
    A = AffineSemigroup([(2,), (3,)])
    assert not membership(A, (1,))
    assert membership(A, (5,))
    assert membership(A, (0,))
    assert all(membership(A, (a,)) for a in range(2, 50))


def test_membership_pinched_veronese():
    assert not membership(PINCHED_VERONESE, (0, 1, 1))
    assert membership(PINCHED_VERONESE, (0, 2, 2))
    assert membership(PINCHED_VERONESE, (1, 1, 0))
    assert not membership(PINCHED_VERONESE, (1, 0, 0))


def test_membership_closed_under_addition():
    rng = random.Random(3)
    A = PINCHED_VERONESE
    gens = A.generators
    for _ in range(40):
        a = tuple(sum(x) for x in zip(*(rng.choice(gens) for _ in range(rng.randint(1, 4)))))
        b = tuple(sum(x) for x in zip(*(rng.choice(gens) for _ in range(rng.randint(1, 4)))))
        assert membership(A, a) and membership(A, b)
        assert membership(A, tuple(x + y for x, y in zip(a, b)))


def test_membership_matches_a_reachability_closure():
    # an independent oracle for n >= 2: the box points reachable from 0 by
    # the generators, by dynamic programming in lexicographic order (v - g
    # comes before v for every nonzero g in N^n); every memo entry the
    # walks leave in the box agrees with it, and warm answers do not change
    rng = random.Random(32)
    side, members, points = 12, 0, 0
    for case in range(30):
        n = 2 + case % 2
        gens = [tuple(rng.randint(0, 4) for _ in range(n)) for _ in range(rng.randint(3, 6))]
        gens = [g for g in gens if any(g)] or [(1,) * n]
        A = AffineSemigroup(gens)
        box = list(itertools.product(range(side), repeat=n))
        reach = {}
        for v in box:
            reach[v] = not any(v) or any(
                reach.get(tuple(a - b for a, b in zip(v, g)), False) for g in A.generators
            )
        order = box[:]
        rng.shuffle(order)
        for warm in (False, True):
            assert {v: membership(A, v) for v in order} == reach, (A, warm)
            assert all(reach[v] == known for v, known in A._member_cache.items() if max(v) < side), A
        members, points = members + sum(reach.values()), points + len(box)
        assert A._member_cache
    assert 0 < members < points


def test_frobenius_number():
    assert frobenius_number(AffineSemigroup([(2,), (3,)])) == 1
    assert frobenius_number(AffineSemigroup([(1,)])) == -1
    assert frobenius_number(AffineSemigroup([(3,), (5,)])) == 7


def _reachable(gens, bound):
    table = [False] * (bound + 1)
    table[0] = True
    for i in range(bound + 1):
        if table[i]:
            for g in gens:
                if i + g <= bound:
                    table[i + g] = True
    return table


def test_apery_list_matches_reachability_table():
    rng = random.Random(59)
    for _ in range(200):
        c = rng.choice((1, 1, 1, 2, 3))  # some sets with gcd > 1
        gens = sorted({c * rng.randint(1, 60 // c) for _ in range(rng.randint(2, 5))})
        A = AffineSemigroup([(g,) for g in gens])
        top = max(gens)
        table = _reachable(gens, top * top + 3 * top)
        window = range(-5, 3 * top + 1)
        assert [membership(A, (a,)) for a in window] == [a >= 0 and table[a] for a in window], gens
        step = gcd(*gens)
        reduced = AffineSemigroup([(g // step,) for g in gens])
        frob = max((i for i, hit in enumerate(table[::step]) if not hit), default=-1)
        assert frobenius_number(reduced) == frob, gens
        conductor = frob + 1
        assert conductor == 0 or not membership(reduced, (conductor - 1,))
        assert all(membership(reduced, (a,)) for a in range(conductor, conductor + top))
        if step > 1:
            with pytest.raises(ValueError):
                frobenius_number(A)


def _apery_round_robin(gens):
    """The round-robin loop of Boecker and Liptak, one residue at a time:
    the reference for the prefix-min scan of semigroup._apery_list."""
    m = gens[0]
    apery = [0] + [inf] * (m - 1)
    for g in gens[1:]:
        d = gcd(m, g)
        for r in range(d):
            # one round through the residue class r mod d, starting at its
            # least known element; adding g cycles through the whole class
            n = min(apery[r::d])
            if n == inf:
                continue
            for _ in range(m // d - 1):
                n += g
                q = n % m
                n = min(n, apery[q])
                apery[q] = n
    return apery


def test_apery_scan_matches_the_round_robin_loop():
    rng = random.Random(2007)
    cases = [[5, 7, 2**64 + 3], [3, 2**64 + 1], [4, 6, 2**63 - 1, 2**63 + 1], [12, 18, 20, 27]]
    while len(cases) < 200:
        m = rng.choice((6, 12, 24, 30, 36, rng.randint(2, 60)))
        gens = sorted({m, *(rng.randint(m + 1, 4 * m) for _ in range(rng.randint(1, 4)))})
        if gcd(*gens) != 1:  # the Apery list needs gcd 1
            gens.append(gens[-1] + 1)
        cases.append(gens)
    shared = 0
    for gens in cases:
        got = semigroup._apery_list(gens)
        assert got.tolist() == _apery_round_robin(gens), gens
        assert (got.dtype == np.int64) == (max(got.tolist()) < 2**63), gens
        shared += any(gcd(gens[0], g) > 1 for g in gens[1:])
    assert shared >= 50  # cycles shorter than the least generator


def _two_generator_member(a, b, n):
    return any((n - y * b) % a == 0 for y in range(n // b + 1))


@pytest.mark.parametrize(
    "gens, p, e0", [((2971, 3000), 2, 15), ((2381, 2400), 3, 14), ((3000, 3001), 2, 21)]
)
def test_exact_e0_past_the_exponent_cap(gens, p, e0):
    # p^e in A implies p^(e+1) in A, so e0 is pinned by its two neighbours;
    # each lies past 12, the exponent cap the CLI once had
    assert _two_generator_member(*gens, p**e0)
    assert not _two_generator_member(*gens, p ** (e0 - 1))
    rep = is_f_nilpotent(AffineSemigroup([(g,) for g in gens]), p)
    assert rep.verdict == "f-nilpotent" and rep.e0 == e0 > 12


def test_numerical_saturation_needs_no_generator_sized_table():
    start = time.perf_counter()
    A = AffineSemigroup([(6 * 10**12,), (10 * 10**12,), (15 * 10**12,)])
    assert saturation_hilbert_basis(A) == ((10**12,),)
    assert weak_normalization(A, 2) == ((10**12,),)
    B = AffineSemigroup([(10**12,), (10**12 + 1,)])
    assert saturation_hilbert_basis(B) == ((1,),)
    assert weak_normalization(B, 3) == weak_normalization(AffineSemigroup([(1,)]), 3)
    # only membership needs the Apery list, which is refused before allocation
    with pytest.raises(CapExceeded):
        membership(B, (5,))
    assert time.perf_counter() - start < 2


# -- cone geometry ------------------------------------------------------------


def test_cone_facets_ray():
    assert cone_geometry(AffineSemigroup([(2,), (3,)])) == ([(1,)], [])


def test_cone_facets_pinched_veronese():
    assert cone_geometry(PINCHED_VERONESE) == ([(0, 0, 1), (0, 1, 0), (1, 0, 0)], [])


def test_cone_facets_two_rays():
    assert cone_geometry(AffineSemigroup([(1, 0), (1, 2)])) == ([(0, 1), (2, -1)], [])


def test_cone_facets_lower_dimensional_cone():
    # a single ray in the plane: one span equation cuts out its line
    facets, eqs = cone_geometry(AffineSemigroup([(1, 1)]))
    assert len(eqs) == 1
    for g in ((1, 1), (3, 3)):
        assert all(sum(w[i] * g[i] for i in range(2)) >= 0 for w in facets)
        assert all(sum(w[i] * g[i] for i in range(2)) == 0 for w in eqs)
    assert any(sum(w[i] * (2, 1)[i] for i in range(2)) != 0 for w in eqs)


def _kernel_sweep_facets(A):
    """Facets by the SNF-kernel subset sweep: for each (r-1)-subset of the
    generators of rank r - 1, the first column of V past the rank whose
    dots with the generators are not all zero gives a facet when they are
    single-signed.  Kept as the oracle of the cofactor normals."""
    gens, n = A.generators, A.n
    r = A.lattice_nf().rank
    facets, seen = [], set()
    for subset in itertools.combinations(gens, r - 1):
        if subset:
            nf = smith_normal_form([list(g) for g in subset])
            if nf.rank != r - 1:
                continue
            kernel = [tuple(row[j] for row in nf.V) for j in range(r - 1, n)]
        else:
            kernel = [tuple(int(i == j) for j in range(n)) for i in range(n)]
        for b in kernel:
            dots = [sum(x * y for x, y in zip(b, g)) for g in gens]
            if not any(dots):
                continue
            if min(dots) >= 0 or max(dots) <= 0:
                w = b if max(dots) > 0 else tuple(-x for x in b)
                pattern = _pattern(w, gens)
                if pattern not in seen:
                    seen.add(pattern)
                    facets.append(w)
            break
    return sorted(facets)


def _pattern(w, gens):
    """Primitive dot vector of a functional on the generators."""
    dots = [sum(x * y for x, y in zip(w, g)) for g in gens]
    g0 = gcd(*dots)
    return tuple(d // g0 for d in dots)


def test_cofactor_facets_match_the_kernel_sweep():
    # r = n: the primitive normal is unique, so the vectors agree; r < n:
    # the cofactor normal is the one in the span, and the facets agree as
    # functionals on the generators
    rng = random.Random(67)
    full = deficient = 0
    for _ in range(320):
        A = AffineSemigroup(_random_generators(rng))
        facets, eqs = cone_geometry(A)
        expected = _kernel_sweep_facets(A)
        if eqs:
            deficient += 1
            patterns = [_pattern(w, A.generators) for w in facets]
            assert sorted(patterns) == sorted(_pattern(w, A.generators) for w in expected), A
            assert len(set(patterns)) == len(patterns)
        else:
            full += 1
            assert facets == expected, A
        zeros = [[semigroup._dot(w, g) == 0 for g in A.generators] for w in facets]
        assert A._zeros.tolist() == zeros, A
    assert full >= 150 and deficient >= 50


def _vertex_pinched_veronese(rng):
    """Degree-2 Veronese in 4 variables with one or two vertices 2*e_i
    replaced by 2m*e_i and 2(m+1)*e_i: 10 to 12 generators."""
    gens = [m for m in itertools.product(range(3), repeat=4) if sum(m) == 2]
    for i in rng.sample(range(4), rng.randint(1, 2)):
        m = rng.randint(2, 5)
        gens = [g for g in gens if g[i] != 2]
        gens += [tuple(2 * k * (j == i) for j in range(4)) for k in (m, m + 1)]
    return gens


def test_batched_facets_match_the_kernel_sweep_past_int64(monkeypatch):
    # each generator scaled by 2^20..2^40 leaves the cone as it is, while
    # the cofactor bound passes 2^63 for many of them: the contraction then
    # runs on Python ints, and the facets must not change
    rng = random.Random(71)
    dtypes = []
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda *args: dtypes.append(args[-1].dtype) or einsum(*args))
    for trial in range(160):
        if trial % 4 == 0:
            gens = _vertex_pinched_veronese(rng) if trial % 8 else [
                [rng.randint(0, 5) for _ in range(4)] for _ in range(rng.randint(10, 12))
            ]
        else:
            n = rng.randint(2, 4)
            gens = [[rng.randint(0, 5) for _ in range(n)] for _ in range(rng.randint(n - 1, 7))]
            if rng.random() < 0.3:
                gens = [g[:-1] + [sum(g[:-1])] for g in gens]
            shifts = [rng.randint(20, 40) for _ in gens]
            gens = [[x << s for x in g] for g, s in zip(gens, shifts)]
        if not any(any(g) for g in gens):
            continue
        A = AffineSemigroup(gens)
        facets, eqs = cone_geometry(A)
        expected = _kernel_sweep_facets(A)
        if eqs:
            patterns = sorted(_pattern(w, A.generators) for w in facets)
            assert patterns == sorted(_pattern(w, A.generators) for w in expected), A
        else:
            assert facets == expected, A
    assert dtypes.count(object) >= 80 and dtypes.count(np.int64) >= 30


def test_cone_facets_dimension_cap():
    with pytest.raises(CapExceeded):
        cone_geometry(AffineSemigroup([(1, 0, 0, 0, 0)]))


# -- saturation ---------------------------------------------------------------


def test_saturation_numerical():
    assert saturation_hilbert_basis(AffineSemigroup([(2,), (3,)])) == ((1,),)


def test_saturation_pinched_veronese():
    hb = saturation_hilbert_basis(PINCHED_VERONESE)
    assert hb == ((0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0), (2, 0, 0))


def test_saturation_already_saturated():
    V = veronese()
    assert set(saturation_hilbert_basis(V)) == set(V.generators)


def _proven_bounds(gens):
    r = np.linalg.matrix_rank(np.array(gens))
    return [sum(sorted((g[i] for g in gens), reverse=True)[:r]) for i in range(len(gens[0]))]


def _box_saturation(A, bounds):
    """Indicator array of the nonzero points of group(A) ∩ cone(A) in the
    box [0, bounds], the lattice test read off the Smith normal form."""
    grid = np.indices([b + 1 for b in bounds]).reshape(A.n, -1)
    facets, eqs = cone_geometry(A)
    ok = np.ones(grid.shape[1], dtype=bool)
    for w in facets:
        ok &= np.array(w) @ grid >= 0
    for w in eqs:
        ok &= np.array(w) @ grid == 0
    nf = A.lattice_nf()
    ub = np.array(nf.U) @ grid
    for i in range(A.n):
        d = nf.D[i][i] if i < len(A.generators) else 0
        ok &= ub[i] == 0 if d == 0 else ub[i] % d == 0
    ok[0] = False
    return ok.reshape([b + 1 for b in bounds])


def _box_minimal(points):
    """Points of the indicator array that are not a sum of two of its
    points.  The smaller summand has at most half the top degree, so only
    those points are shifted."""
    split = np.zeros_like(points)
    half = sum(s - 1 for s in points.shape) / 2
    for u in np.argwhere(points):
        if u.sum() > half:
            continue
        target = tuple(slice(int(a), None) for a in u)
        source = tuple(slice(None, s - int(a)) for a, s in zip(u, points.shape))
        split[target] |= points[source]
    return {tuple(int(x) for x in v) for v in np.argwhere(points & ~split)}


def _random_semigroups(seed, count, volume_cap, tops):
    """n + 1 or n + 2 generators in N^n (n generators would span a normal
    semigroup) with entries up to tops[n], cycling n = 2, 3, 4, kept to a
    doubled box of at most volume_cap points."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = (2, 3, 4)[len(out) % 3]
        top = tops[n]
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 2))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        volume = 1
        for b in _proven_bounds(gens):
            volume *= 2 * b + 1
        if volume <= volume_cap:
            out.append(AffineSemigroup(gens))
    return out


def test_hilbert_basis_matches_a_box_twice_the_bound():
    # minimal saturation points of a box twice the proven one, found by
    # vectorized enumeration and shifted sums: the proven box misses nothing
    beyond_max = 0
    for A in _random_semigroups(5, 42, 30000, {2: 10, 3: 5, 4: 3}):
        bounds = _proven_bounds(A.generators)
        expected = _box_minimal(_box_saturation(A, [2 * b for b in bounds]))
        assert set(saturation_hilbert_basis(A)) == expected, A
        assert all(h[i] <= bounds[i] for h in expected for i in range(A.n))
        tops = [max(g[i] for g in A.generators) for i in range(A.n)]
        beyond_max += any(h[i] > tops[i] for h in expected for i in range(A.n))
    # the cases exercise the bound: some basis element passes the largest
    # generator coordinate
    assert beyond_max >= 5


def test_box_mask_and_minimal_points_match_the_point_loop():
    # the whole-box tests against in_cone and in_lattice point by point, and
    # the shifted-mask minimal points against peeling by set lookups, in
    # the same (degree, point) order
    rng = random.Random(71)
    cases = deficient = 0
    while cases < 60:
        A = AffineSemigroup(_random_generators(rng))
        if A.n == 1 or prod(b + 1 for b in _proven_bounds(A.generators)) > 1500:
            continue
        cases += 1
        deficient += bool(cone_geometry(A)[1])
        mask = semigroup._saturation_points(A)
        box = itertools.product(*(range(s) for s in mask.shape))
        points = {v for v in box if any(v) and A.in_cone(v) and A.in_lattice(v)}
        assert {tuple(v) for v in np.argwhere(mask).tolist()} == points, A
        expected = []
        for v in sorted(points, key=lambda u: (sum(u), u)):
            if not any(tuple(b - a for a, b in zip(h, v)) in points for h in expected):
                expected.append(v)
        assert semigroup._minimal_elements(mask) == expected, A
    assert deficient >= 10


def test_long_thin_cone_hilbert_basis():
    # the cone between the rays of (1,0) and (1,440) holds the 441 minimal
    # points (1, j); the generator (440,1) inside it does not widen the box
    A = AffineSemigroup([(440, 1), (1, 440), (1, 0)])
    assert saturation_hilbert_basis(A) == tuple((1, j) for j in range(441))
    assert semigroup._saturation_points(A).shape == (3, 441)
    # long extremal generators: a 442 x 442 box holding 194479 saturation
    # points, of which only the 879 points (1, j) and (j, 1) are minimal
    B = AffineSemigroup([(1, 1), (2, 1), (1, 440), (440, 1)])
    assert semigroup._extremal_generators(B) == [(1, 440), (440, 1)]
    basis = {(1, j) for j in range(1, 441)} | {(j, 1) for j in range(1, 441)}
    assert saturation_hilbert_basis(B) == tuple(sorted(basis))
    points = semigroup._saturation_points(B)
    assert points.shape == (442, 442) and int(points.sum()) == 194479


def test_saturation_box_refuses_products_past_int64(monkeypatch):
    # the extremal generators of <(1,0), (1,2), (5,2)> are (1,0) and (1,2),
    # so the box is [0,2]^2 while (5,2) alone would pass it; the lattice is
    # y even.  Forged facets put the largest product at 2^63 - 2, then at 2^63
    A = AffineSemigroup([(1, 0), (1, 2), (5, 2)])
    cone_geometry(A)  # the zero patterns the extremal generators are read from
    monkeypatch.setattr(semigroup, "cone_geometry", lambda A: ([(2**62 - 2, -1)], []))
    mask = semigroup._saturation_points(A)
    assert {tuple(v) for v in np.argwhere(mask).tolist()} == {(1, 0), (2, 0), (1, 2), (2, 2)}
    monkeypatch.setattr(semigroup, "cone_geometry", lambda A: ([(2**62 - 1, -1)], []))
    monkeypatch.setattr(semigroup.np, "indices", lambda shape: pytest.fail("box allocated"))
    with pytest.raises(CapExceeded, match="int64"):
        semigroup._saturation_points(A)


def _angle_extremes(gens):
    """For n = 2: the least generator on each of the rays of least and
    largest slope y / x."""
    def slope(g):
        return Fraction(g[1], g[0]) if g[0] else inf
    slopes = [slope(g) for g in gens]
    return sorted({min(g for g in gens if slope(g) == s) for s in (min(slopes), max(slopes))})


def test_extremal_box_matches_the_all_generator_box():
    # the Hilbert basis from the box over the extremal generators E against
    # the minimal saturation points of the box over every generator; some
    # cases put several generators on one extremal ray, some a generator
    # inside the cone that passes the E-bound in a coordinate
    rng = random.Random(29)
    cases = shared_ray = sticks_out = 0
    while cases < 210:
        n = (2, 3, 4)[cases % 3]
        top = {2: 4, 3: 2, 4: 1}[n]
        gens = [tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(n, n + 1))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        if rng.random() < 0.4:
            g = rng.choice(gens)
            gens.append(tuple(rng.randint(2, 3) * x for x in g))
        if rng.random() < 0.6:
            terms = [rng.choice(gens) for _ in range(rng.randint(2, 4))]
            gens.append(tuple(map(sum, zip(*terms))))
        if prod(b + 1 for b in _proven_bounds(gens)) > 6000:
            continue
        A = AffineSemigroup(gens)
        cases += 1
        extremal = semigroup._extremal_generators(A)
        if n == 2:
            assert extremal == _angle_extremes(A.generators), A
        expected = _box_minimal(_box_saturation(A, _proven_bounds(A.generators)))
        assert set(saturation_hilbert_basis(A)) == expected, A
        rays = {tuple(x // gcd(*e) for x in e) for e in extremal}
        on_rays = [g for g in A.generators if tuple(x // gcd(*g) for x in g) in rays]
        shared_ray += len(on_rays) > len(extremal)
        bounds = semigroup._saturation_points(A).shape
        inside = [g for g in A.generators if g not in on_rays]
        sticks_out += any(g[i] >= bounds[i] for g in inside for i in range(n))
    assert shared_ray >= 50 and sticks_out >= 50, (shared_ray, sticks_out)


def test_weak_normalization_matches_a_box_twice_the_bound():
    # small entries: eventual_p_membership's descent grows with p^e * v
    vertex_pinched = AffineSemigroup([(12, 0), (16, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    cases = _random_semigroups(11, 12, 3000, {2: 4, 3: 2, 4: 1}) + [PINCHED_VERONESE, vertex_pinched]
    for A in cases:
        for p in (2, 3):
            wn = weak_normalization(A, p)
            points = _box_saturation(A, [2 * b for b in _proven_bounds(A.generators)])
            for v in np.argwhere(points):
                if eventual_p_membership(A, tuple(int(x) for x in v), p).status != "yes":
                    points[tuple(v)] = False
            assert set(wn) == _box_minimal(points), (A, p)


# -- eventual p-power membership ----------------------------------------------


def test_eventual_p_membership_gap():
    A = AffineSemigroup([(2,), (3,)])
    res = eventual_p_membership(A, (1,), 2)
    assert res.status == "yes" and res.e == 1


def test_eventual_p_membership_generator():
    for g in PINCHED_VERONESE.generators:
        for p in (2, 3, 5):
            res = eventual_p_membership(PINCHED_VERONESE, g, p)
            assert res.status == "yes" and res.e == 0


def test_eventual_p_membership_no_certificate():
    res = eventual_p_membership(PINCHED_VERONESE, (0, 1, 1), 3)
    assert res.status == "no"
    cert = res.certificate
    assert cert["torsion_order"] == 2
    assert [1, 0, 0] in cert["vanishing_facets"]
    assert verify_no_certificate(PINCHED_VERONESE, (0, 1, 1), 3, cert)


def test_no_certificate_check_has_no_exponent_cap():
    # 2^13 * 1 lies in 8192*Z, past any small exponent cap; 2^e * 1 never
    # lies in 6*Z, and 3^e * 1 never in 8192*Z
    A = AffineSemigroup([(8192,), (8193,)])
    for gens, p, sound in (([[8192]], 2, False), ([[4096]], 2, False), ([[6]], 2, True), ([[8192]], 3, True),
                           ([], 2, True)):
        assert verify_no_certificate(A, (1,), p, {"face_generators": gens}) is sound, (gens, p)
    assert not verify_no_certificate(A, (0,), 2, {"face_generators": []})


def test_interior_point_reuses_the_semigroup_snf(monkeypatch):
    A = AffineSemigroup(PINCHED_VERONESE.generators)
    cone_geometry(A)  # caches the facets and A.lattice_nf()
    calls = []
    snf = semigroup.smith_normal_form
    monkeypatch.setattr(semigroup, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    # no facet of the positive orthant vanishes at (1, 1, 1), whose
    # coordinate sum is odd while every generator's is even
    assert eventual_p_membership(A, (1, 1, 1), 2).status == "yes"
    res = eventual_p_membership(A, (1, 1, 1), 3)
    assert res.status == "no" and res.certificate["torsion_order"] == 2
    assert res.certificate["face_generators"] == [list(g) for g in A.generators]
    assert calls == []
    assert verify_no_certificate(A, (1, 1, 1), 3, res.certificate)


def test_one_snf_per_vanishing_facet_set(monkeypatch):
    # the degree-2 Veronese in 3 variables with the vertex (2,0,0) replaced
    # by (4,0,0) and (6,0,0): the lattice SNF, then one per face met by a
    # Hilbert basis element, and none per subset of generators
    calls = []
    snf = semigroup.smith_normal_form
    monkeypatch.setattr(semigroup, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    A = AffineSemigroup([(4, 0, 0), (6, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    rep = pure_insep_index(A, 2)
    assert rep.verdict == "f-nilpotent" and rep.e0 == 1
    facets = cone_geometry(A)[0]
    faces = {tuple(w for w in facets if sum(x * y for x, y in zip(w, h)) == 0) for h in rep.hilbert_basis}
    assert len(faces) == 6 and len(calls) <= 1 + len(faces)
    calls.clear()
    assert pure_insep_index(A, 3).verdict == "f-nilpotent"
    assert calls == []


def test_elements_of_a_make_no_face_snf(monkeypatch):
    # Hilbert basis elements that are generators of A, on faces of every
    # dimension, answer e = 0 by membership before any face lattice
    A = AffineSemigroup([(4, 0, 0), (6, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)])
    basis = saturation_hilbert_basis(A)
    calls = []
    snf = semigroup.smith_normal_form
    monkeypatch.setattr(semigroup, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    in_a = [h for h in basis if h in A.generators]
    assert len(in_a) == 5
    for h in in_a:
        for p in (2, 3):
            assert eventual_p_membership(A, h, p) == semigroup.PMembership("yes", 0)
    assert calls == [] and A._faces == {}


def test_numerical_multiples_of_the_gcd_take_no_snf(monkeypatch):
    calls = []
    snf = semigroup.smith_normal_form
    monkeypatch.setattr(semigroup, "smith_normal_form", lambda M: calls.append(M) or snf(M))
    A = AffineSemigroup([(4,), (6,)])
    assert eventual_p_membership(A, (2,), 2) == semigroup.PMembership("yes", 1)
    assert eventual_p_membership(A, (14,), 7) == semigroup.PMembership("yes", 0)
    assert eventual_p_membership(A, (2,), 3) == semigroup.PMembership("yes", 1)
    assert pure_insep_index(A, 5).e0 == 1
    assert calls == [] and A._lattice_nf is None
    # 3 has order 2 modulo 2 * Z: its certificate still rests on the SNF
    no = eventual_p_membership(A, (3,), 3)
    assert no.status == "no" and no.certificate["torsion_order"] == 2
    assert verify_no_certificate(A, (3,), 3, no.certificate)
    assert eventual_p_membership(A, (3,), 2) == semigroup.PMembership("yes", 1)
    assert len(calls) >= 1


def _face_lattice_first(A, v, p):
    """(status, e) of eventual p-power membership with the face lattice
    asked first: the order of v modulo the lattice of the generators on
    its minimal face from maximal minors, then walks in A from e = 0 up to
    e = 40."""
    if not any(v):
        return "yes", 0
    facets = cone_geometry(A)[0]
    vanishing = [w for w in facets if semigroup._dot(w, v) == 0]
    face = [g for g in A.generators if all(semigroup._dot(w, g) == 0 for w in vanishing)]
    order = _lattice_oracle(face, *_minor_rank(face), v) if face else None
    while order is not None and order % p == 0:
        order //= p
    if order != 1:
        return "no", None
    for e in range(41):
        if membership(A, tuple(p**e * x for x in v)):
            return "yes", e
    return "undetermined", None


def test_per_element_matches_the_face_lattice_first_order():
    # the rays' exponents come from Apery lists, the oracle's from walks
    vertex_pinched = AffineSemigroup([(12, 0), (16, 0), (3, 1), (2, 2), (1, 3), (0, 4)])
    cases = _random_semigroups(13, 30, 3000, {2: 4, 3: 2, 4: 1}) + [PINCHED_VERONESE, vertex_pinched]
    statuses, verdicts = set(), set()
    for A in cases:
        for p in (2, 3):
            rep = pure_insep_index(A, p)
            got = {h: (res.status, res.e) for h, res in rep.per_element.items()}
            assert got == {h: _face_lattice_first(A, h, p) for h in rep.hilbert_basis}, (A, p)
            statuses |= {status for status, _ in got.values()}
            verdicts.add(rep.verdict)
    assert statuses == {"yes", "no"}
    assert verdicts == {"f-nilpotent", "not-f-nilpotent"}


@pytest.mark.parametrize("m, e0", [(500, 16), (5000, 24)])
def test_ray_exponent_has_a_closed_form(m, e0):
    # the saturation is N^2 with basis (0,1) in A and (1,0) on the ray of
    # <m, m+1>, so e0 is the least e with 2^e in <m, m+1>
    least = 0
    while not _two_generator_member(m, m + 1, 2**least):
        least += 1
    assert least == e0
    start = time.perf_counter()
    rep = is_f_nilpotent(AffineSemigroup([(m, 0), (m + 1, 0), (0, 1), (1, 1)]), 2)
    assert time.perf_counter() - start < 1
    assert rep.verdict == "f-nilpotent" and rep.e0 == e0
    assert rep.per_element == {(0, 1): semigroup.PMembership("yes", 0), (1, 0): semigroup.PMembership("yes", e0)}


def test_forged_torsion_order_not_in_the_lattice(monkeypatch):
    # (0,1,1) has order 2 modulo its face lattice, so 3 * (0,1,1) is not in it
    monkeypatch.setattr(semigroup, "_torsion_order", lambda *args: 3)
    with pytest.raises(CertificateFailed, match="is not in the face lattice"):
        eventual_p_membership(PINCHED_VERONESE, (0, 1, 1), 2)


def test_eventual_p_membership_outside_n_terminates():
    A = AffineSemigroup([(2,), (3,)])
    start = time.perf_counter()
    for bad in ((-1,), (-6,), (1, 1)):
        with pytest.raises(ValueError):
            eventual_p_membership(A, bad, 2)
    # (1, 0) lies in the lattice Z^2 of <(0,1), (1,1)> but outside its
    # cone {0 <= x <= y}, so no exponent walk could ever stop there
    with pytest.raises(ValueError, match="not in the cone"):
        eventual_p_membership(AffineSemigroup([(0, 1), (1, 1)]), (1, 0), 2)
    assert time.perf_counter() - start < 2


def test_eventual_p_membership_monotone():
    rng = random.Random(23)
    A = PINCHED_VERONESE
    for v in saturation_hilbert_basis(A):
        for p in (2, 3):
            res = eventual_p_membership(A, v, p)
            if res.status == "yes":
                q = p ** (res.e + 1)
                assert membership(A, tuple(q * x for x in v))


# -- F-nilpotence -------------------------------------------------------------


def test_pinched_veronese_verdicts():
    rep2 = is_f_nilpotent(PINCHED_VERONESE, 2)
    assert rep2.verdict == "f-nilpotent" and rep2.e0 == 1
    for p in (3, 5, 7):
        rep = is_f_nilpotent(PINCHED_VERONESE, p)
        assert rep.verdict == "not-f-nilpotent"
        assert rep.witness == (0, 1, 1)
        assert verify_no_certificate(PINCHED_VERONESE, rep.witness, p, rep.certificate)


def test_cusp_f_nilpotent():
    A = AffineSemigroup([(2,), (3,)])
    for p in (2, 5):
        rep = is_f_nilpotent(A, p)
        assert rep.verdict == "f-nilpotent" and rep.e0 == 1


@pytest.mark.parametrize("p", [0, 1, 4])
def test_library_rejects_invalid_characteristic(p):
    # unchecked, p = 1 divides by 1 forever in the torsion-order test and
    # p = 4 answers f-nilpotent
    A = AffineSemigroup([(2,), (3,)])
    start = time.perf_counter()
    for call in (is_f_nilpotent, pure_insep_index, weak_normalization):
        with pytest.raises(CompositeCharacteristic):
            call(A, p)
    with pytest.raises(CompositeCharacteristic):
        eventual_p_membership(A, (0,), p)
    with pytest.raises(CompositeCharacteristic):
        fte_bruteforce(A, p, [3])
    assert time.perf_counter() - start < 2


def test_large_prime_is_validated_once():
    # trial division of a prime near 2^31 takes milliseconds, too long to
    # repeat for each of the 449 saturation points in the box of the
    # pinched Veronese in four variables
    gens = [m for m in itertools.product(range(3), repeat=4) if sum(m) == 2 and m != (0, 1, 1, 0)]
    start = time.perf_counter()
    weak_normalization(AffineSemigroup(gens), 2147483629)
    assert time.perf_counter() - start < 0.6


def test_saturated_semigroup_index_zero():
    rep = pure_insep_index(veronese(), 3)
    assert rep.verdict == "f-nilpotent" and rep.e0 == 0


def test_pure_insep_index_attained():
    rep = is_f_nilpotent(PINCHED_VERONESE, 2)
    exps = [r.e for r in rep.per_element.values() if r.status == "yes"]
    assert max(exps) == rep.e0


def test_weak_normalization():
    A = AffineSemigroup([(2,), (3,)])
    assert weak_normalization(A, 2) == ((1,),)
    assert set(weak_normalization(PINCHED_VERONESE, 2)) == set(saturation_hilbert_basis(PINCHED_VERONESE))
    assert set(weak_normalization(PINCHED_VERONESE, 3)) == set(PINCHED_VERONESE.generators)


def test_weak_normalization_sandwich():
    # A <= *A <= saturation, at the level of generator sets
    for p in (2, 3, 5):
        wn = weak_normalization(PINCHED_VERONESE, p)
        star = AffineSemigroup(wn)
        for g in PINCHED_VERONESE.generators:
            assert membership(star, g)
        sat = PINCHED_VERONESE
        for g in wn:
            assert sat.in_cone(g) and sat.in_lattice(g)


def test_star_generators_pairwise_sums():
    wn = weak_normalization(PINCHED_VERONESE, 2)
    for a in wn:
        for b in wn:
            s = tuple(x + y for x, y in zip(a, b))
            assert eventual_p_membership(PINCHED_VERONESE, s, 2).status == "yes"


# -- tight closure and Fte ----------------------------------------------------


def test_tight_closure_cusp():
    A = AffineSemigroup([(2,), (3,)])
    assert tight_closure_membership_monomial(A, [(3,)], (4,))
    assert not tight_closure_membership_monomial(A, [(3,)], (2,))
    assert tight_closure_membership_monomial(A, [(3,)], (3,))


def _bracket_power_at_e0(A, p, ideal, u, e0):
    """x^u in I^F by one bracket-power test: p^e0 * (u - v) in A for some
    generator v of I, as I* = I^F and Fte I <= e0 when k[A] is
    F-nilpotent; walks in A at p^e0 times the difference."""
    q = p**e0
    return any(membership(A, tuple(q * (a - b) for a, b in zip(u, v))) for v in ideal)


def test_tight_closure_cone_test_matches_the_bracket_power_at_e0():
    # beyond[n]: requests in I* but not in I, in dimension n
    rng = random.Random(3517)
    checked, beyond = 0, {1: 0, 2: 0, 3: 0}
    while checked < 400:
        n = rng.choice((1, 2, 3))
        top = (12, 4, 2)[n - 1]
        gens = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))}
        gens = sorted(gens - {(0,) * n})
        if len(gens) < n:
            continue
        A = AffineSemigroup(gens)
        p = rng.choice((2, 3))
        rep = is_f_nilpotent(A, p)
        if rep.verdict != "f-nilpotent":
            continue
        members = sorted({tuple(map(sum, zip(*c))) for k in (1, 2, 3) for c in itertools.combinations_with_replacement(gens, k)})
        for _ in range(5):
            ideal = rng.sample(members, min(len(members), rng.randint(1, 2)))
            u = rng.choice(members)
            got = tight_closure_membership_monomial(A, ideal, u)
            assert got == _bracket_power_at_e0(A, p, ideal, u, rep.e0), (gens, p, ideal, u)
            beyond[n] += got and not any(membership(A, tuple(a - b for a, b in zip(u, v))) for v in ideal)
            checked += 1
    assert min(beyond.values()) >= 3, beyond


def test_tight_closure_beyond_the_frobenius_closure():
    # A misses (1,1,0), whose order modulo the lattice of its face z = 0 is
    # 2, so k[A] is not F-nilpotent at p = 3.  For I = (x^(0,0,2)) and
    # u = (1,1,2), u - v = (1,1,0) lies in the cone: x^u lies in I*, while
    # no 3^e * (1,1,0) lies in A, so x^u is not in I^F
    A = AffineSemigroup([(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 0, 1), (0, 1, 1)])
    assert is_f_nilpotent(A, 3).verdict == "not-f-nilpotent"
    assert tight_closure_membership_monomial(A, [(0, 0, 2)], (1, 1, 2))
    assert eventual_p_membership(A, (1, 1, 0), 3).status == "no"
    assert not tight_closure_membership_monomial(A, [(1, 0, 1)], (0, 1, 1))


def test_tight_closure_on_rings_that_are_not_f_nilpotent():
    # the (⊇) step of the proof, checked directly: for every x^u in I*,
    # some c = k * (sum of the generators), k <= 4, has c + p^e * (u - v)
    # in A at e = 1 and 2.  I^F lies in I*, and beyond counts the x^u in
    # I* but not in I^F
    rng = random.Random(6029)
    rings, members, beyond = 0, 0, 0
    while rings < 40:
        n = rng.choice((2, 3))
        top = (4, 2)[n - 2]
        gens = {tuple(rng.randint(0, top) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 3))}
        gens = sorted(gens - {(0,) * n})
        if len(gens) < n:
            continue
        A = AffineSemigroup(gens)
        p = rng.choice((2, 3))
        if is_f_nilpotent(A, p).verdict == "f-nilpotent":
            continue
        rings += 1
        total = tuple(map(sum, zip(*gens)))
        sums = sorted({tuple(map(sum, zip(*c))) for k in (1, 2, 3) for c in itertools.combinations_with_replacement(gens, k)})
        for _ in range(10):
            ideal = rng.sample(sums, rng.randint(1, 2))
            u = rng.choice(sums)
            diffs = [tuple(a - b for a, b in zip(u, v)) for v in ideal]
            frobenius = any(A.in_cone(d) and eventual_p_membership(A, d, p).status == "yes" for d in diffs)
            if not tight_closure_membership_monomial(A, ideal, u):
                assert not frobenius, (gens, p, ideal, u)
                continue
            d = next(d for d in diffs if A.in_cone(d))
            assert any(
                all(membership(A, tuple(k * t + p**e * x for t, x in zip(total, d))) for e in (1, 2))
                for k in range(1, 5)
            ), (gens, p, ideal, u)
            members += 1
            beyond += not frobenius
    assert members >= 80 and beyond >= 5, (members, beyond)


def test_fte_cusp(monkeypatch):
    A = AffineSemigroup([(2,), (3,)])
    assert fte_bruteforce(A, 2, [3]) == 1
    # an e0 of 0, where the true one is 1, is contradicted by the computed Fte = 1
    monkeypatch.setattr(semigroup, "eventual_p_membership", lambda *args: semigroup.PMembership("yes", 0))
    with pytest.raises(CertificateFailed, match="computed Fte 1 exceeds"):
        fte_bruteforce(A, 2, [3])


def test_fte_frobenius_closed_ideal():
    A = AffineSemigroup([(1,)])
    assert is_f_nilpotent(A, 3).e0 == 0
    assert fte_bruteforce(A, 3, [2]) == 0


@pytest.mark.parametrize(
    "gens, p, ideal, false_e0",
    [((8, 13), 2, [24, 26], 0), ((17, 19), 2, [93], 4), ((12, 14, 22, 23), 2, [24, 28], 1)],
)
def test_fte_refutes_a_report_with_a_false_e0(gens, p, ideal, false_e0, monkeypatch):
    # each true Fte lies more than two exponents above the false e0 that
    # eventual p-power membership is made to report
    A = AffineSemigroup([(g,) for g in gens])
    fte = fte_bruteforce(A, p, ideal)
    assert false_e0 + 2 < fte <= is_f_nilpotent(A, p).e0
    monkeypatch.setattr(semigroup, "eventual_p_membership", lambda *args: semigroup.PMembership("yes", false_e0))
    with pytest.raises(CertificateFailed, match=f"computed Fte {fte} exceeds"):
        fte_bruteforce(A, p, ideal)


def _least_exponent(A, p, d):
    """min{e : p^e * d in A} by direct search (d >= 0, A of gcd 1)."""
    e = 0
    while not membership(A, (p**e * d,)):
        e += 1
    return e


def test_fte_matches_an_uncapped_search():
    # Fte(I) = max over a in I^F of min over v <= a in I of the least e
    # with p^e * (a - v) in S, each searched with no cap; past
    # max(I) + F every semigroup element lies in I
    rng = random.Random(1807)
    checked = 0
    while checked < 200:
        gens = sorted({rng.randint(2, 25) for _ in range(rng.randint(2, 4))})
        if len(gens) < 2 or gcd(*gens) != 1:
            continue
        A = AffineSemigroup([(g,) for g in gens])
        p = rng.choice((2, 3, 5, 7))
        members = [a for a in range(1, 60) if membership(A, (a,))]
        ideal = sorted(rng.sample(members, rng.randint(1, 3)))
        top = ideal[-1] + frobenius_number(A) + 1
        expected = max(
            min(_least_exponent(A, p, a - v) for v in ideal if v <= a)
            for a in range(ideal[0], top + 1)
            if membership(A, (a,))
        )
        assert fte_bruteforce(A, p, ideal) == expected, (gens, p, ideal)
        checked += 1


def _fte_walk(A, p, gens):
    """Fte by the per-point window walk, with a scalar exponent search at
    each member of the window: the reference for fte_bruteforce."""
    contains = semigroup._numerical_data(A).contains
    frob = frobenius_number(A)
    top = max(gens) + frob + 1
    E = 0
    while p**E <= frob:
        E += 1
    fte = 0
    for a in range(gens[0], top + 1):
        if contains(a):
            fte = max(fte, frobenius_closure_exponent(A, p, gens, a, E))
    return fte


@pytest.mark.parametrize("chunk", [7, semigroup.FTE_CHUNK])
def test_fte_array_passes_match_the_point_walk(chunk, monkeypatch):
    # chunks of 7 integers split every window; ideals past 2^63 and a
    # generator past it (the Apery scan on Python ints) keep exact answers
    monkeypatch.setattr(semigroup, "FTE_CHUNK", chunk)
    rng = random.Random(4211)
    checked, big = 0, 0
    while checked < 200:
        gens = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
        if len(gens) < 2 or gcd(*gens) != 1:
            continue
        if checked % 10 == 3:
            gens.append(2**64 + 1)
        A = AffineSemigroup([(g,) for g in gens])
        p = rng.choice((2, 3, 5, 7))
        members = [a for a in range(1, 80) if membership(A, (a,))]
        ideal = sorted(rng.sample(members, rng.randint(1, 3)))
        if checked % 10 == 7:
            ideal = [2**64 + v for v in ideal]
            big += 1
        assert fte_bruteforce(A, p, ideal) == _fte_walk(A, p, ideal), (gens, p, ideal)
        checked += 1
    assert big == 20


def test_fte_padded_listings_match_the_point_walk():
    # repeats, v + s for s in S, and v + k * m add no minimal generator:
    # the passes over the minimal ones give the walk's answer on the listing
    rng = random.Random(2514)
    checked = 0
    while checked < 150:
        gens = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
        if len(gens) < 2 or gcd(*gens) != 1:
            continue
        A = AffineSemigroup([(g,) for g in gens])
        p = rng.choice((2, 3, 5, 7))
        members = [a for a in range(1, 80) if membership(A, (a,))]
        ideal = sorted(rng.sample(members, rng.randint(1, 3)))
        padded = ideal + [rng.choice(ideal) for _ in range(2)]
        padded += [rng.choice(ideal) + rng.choice(members) for _ in range(3)]
        padded += [rng.choice(ideal) + gens[0] * rng.randint(1, 3)]
        rng.shuffle(padded)
        assert fte_bruteforce(A, p, padded) == _fte_walk(A, p, sorted(padded)) == fte_bruteforce(A, p, ideal)
        checked += 1


def test_numerical_semigroups_always_f_nilpotent():
    rng = random.Random(41)
    for _ in range(25):
        gens = sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))})
        from math import gcd, prod
        if gcd(*gens) != 1:
            gens.append(gens[-1] + 1)  # force gcd 1
        A = AffineSemigroup([(g,) for g in gens])
        for p in (2, 3, 5):
            rep = is_f_nilpotent(A, p)
            assert rep.verdict == "f-nilpotent", (gens, p)


def test_frobenius_closure_exponent_agrees_with_tight_shortcut():
    A = AffineSemigroup([(3,), (5,)])
    rep = is_f_nilpotent(A, 2)
    for u in range(0, 30):
        if not membership(A, (u,)):
            continue
        shortcut = tight_closure_membership_monomial(A, [(5,)], (u,))
        chased = frobenius_closure_exponent(A, 2, [5], u, rep.e0 + 2) is not None
        assert shortcut == chased, u
    with pytest.raises(ValueError):
        frobenius_closure_exponent(PINCHED_VERONESE, 2, [(2, 0, 0)], (2, 0, 0), 1)
