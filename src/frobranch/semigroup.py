"""Affine semigroup engine: membership, saturation, weak normalization,
pure-inseparability index, F-nilpotency verdicts, tight closure of monomial
ideals and Frobenius test exponents.

Geometry is exact throughout.  Each integer matrix M gets one Smith normal
form U * M * V = D with verified unimodular transforms.  Lattice membership
and torsion orders are tested by U * v, and the rows of U past the rank r
are the equations of the span of the columns.  A facet normal is the
primitive generalized cross product of r - 1 generators and those n - r
equations, contracted with the Levi-Civita tensor for every subset at
once (cone_geometry), in int64 below a proven bound and on Python ints
past it: cone geometry needs no SNF beyond the lattice one and refuses no
size.  Each face of the cone met by eventual p-power membership at a
point outside A gets one SNF, kept on the semigroup.

A numerical semigroup (n = 1) is held as its gcd times the Apery list of
the gcd-reduced generators with respect to the least one, one array built
by a prefix-min scan per generator: O(1) membership, an exact Frobenius
number, and memory linear in the least generator, which is capped at
APERY_CAP.  Its saturation is gcd * N, so it needs no box enumeration, and
its pure inseparability index e0 is found exactly, with no exponent cap
and no SNF: a multiple of the gcd has order 1 modulo gcd * Z.  Its Fte
is a max over a window of integers, taken in fixed-size chunks of array
passes, one exponent and one minimal ideal generator per pass, and checked
against that e0 (fte_bruteforce).  Entries that could pass int64 are held
as Python ints (dtype=object), as in cone_geometry.

For n >= 2 the Hilbert basis of the saturation group(A) ∩ cone(A) is the
set of minimal saturation points in a box that provably holds it
(Bruns-Gubeladze, Polytopes, Rings, and K-Theory, 2.C): its i-th side is
the sum b_i of the r largest i-th coordinates over E, the least generator
on each extremal ray of the cone.  The cone lies in N^n, so it is
pointed and cone(A) = cone(E).  By Caratheodory a cone point h is
sum lambda_j * e_j over at most r linearly independent e_j in E with
lambda_j >= 0.  If some lambda_j >= 1 and h != e_j, then h - e_j is a
nonzero saturation point and h splits; so a basis element is in E or has
every lambda_j < 1, and lies in the box.  In the same way, for every n,
each saturation point is a box point sum (lambda_j - floor(lambda_j)) *
e_j, itself a saturation point, plus the N-combination
sum floor(lambda_j) * e_j of E (tight_closure_membership_monomial).
Saturation points lie in N^n, so both summands of a split lie
componentwise below the point: a box point splits in the saturation
exactly when it splits in the box, and the minimal box points generate
every box point with no further check.
A box of more than BOX_VOLUME_CAP points is refused before enumeration.

The box is tested as one int64 array: a product of one facet, equation or
congruence row w with the box points, and every partial sum of it, is at
most sum |w_i| * max(b_i, 1) in size, and that exact bound is checked
below 2^63 before allocation.  The volume cap keeps facet and congruence
products far below it.  For r = n, E spans R^n, so every b_i >= 1, and
each coordinate of an element of E is at most b_i.  A primitive facet
normal divides the cofactor of r - 1 linearly independent elements of E
on the facet, so Hadamard's bound on the rows of that cofactor gives
sum |w_i| * b_i <= n (n-1)^((n-1)/2) prod b_i, below 21 * BOX_VOLUME_CAP
for n <= 4.  A congruence row has entries below d_i, which is at most the
gcd of the r x r minors of the generators, so at most a nonzero r x r
minor of elements of E, at most r^(r/2) * BOX_VOLUME_CAP by Hadamard on
its rows.  Only the equations from U, and the normals made with them
when r < n, have no such bound.

Eventual p-power membership is exact, with no exponent cap.  Let F be the
minimal face of cone(A) at a cone point a, A_F the semigroup of the
generators on F, G_F its group and S_F = G_F ∩ F its saturation.  A
representation of p^e * a in A uses only generators on F
(eventual_p_membership), and phase 1 answers "no" unless the order of a
modulo G_F is a power p^k.  When F is a ray with primitive vector r, its
generators are k_i * r and a = t * r, so p^e * a lies in A exactly when
p^e * t lies in the numerical semigroup <k_i>, whose least e its Apery
list gives as for n = 1.  On any other face the search tries e = 1, 2, ..
until p^e * a lies in A, and it stops: k[S_F] is a finite k[A_F]-module
(Bruns-Gubeladze, ch. 2), so A_F has a conductor element c_F with
c_F + S_F ⊆ A_F.  For e >= k, p^e * a - c_F lies in G_F, so in lin F; a
facet w of cone(A) vanishing at a vanishes on F, c_F included, and every
other facet has <w, a> > 0, so once p^e * <w, a> >= <w, c_F> for all of
them, p^e * a - c_F lies in cone(A) ∩ lin F = F, so in S_F, and
p^e * a lies in c_F + S_F ⊆ A.  The conductor only bounds the search and
is never computed.  Memory bounds it instead.  For n >= 2 membership
walks depth-first down from the point by the generators, and writes each
node to a memo (_member_cache) once decided: a node with a child that is
0 or known to lie in A is "yes", with every node on the stack above it,
and a node is "no" once every child is decided "no".  Generators are
nonzero and lie in N^n, so every child has a smaller coordinate sum than
every node on the stack: no node recurs, the walk needs no cycle guard,
and its stack empties only after the point itself was written "no".
Each walk is charged (n + 3) * SLOT_BYTES per memo entry it adds,
the rate of table_bytes, and refused with CapExceeded once its charge
passes WALK_BYTES.  A walk writes only decided entries, so a refused walk
leaves a sound memo.

One process may answer many requests on the same semigroup, at different
primes or with its generators spelled differently; the CLI's shared table
(cli.SharedTable) hands each the one AffineSemigroup for its canonical
generators (sorted, deduplicated, zero dropped), so the geometry is built
once.  That is sound because every lazily filled field is a function of
those generators alone, with no p, ideal or element in it: the lattice SNF
(_lattice_nf) and each face SNF (_faces) are the deterministic
smith_normal_form of a matrix read off the generators, checked before it
is stored; the facets, equations and zero patterns (cone_geometry), the
Hilbert basis (saturation_hilbert_basis) and the Apery list
(_numerical_data) are computed from the generators and those SNFs; and a
membership memo entry (_member_cache) records whether a point is in A,
written by a membership walk only once that is decided.  Each field is published only once complete: it is built in
locals and assigned in one step, the field its readers test assigned last
(_facets after _zeros and _equations), and a refusal (CapExceeded)
or a failed check (CertificateFailed) is raised before that step.  So a
refused or failed request leaves no half-built field, and a request reads
the values a fresh semigroup would compute, except for memo entries.
Those are decided facts that a walk reads only to prune: a warm walk adds
a subset of the entries a cold one would, so answers never depend on the
table, and only a refusal close to WALK_BYTES can, where the cold walk
passes the budget and the warm one does not.  Short of that, a report is
byte-identical to one made with an empty table.  The table keeps entries
least recently used first within its budget, as charged by table_bytes.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial, gcd, lcm, prod
from typing import Optional, Sequence

import numpy as np

from .errors import CapExceeded, CertificateFailed
from .ffield import check_characteristic

Vector = tuple[int, ...]

DIMENSION_CAP = 4
APERY_CAP = 100_000  # least gcd-reduced numerical generator = Apery list length
BOX_VOLUME_CAP = 200_000  # saturation box points, at most about 1.1 us each
FTE_WINDOW_CAP = 50_000_000  # Fte window integers, 10-20 ns each for 1-3 ideal generators; 10^8 took 2.1-2.3 s
FTE_CHUNK = 1 << 14  # window integers per array pass: 128 KB int64 arrays
ENTRY_BYTES = 2048  # charged per kept semigroup: the object, its dicts and its array headers
SLOT_BYTES = 64  # charged per int a kept semigroup holds outside arrays, with its share of their containers
WALK_BYTES = 128 << 20  # one membership walk's memo entries, by table_bytes; the largest seen charged 119.5 MiB


# -- integer matrices --------------------------------------------------------


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def _det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


@dataclass
class IntMatrixNF:
    """Smith normal form with transforms: U * M * V = D, U and V unimodular."""

    original: list[list[int]]
    U: list[list[int]]
    V: list[list[int]]
    D: list[list[int]]
    rank: int

    def __post_init__(self):
        if _mat_mul(_mat_mul(self.U, self.original), self.V) != self.D:
            raise CertificateFailed("Smith normal form transforms do not give U * M * V = D")
        if abs(_det(self.U)) != 1 or abs(_det(self.V)) != 1:
            raise CertificateFailed("Smith normal form transforms are not unimodular")

    def diagonal(self) -> list[int]:
        return [self.D[i][i] for i in range(min(len(self.D), len(self.D[0]) if self.D else 0))]


def smith_normal_form(M: Sequence[Sequence[int]]) -> IntMatrixNF:
    """Smith normal form over the integers with transform tracking."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    D = [list(map(int, row)) for row in M]
    U = _identity(rows)
    V = _identity(cols)

    def swap_rows(i, j):
        D[i], D[j] = D[j], D[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in D:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        # row dst += c * row src
        D[dst] = [a + c * b for a, b in zip(D[dst], D[src])]
        U[dst] = [a + c * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in D:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        D[i] = [-a for a in D[i]]
        U[i] = [-a for a in U[i]]

    t = 0
    while t < min(rows, cols):
        # pick the smallest nonzero entry of the trailing submatrix as pivot
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if D[i][j] != 0 and (best is None or abs(D[i][j]) < abs(D[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        if D[t][t] < 0:
            negate_row(t)
        # clear the pivot row and column; restart if a remainder appears
        dirty = False
        for i in range(t + 1, rows):
            if D[i][t] != 0:
                q = D[i][t] // D[t][t]
                add_row(t, i, -q)
                if D[i][t] != 0:
                    dirty = True
        for j in range(t + 1, cols):
            if D[t][j] != 0:
                q = D[t][j] // D[t][t]
                add_col(t, j, -q)
                if D[t][j] != 0:
                    dirty = True
        if dirty:
            continue
        # enforce divisibility: d_t must divide every remaining entry
        offender = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if D[i][j] % D[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1
    rank = sum(1 for i in range(min(rows, cols)) if D[i][i] != 0)
    return IntMatrixNF([list(map(int, row)) for row in M], U, V, D, rank)


def _ub(nf: IntMatrixNF, b: Sequence[int]) -> Optional[list[int]]:
    """U * b, or None when a coordinate past the rank is nonzero: b is then
    outside the rational column span, since U * M * V = D is zero in those
    rows.  Otherwise M * x = b is solvable over Z exactly when each diagonal
    entry d_i divides (U * b)_i."""
    ub = [sum(u * x for u, x in zip(row, b)) for row in nf.U]
    if any(ub[nf.rank:]):
        return None
    return ub


def solve_integer(nf: IntMatrixNF, b: Sequence[int]) -> Optional[list[int]]:
    """An integer solution x of (original) * x = b, or None."""
    ub = _ub(nf, b)
    if ub is None:
        return None
    d = nf.diagonal()
    if any(ub[i] % d[i] for i in range(nf.rank)):
        return None
    y = [ub[i] // d[i] for i in range(nf.rank)]
    return [sum(row[i] * y[i] for i in range(nf.rank)) for row in nf.V]


# -- affine semigroups -------------------------------------------------------


def _dot(a: Vector, b: Vector) -> int:
    return sum(x * y for x, y in zip(a, b))


class AffineSemigroup:
    """Finitely generated sub-monoid of N^n, with lattice and cone caches."""

    def __init__(self, generators: Sequence[Sequence[int]]):
        gens = []
        seen = set()
        n = None
        for g in generators:
            v = tuple(int(x) for x in g)
            if n is None:
                n = len(v)
            elif len(v) != n:
                raise ValueError("generators of mixed dimension")
            if any(x < 0 for x in v):
                raise ValueError(f"generator {v} is not in N^n")
            if v == (0,) * n:
                continue
            if v not in seen:
                seen.add(v)
                gens.append(v)
        if not gens:
            raise ValueError("need at least one nonzero generator")
        self.n = n
        self.generators: tuple[Vector, ...] = tuple(sorted(gens))
        self._lattice_nf: Optional[IntMatrixNF] = None  # columns = generators
        self._facets: Optional[list[Vector]] = None
        self._equations: Optional[list[Vector]] = None
        self._zeros: Optional[np.ndarray] = None  # facet i vanishes at generator j
        self._hilbert_basis: Optional[tuple[Vector, ...]] = None
        self._member_cache: dict[Vector, bool] = {}
        self._faces: dict[tuple[Vector, ...], tuple] = {}  # vanishing facets -> (face gens, SNF)
        self._numerical: Optional[_NumericalData] = None

    def __repr__(self):
        return f"AffineSemigroup(n={self.n}, generators={list(self.generators)})"

    def lattice_nf(self) -> IntMatrixNF:
        """SNF of the matrix whose columns are the generators; used to solve
        lattice membership sum x_j * g_j = v over the integers."""
        if self._lattice_nf is None:
            mat = [[g[i] for g in self.generators] for i in range(self.n)]
            self._lattice_nf = smith_normal_form(mat)
        return self._lattice_nf

    def in_lattice(self, v: Vector) -> bool:
        nf = self.lattice_nf()
        ub = _ub(nf, v)
        return ub is not None and not any(ub[i] % nf.D[i][i] for i in range(nf.rank))

    def in_cone(self, v: Vector) -> bool:
        facets, eqs = cone_geometry(self)
        return all(_dot(w, v) >= 0 for w in facets) and all(_dot(w, v) == 0 for w in eqs)


@dataclass
class _NumericalData:
    """A numerical semigroup (n = 1) as step * S, with S of gcd 1 given by
    its Apery list: apery[r] is the least element of S congruent to r
    modulo the least generator m = len(apery) of S.  So S contains a >= 0
    exactly when a >= apery[a mod m], and max(apery) - m is the largest
    integer outside S."""

    step: int            # gcd of the generators
    apery: np.ndarray    # int64, or Python ints when an entry passes int64

    def contains(self, a: int) -> bool:
        if a < 0 or a % self.step:
            return False
        a //= self.step
        return a >= int(self.apery[a % len(self.apery)])


def _apery_list(gens: Sequence[int]) -> np.ndarray:
    """Apery list of the semigroup generated by the ascending, gcd-1 gens
    with respect to m = gens[0], by the round-robin algorithm of Boecker
    and Liptak (Algorithmica 48, 2007) with each round one array pass:
    O(m * k) time and O(m) memory for k generators.

    Adding a generator g splits the residues mod m into d = gcd(m, g)
    classes, each one cycle q_i = q_0 + i * g (mod m), i < m / d, from the
    residue q_0 of its least known element.  The round sets
    new[q_0] = old[q_0] and new[q_i] = min(old[q_i], new[q_(i-1)] + g), so
    by induction new[q_i] = min over j <= i of old[q_j] + (i - j) * g,
    which is i * g + min over j <= i of (old[q_j] - j * g): one
    np.minimum.accumulate along the rows of the d x (m / d) array of the
    cycles.

    Unknown entries hold m * max(gens), above every entry: an Apery
    element is a sum of at most m - 1 generators, since among m partial
    sums of a longer sum two agree mod m, and dropping the terms between
    them leaves a smaller element of the same class.  A class with no
    known element stays at that value, as min over j <= i of
    (m * max(gens) - j * g) + i * g is m * max(gens).  Every value of the
    pass lies within m * max(gens) of 0, so below 2^63 the list is int64
    and past it Python ints; a list whose entries all fit is returned as
    int64."""
    m, top = gens[0], max(gens)
    dtype = np.int64 if m * top < 2**63 else object
    apery = np.full(m, m * top, dtype=dtype)
    apery[0] = 0
    for g in gens[1:]:
        d = gcd(m, g)
        start = np.arange(d) + d * apery.reshape(m // d, d).argmin(axis=0)
        cycles = (start[:, None] + np.arange(m // d) * (g % m)) % m
        shift = np.arange(m // d, dtype=dtype) * g
        apery[cycles] = np.minimum.accumulate(apery[cycles] - shift, axis=1) + shift
    if dtype is object and apery.max() < 2**63:
        apery = apery.astype(np.int64)
    return apery


def _numerical_data(A: AffineSemigroup) -> _NumericalData:
    if A._numerical is None:
        gens = [g[0] for g in A.generators]
        step = gcd(*gens)
        if gens[0] // step > APERY_CAP:
            raise CapExceeded(
                f"least generator {gens[0] // step} (after dividing by the gcd {step}) "
                f"exceeds the Apery-list cap {APERY_CAP}"
            )
        A._numerical = _NumericalData(step, _apery_list([g // step for g in gens]))
    return A._numerical


def table_bytes(A: AffineSemigroup) -> int:
    """What a kept A is charged (cli.SharedTable): ENTRY_BYTES, the bytes
    of its arrays, and SLOT_BYTES per int held in Python objects.  The ints are
    the generators, facets, equations and Hilbert basis (n per vector),
    each SNF U * M * V = D of an n x k matrix M ((n + k)^2 for M, U, V and
    D), and n + 3 per membership memo entry (its key and dict slot).  An
    int below 2^180 takes at most 48 bytes and its pointer 8, and the rest
    of the 64 covers the tuples, lists and dicts around them: for every
    semigroup of the `semigroups` benchmark workload (seeds 1 and 3) the
    charge was above the memory tracemalloc saw freed when it was dropped.
    The arrays are the facet zero pattern and the Apery list.  A
    Python-int Apery entry is charged at the size of its bound
    m * max(gens)."""
    n = A.n
    slots = (n + 3) * len(A._member_cache) + n * (
        len(A.generators) + len(A._facets or ()) + len(A._equations or ()) + len(A._hilbert_basis or ())
    )
    for nf in (A._lattice_nf, *(nf for _, nf in A._faces.values())):
        if nf is not None:
            slots += (len(nf.U) + len(nf.V)) ** 2
    size = ENTRY_BYTES + SLOT_BYTES * slots
    if A._zeros is not None:
        size += A._zeros.nbytes
    if A._numerical is not None:
        apery = A._numerical.apery
        size += apery.nbytes
        if apery.dtype == object:  # each entry below m * max(gens), in 16-byte blocks
            size += len(apery) * (sys.getsizeof(len(apery) * A.generators[-1][0]) + 16)
    return size


def frobenius_number(A: AffineSemigroup) -> int:
    """Largest integer not in a gcd-1 numerical semigroup (-1 for N)."""
    if A.n != 1:
        raise ValueError("Frobenius numbers are defined for numerical semigroups")
    data = _numerical_data(A)
    if data.step != 1:
        raise ValueError("generators must have gcd 1")
    return int(data.apery.max()) - len(data.apery)


def membership(A: AffineSemigroup, a: Sequence[int]) -> bool:
    """Is a an N-combination of the generators?  n = 1 goes through the
    Apery list.  For n >= 2 a memo entry, decided by an earlier walk,
    answers first, a point outside the cone or the lattice is "no", and any
    other point is walked (module docstring).  The walk is refused with
    CapExceeded when a node decided "no" takes the entries it adds past
    WALK_BYTES, at the table_bytes rate of (n + 3) * SLOT_BYTES each."""
    v = tuple(int(x) for x in a)
    if len(v) != A.n:
        raise ValueError("dimension mismatch")
    if any(x < 0 for x in v):
        return False
    if A.n == 1:
        return _numerical_data(A).contains(v[0])
    zero = (0,) * A.n
    if v == zero:
        return True
    cache = A._member_cache
    known = cache.get(v)
    if known is not None:
        return known
    if not A.in_cone(v) or not A.in_lattice(v):
        return False
    entry = (A.n + 3) * SLOT_BYTES
    limit = len(cache) + WALK_BYTES // entry
    stack = [(v, iter(A.generators))]
    while stack:
        cur, gens = stack[-1]
        for g in gens:
            nxt = tuple(a - b for a, b in zip(cur, g))
            if min(nxt) < 0:
                continue
            known = cache.get(nxt)
            if known or nxt == zero:
                for node, _ in stack:
                    cache[node] = True
                return True
            if known is None:
                stack.append((nxt, iter(A.generators)))
                break
        else:
            cache[cur] = False
            if len(cache) > limit:
                raise CapExceeded(
                    f"the membership walk at {list(v)} passed the walk budget of {WALK_BYTES} bytes "
                    f"({WALK_BYTES // entry} memo entries at {entry} bytes each)"
                )
            stack.pop()
    return False


@lru_cache(maxsize=DIMENSION_CAP)
def _levi_civita(n: int) -> np.ndarray:
    """The order-n Levi-Civita tensor: the sign of s at each permutation
    s = (s_0, .., s_(n-1)) of range(n), zero at indices with a repeat."""
    eps = np.zeros((n,) * n, dtype=np.int64)
    for perm in itertools.permutations(range(n)):
        eps[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    eps.flags.writeable = False  # shared by every caller
    return eps


def cone_geometry(A: AffineSemigroup) -> tuple[list[Vector], list[Vector]]:
    """(facet inequalities, span equations) of the rational cone of A.

    The span equations are the rows of U past the rank r of the lattice
    SNF.  A facet normal is the generalized cross product
    C_j = eps_(j a b ..) * row_0[a] * row_1[b] * .. of r - 1 generators
    and those n - r equations, eps the Levi-Civita tensor, made primitive:
    it lies in the span of A, vanishes on the r - 1 generators, and is
    nonzero exactly when they have rank r - 1.  Contracting eps with one
    operand at a time, last axis first, gives it for every (r - 1)-subset
    at once.  A subset gives a facet when its normal is single-signed on
    the generators, signed to be >= 0 there.  The primitive normal is
    unique up to sign for r = n, so it is the one a kernel basis would
    give, and unique in the span of A for r < n, so a set of normals tells
    the facets apart.  Which facets vanish at which generator is read off
    the same products and kept on A (A._zeros, facets x generators).

    With M >= 1 the largest |entry| of the generators and equations, a
    partial contraction with k operands is, at each index, a sum of at
    most k! products of k entries, and so is every partial sum of it: all
    are at most (n-1)! M^(n-1), the bound on C, whose dots with the
    generators are at most n (n-1)! M^(n-1) max(g).  Below 2^63 the pass
    runs in int64, past it on Python ints (dtype=object), exactly.  The
    cone of a numerical semigroup is N, with no contraction."""
    if A._facets is not None:
        return A._facets, A._equations
    n = A.n
    if n > DIMENSION_CAP:
        raise CapExceeded(f"ambient dimension {n} exceeds cap {DIMENSION_CAP}")
    if n == 1:
        A._zeros, A._equations = np.zeros((1, len(A.generators)), dtype=bool), []
        A._facets = [(1,)]
        return A._facets, A._equations
    gens = A.generators
    lattice = A.lattice_nf()
    r = lattice.rank
    equations = [tuple(row) for row in lattice.U[r:]]
    top = max(abs(x) for row in (*gens, *equations) for x in row)
    bound = n * factorial(n - 1) * top ** (n - 1) * max(map(max, gens))
    dtype = np.int64 if bound < 2**63 else object
    G = np.array(gens, dtype=dtype)
    idx = np.array(list(itertools.combinations(range(len(gens)), r - 1)), dtype=np.intp)
    C = _levi_civita(n)
    for w in reversed(equations):
        C = np.einsum("...x,x->...", C, np.array(w, dtype=dtype))
    for i in reversed(range(r - 1)):
        C = np.einsum("m...x,mx->m..." if i < r - 2 else "...x,mx->m...", C, G[idx[:, i]])
    C = C.reshape(-1, n)
    dots = C @ G.T
    keep = (C != 0).any(axis=1) & ((dots >= 0).all(axis=1) | (dots <= 0).all(axis=1))
    zeros = {}
    for c, d, z in zip(C[keep].tolist(), dots[keep].tolist(), (dots[keep] == 0).tolist()):
        g = gcd(*c) if max(d) > 0 else -gcd(*c)
        zeros[tuple(x // g for x in c)] = z
    facets = sorted(zeros)
    A._zeros = np.array([zeros[w] for w in facets], dtype=bool).reshape(len(zeros), len(gens))
    A._equations = equations
    A._facets = facets
    return facets, equations


def _extremal_generators(A: AffineSemigroup) -> list[Vector]:
    """E: the componentwise-least generator on each extremal ray of cone(A).

    The minimal face of a cone point is cut out by the facets vanishing at
    it, and a larger set of them cuts out a smaller face.  A generator lies
    on an extremal ray exactly when no other generator has a strictly
    larger set of vanishing facets.  On an extremal ray the minimal face
    is the ray, and the only smaller face is 0, which holds no generator.
    Off the extremal rays the minimal face F has dimension >= 2 and is the
    cone of the generators on it, so some of them lie on an extremal ray
    of F, which is an extremal ray of the cone, and their sets are
    strictly larger.
    Extremal generators with the same set lie on the same ray, as
    multiples of one primitive vector, so the least of them is the first
    in sorted order.  The sets are the columns of A._zeros."""
    cone_geometry(A)
    zeros = A._zeros.T  # generators x facets
    # within[j, k]: every facet vanishing at generator j vanishes at k
    within = ~(zeros[:, None, :] & ~zeros[None, :, :]).any(axis=2)
    extremal = ~(within & ~within.T).any(axis=1)
    least: dict[tuple, Vector] = {}
    for g, z, ext in zip(A.generators, zeros.tolist(), extremal.tolist()):
        if ext:
            least.setdefault(tuple(z), g)
    return sorted(least.values())


def _saturation_points(A: AffineSemigroup) -> np.ndarray:
    """Indicator array, over the box that provably holds the Hilbert basis
    (module docstring), of the nonzero points of group(A) ∩ cone(A).  The
    box's i-th side is the sum of the r largest i-th coordinates over the
    extremal generators E (_extremal_generators).

    A box point v is kept when every facet product is >= 0, every span
    equation vanishes, and (U_i mod d_i) . v = 0 mod d_i for each i < r
    with d_i != 1.  A box above BOX_VOLUME_CAP points, or one where some
    product could pass int64, is refused before allocation."""
    nf = A.lattice_nf()
    r = nf.rank
    extremal = _extremal_generators(A)
    bounds = [sum(sorted((e[i] for e in extremal), reverse=True)[:r]) for i in range(A.n)]
    volume = prod(b + 1 for b in bounds)
    if volume > BOX_VOLUME_CAP:
        raise CapExceeded(
            f"saturation box {bounds} holds {volume} points, "
            f"above the box-volume cap {BOX_VOLUME_CAP}"
        )
    facets, eqs = cone_geometry(A)
    d = nf.diagonal()
    congruences = [(nf.U[i], d[i]) for i in range(r) if d[i] != 1]
    rows = [*facets, *eqs, *(tuple(u % m for u in row) for row, m in congruences)]
    # max(b, 1) also bounds the entries themselves, which go to int64
    top = max(sum(abs(w) * max(b, 1) for w, b in zip(row, bounds)) for row in rows)
    if top >= 2**63:
        raise CapExceeded(f"saturation box products reach {top}, past int64")
    shape = [b + 1 for b in bounds]
    dots = np.array(rows, dtype=np.int64) @ np.indices(shape).reshape(A.n, -1)
    k, e = len(facets), len(facets) + len(eqs)
    keep = (dots[:k] >= 0).all(axis=0) & ~dots[k:e].any(axis=0)
    for row, (_, m) in zip(dots[e:], congruences):
        keep &= row % m == 0
    keep[0] = False
    return keep.reshape(shape)


def _minimal_elements(points: np.ndarray) -> list[Vector]:
    """Points not expressible as a sum of two points of the set, for the
    indicator array over a box of the nonzero points of a semigroup in N^n,
    in (degree, point) order.

    Such a set holds every split of its points, whose summands lie
    componentwise below them.  Points go by increasing (degree, point), and
    a point splits exactly when it minus some minimal point found so far
    lies in the set: peel minimal points off the smaller summand of any
    split.  Each minimal point h ORs the set shifted by h into the mask of
    split points, which marks every later point it peels off.  Such an h
    has at most half the degree of those points, so at most half the top
    degree of the box: only points up to that degree are walked, and past
    it the split mask is final and the minimal points are the unmarked
    ones, one mask."""
    split = np.zeros_like(points)
    top = sum(points.shape) - points.ndim
    idx = np.argwhere(points)  # ascending points
    low = 2 * idx.sum(axis=1) <= top
    out: list[Vector] = []
    for v in sorted(map(tuple, idx[low].tolist()), key=sum):
        if split[v]:
            continue
        out.append(v)
        split[tuple(slice(a, None) for a in v)] |= points[
            tuple(slice(None, s - a) for a, s in zip(v, points.shape))
        ]
    high = idx[~low]
    out += sorted(map(tuple, high[~split[tuple(high.T)]].tolist()), key=sum)
    return out


def saturation_hilbert_basis(A: AffineSemigroup) -> tuple[Vector, ...]:
    """Minimal generating set of the saturation group(A) ∩ cone(A).

    For n >= 2 these are the minimal saturation points of the proven box
    of the module docstring.  The saturation of a numerical semigroup is
    step * N for step the gcd of its generators, so n = 1 needs no
    enumeration."""
    if A._hilbert_basis is not None:
        return A._hilbert_basis
    if A.n == 1:
        A._hilbert_basis = ((gcd(*(g[0] for g in A.generators)),),)
        return A._hilbert_basis
    A._hilbert_basis = tuple(sorted(_minimal_elements(_saturation_points(A))))
    return A._hilbert_basis


# -- eventual p-power membership and pure inseparability ----------------------


@dataclass(frozen=True)
class PMembership:
    """Yes(the least e) / No(lattice certificate); both are exact, for
    every n (module docstring)."""

    status: str  # "yes" | "no"
    e: Optional[int] = None
    certificate: Optional[dict] = None


def _face_lattice(A: AffineSemigroup, a: Vector):
    """Facets of cone(A) vanishing at a, the generators on the minimal face
    containing a, and the SNF of the matrix whose columns are those
    generators (None when there are none); one SNF per vanishing-facet set,
    kept on A."""
    facets, _ = cone_geometry(A)
    hits = [i for i, w in enumerate(facets) if _dot(w, a) == 0]
    vanishing = tuple(facets[i] for i in hits)
    face = A._faces.get(vanishing)
    if face is None:
        if not vanishing:  # the face is the whole cone, whose SNF A already holds
            face = (list(A.generators), A.lattice_nf())
        else:
            on_face = A._zeros[hits].all(axis=0)
            face_gens = [g for g, on in zip(A.generators, on_face.tolist()) if on]
            nf = smith_normal_form([[g[i] for g in face_gens] for i in range(A.n)]) if face_gens else None
            face = (face_gens, nf)
        A._faces[vanishing] = face
    return (vanishing, *face)


def eventual_p_membership(A: AffineSemigroup, a: Sequence[int], p: int) -> PMembership:
    """Decide whether p^e * a lands in A for some e, and give the least e.

    For n >= 2 membership of a itself comes first, and gives e = 0 with no
    face SNF.  That cannot hide a "no": a representation of a in A uses
    only generators on the minimal face containing a, since a facet
    vanishes on a sum of cone points only where it vanishes on every
    term, so a lies in the face lattice and its order there is 1.  The
    zero point is in A, with e = 0, for every n.

    Phase 1 is a lattice obstruction: any N-combination representing
    p^e * a can only use generators on the minimal face containing a, so
    the order of a modulo the face lattice must be a power of p; a finite
    order that is not is checked exactly before the "no" is returned.  A
    point of a numerical semigroup that is a multiple of the gcd of the
    generators has order 1 modulo their lattice gcd * Z, so it skips
    phase 1 and takes no SNF; any other point takes it.
    Phase 2 finds the least exponent, which exists (module docstring).  A
    point t of a numerical semigroup, and a point t * r whose minimal face
    is a ray with generators k_i * r, read it off the Apery list of <k_i>
    (A itself for n = 1), from e = 0: past the p-power order of t modulo
    gcd(k_i), p^e * t is a multiple of it and eventually passes the
    conductor.  A "no" from phase 1 builds no Apery list.  Any other face
    walks e = 1, 2, .. through membership; a point there outside cone(A)
    is refused with ValueError, as no multiple of it reaches the cone."""
    check_characteristic(p)
    v = tuple(int(x) for x in a)
    if len(v) != A.n or any(x < 0 for x in v):
        raise ValueError(f"{list(v)} is not a point of N^{A.n}")
    if not any(v) or A.n > 1 and membership(A, v):
        return PMembership("yes", 0)
    if A.n > 1 or v[0] % gcd(*(g[0] for g in A.generators)):
        vanishing, face_gens, nf = _face_lattice(A, v)
        order = _torsion_order(nf, v) if nf is not None else None
        if order is None or _has_prime_factor_besides(order, p):
            if order is not None:
                _check_order(nf, v, order)
            cert = {
                "vanishing_facets": [list(w) for w in vanishing],
                "face_generators": [list(g) for g in face_gens],
                "torsion_order": order,
            }
            return PMembership("no", certificate=cert)
    if A.n == 1:
        numerical, t = A, v[0]
    elif nf.rank == 1:  # a ray: the face generators are k_i * r, and v = t * r
        r = face_gens[0]
        step = gcd(*r)
        j = next(i for i, x in enumerate(r) if x)
        numerical = AffineSemigroup([(g[j] * step // r[j],) for g in face_gens])
        t = v[j] * step // r[j]
    else:
        if not A.in_cone(v):
            raise ValueError(f"{list(v)} is not in the cone of the semigroup")
        e = 1
        while not membership(A, tuple(p**e * x for x in v)):
            e += 1
        return PMembership("yes", e)
    contains = _numerical_data(numerical).contains
    e = 0
    while not contains(p**e * t):
        e += 1
    return PMembership("yes", e)


def _has_prime_factor_besides(order: int, p: int) -> bool:
    """Does order have a prime factor other than p?"""
    while order % p == 0:
        order //= p
    return order != 1


def _torsion_order(nf: IntMatrixNF, a: Vector) -> Optional[int]:
    """Order of a in (L + Za)/L for L the column lattice of nf; None when
    the order is infinite."""
    ua = _ub(nf, a)
    if ua is None:
        return None
    d = nf.diagonal()
    return lcm(*(d[i] // gcd(d[i], ua[i]) for i in range(nf.rank)))


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _check_order(nf: IntMatrixNF, a: Vector, m: int) -> None:
    """Raise CertificateFailed unless m is the order of a modulo the column
    lattice L of nf.

    The multiples of a in L are the multiples of its order, so m * a in L
    and (m / l) * a not in L for every prime l dividing m make m the order.
    The solution for m * a is multiplied out against the matrix."""
    x = solve_integer(nf, [m * c for c in a])
    if x is None or _mat_mul(nf.original, [[c] for c in x]) != [[m * c] for c in a]:
        raise CertificateFailed(f"{m} * {list(a)} is not in the face lattice")
    for prime in _prime_factors(m):
        if solve_integer(nf, [m // prime * c for c in a]) is not None:
            raise CertificateFailed(f"{list(a)} has order below {m} modulo the face lattice")


@dataclass(frozen=True)
class FNilpotencyReport:
    """Verdict on F-nilpotence of k[A] at the characteristic p it was
    computed for, exact for every A within the caps.

    FNilpotent carries the pure inseparability index e0; NotFNilpotent
    carries the witness Hilbert-basis element and its lattice certificate.
    No closure answer takes a report: tight closure of a monomial ideal
    needs no p (tight_closure_membership_monomial), and fte_bruteforce
    finds its own e0."""

    verdict: str  # "f-nilpotent" | "not-f-nilpotent"
    e0: Optional[int] = None
    witness: Optional[Vector] = None
    certificate: Optional[dict] = None
    hilbert_basis: tuple[Vector, ...] = ()
    per_element: dict = field(default_factory=dict)


def pure_insep_index(A: AffineSemigroup, p: int) -> FNilpotencyReport:
    """Pure inseparability index of k[A] -> k[saturation(A)].

    Semigroups are closed under addition, so p^e * h in A for every Hilbert
    basis element h forces p^e * s in A for every saturation element s; the
    index is the max of the per-element minimal exponents."""
    basis = saturation_hilbert_basis(A)
    per_element: dict[Vector, PMembership] = {}
    e0 = 0
    witness = None
    certificate = None
    for h in basis:
        res = eventual_p_membership(A, h, p)
        per_element[h] = res
        if res.status == "no" and witness is None:
            witness = h
            certificate = res.certificate
        elif res.status == "yes":
            e0 = max(e0, res.e)
    return FNilpotencyReport(
        verdict="f-nilpotent" if witness is None else "not-f-nilpotent",
        e0=e0 if witness is None else None,
        witness=witness,
        certificate=certificate,
        hilbert_basis=basis,
        per_element=per_element,
    )


def is_f_nilpotent(A: AffineSemigroup, p: int) -> FNilpotencyReport:
    """F-nilpotence of the semigroup ring k[A]: holds exactly when the
    normalization map is purely inseparable."""
    return pure_insep_index(A, p)


def weak_normalization(A: AffineSemigroup, p: int) -> tuple[Vector, ...]:
    """Minimal generators of *A = {a in saturation : p^e * a in A for some e},
    exact, sorted.

    They lie in the saturation box of the module docstring: write a point
    a of *A as sum lambda_j * e_j over linearly independent extremal
    generators e_j as there; if some lambda_j > 1, then a - e_j has the
    same positive coefficients, so the same minimal face as a, and since
    e_j lies in A on that face, the same class modulo that face's lattice,
    which is all that membership in *A depends on, so a splits as
    e_j + (a - e_j).  So a minimal generator has every lambda_j <= 1.  A
    numerical semigroup contains every large enough multiple of its gcd,
    so for n = 1, *A is the whole saturation."""
    if A.n == 1:
        check_characteristic(p)
        return saturation_hilbert_basis(A)
    star = _saturation_points(A)
    for v in map(tuple, np.argwhere(star).tolist()):  # ascending points
        if eventual_p_membership(A, v, p).status != "yes":
            star[v] = False
    return tuple(sorted(_minimal_elements(star)))


# -- tight closure and Frobenius test exponents --------------------------------


def tight_closure_membership_monomial(
    A: AffineSemigroup, ideal: Sequence[Sequence[int]], u: Sequence[int]
) -> bool:
    """Membership of the monomial x^u in the tight closure I* of the
    monomial ideal I = (x^v_1, ..) of k[A], for every A and every p, by one
    cone test: x^u lies in I* exactly when some u - v_j lies in cone(A), so
    I* = I * k[sat A] ∩ k[A] for sat A = group(A) ∩ cone(A)
    (Hochster-Huneke, JAMS 3, 1990).  u and every v_j must lie in A.

    x^u lies in I* when some c != 0 in k[A] has c * x^(q*u) in
    I^[q] = (x^(q*v_1), ..) for all large q = p^e.  An ideal generated by
    monomials holds every term of its elements, and x^w lies in I^[q]
    exactly when w - q * v_j lies in A for some j.

    (⊆) Let x^gamma be a term of c.  For each large q some j has
    gamma + q * (u - v_j) in A, and as the v_j are finitely many, one j
    serves infinitely many q.  For those q, gamma / q + (u - v_j) lies in
    cone(A), which is closed, so u - v_j lies in cone(A).

    (⊇) u and v_j lie in A, so u - v_j lies in group(A), and with
    u - v_j in cone(A) every q * (u - v_j) lies in sat A.  The module
    docstring writes each point of sat A as a box point b plus an
    N-combination of extremal generators, which lie in A.  The box points
    are finitely many, and each lies in group(A), as b = a+_b - a-_b with
    a+_b and a-_b in A.  Take gamma = sum over b of a-_b: then gamma + b
    lies in A for each b, so gamma + sat A lies in A, and
    x^gamma * x^(q*u) = x^(gamma + q*(u - v_j)) * x^(q*v_j) lies in I^[q]
    for every q.  This holds for n = 1 too, where sat A = gcd * N and the
    only extremal generator is the least one."""
    uu = tuple(int(x) for x in u)
    gens = [tuple(int(x) for x in v) for v in ideal]
    if not membership(A, uu):
        raise ValueError(f"element {uu} is not in the semigroup")
    for v in gens:
        if not membership(A, v):
            raise ValueError(f"ideal generator {v} is not in the semigroup")
    return any(A.in_cone(tuple(a - b for a, b in zip(uu, v))) for v in gens)


def frobenius_closure_exponent(
    A: AffineSemigroup, p: int, ideal: Sequence[int], a: int, e_cap: int
) -> Optional[int]:
    """Minimal e <= e_cap with p^e * a in the bracket power of the monomial
    ideal of a numerical semigroup; None if no exponent works."""
    if A.n != 1:
        raise ValueError("Frobenius closure exponents are implemented for numerical semigroups")
    contains = _numerical_data(A).contains
    for e in range(e_cap + 1):
        q = p**e
        if any(contains(q * (a - v)) for v in ideal):
            return e
    return None


def fte_bruteforce(A: AffineSemigroup, p: int, ideal: Sequence[int]) -> int:
    """Frobenius test exponent of a monomial ideal I in a gcd-1 numerical
    semigroup ring, by exhaustive search, checked against Fte(I) <= e0.

    The saturation of S is N, with Hilbert basis 1, and p^e lies in S once
    it passes the Frobenius number: S is F-nilpotent for every p, and e0
    is the least e with p^e in S, which eventual_p_membership(A, (1,), p)
    reads off the Apery list, as pure_insep_index does.

    A semigroup element a lies in I^F when p^e * (a - v) lies in S for a
    generator v of I and some e; its exponent is the least such e, and
    Fte(I) is the largest exponent.  The search covers a in
    [min(I), max(I) + F + 1] for F the Frobenius number: below min(I)
    every a - v is negative, so nothing there lies in I^F, and above
    max(I) + F every a - max(I) lies in S, so a lies in I itself.  A window
    of more than FTE_WINDOW_CAP integers is refused before any work.

    Every exponent is at most E, the least e with p^E > F: for a >= v the
    difference d = a - v is 0, which lies in S at e = 0, or d >= 1, so
    p^E * d > F and p^E * d lies in S.  So the exponents are exact, and the
    check fte > e0 covers every element of the window.  Since p * S lies in
    S, p^e * d in S gives p^(e+1) * d in S: the exponent of a exceeds e
    exactly when p^e * (a - v) lies outside S for every v, and those a
    shrink as e grows.  Fte(I) is the least e < E at which no member of
    the window has that property, or E if there is none.  The window goes in
    chunks of FTE_CHUNK integers: a chunk's members are tested at e = fte,
    the largest exponent found so far, one array pass per ideal generator,
    and the survivors at fte + 1 and so on, so a chunk costs one pass
    unless it raises fte, and once fte = E the rest of the window cannot
    raise it.  The passes run over the minimal generators only: a listed v
    with v - w in S for a smaller listed w never lowers the min, as
    p^e * (a - w) = p^e * (a - v) + p^e * (v - w) lies in S whenever
    p^e * (a - v) does.  Taking the least generator left and dropping
    every v it covers so leaves at most m of them, as it drops repeats and
    every v congruent to a smaller one modulo m (their difference is a
    multiple of m).  The window, its cap and the scalar recheck of the
    attained maximum, at one element that attains it, read the listed
    generators.

    The arrays hold offsets t = a - min(I), not a: a lies in S when
    floor + t >= apery[a mod m], floor = min(min(I), max(apery)), which
    holds for every t once min(I) >= max(apery), so ideal elements past
    int64 keep exact answers.  The Apery list is int64, as its entries are
    at most F + m, and p^e * (t - (v - min(I))) has size below
    F * FTE_WINDOW_CAP, as p^e <= F for e < E."""
    if A.n != 1:
        raise ValueError("brute-force Fte is implemented for numerical semigroups only")
    gens = sorted(int(v) for v in ideal)
    if not gens:
        raise ValueError("ideal must have at least one generator")
    data = _numerical_data(A)
    for v in gens:
        if not data.contains(v):
            raise ValueError(f"ideal generator {(v,)} is not in the semigroup")
    frob = frobenius_number(A)
    e0 = eventual_p_membership(A, (1,), p).e
    base, top = gens[0], gens[-1] + frob + 1
    width = top - base + 1
    if width > FTE_WINDOW_CAP:
        raise CapExceeded(
            f"Fte window [{base}, {top}] holds {width} integers, "
            f"above the window cap {FTE_WINDOW_CAP}"
        )
    E = 0
    while p**E <= frob:
        E += 1
    apery = data.apery
    m = len(apery)
    floor = min(base, int(apery.max()))
    minimal = []
    for o in (v - base for v in gens):  # ascending
        if all(o - w < apery[(o - w) % m] for w in minimal):  # no o - w in S
            minimal.append(o)
    fte, where = 0, base
    for lo in range(0, width, FTE_CHUNK):
        if fte == E:
            break
        t = np.arange(lo, min(lo + FTE_CHUNK, width), dtype=np.int64)
        t = t[floor + t >= apery[(t + base % m) % m]]
        while fte < E and len(t):
            q = p**fte
            outside = np.ones(len(t), dtype=bool)
            for o in minimal:
                d = q * (t - o)
                outside &= d < apery[d % m]  # a negative d is never in S
            t = t[outside]
            if len(t):
                fte, where = fte + 1, base + int(t[0])
    if frobenius_closure_exponent(A, p, gens, where, E) != fte:
        raise CertificateFailed(f"the exponent of {where} is not the computed Fte {fte}")
    if fte > e0:
        raise CertificateFailed(f"computed Fte {fte} exceeds the pure inseparability bound {e0}")
    return fte
