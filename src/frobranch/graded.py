"""Per-degree exact linear algebra on standard-graded quotients k[x1..xn]/I.

Every question asked here (Hilbert functions, linear reductions, Frobenius
powers and closures, the branch-count formula) is homogeneous, so a
Macaulay-style degree-slice matrix replaces Groebner bases entirely: the
degree-d piece of I is the row span of {m*g : g a relation, deg(m*g) = d}
inside the degree-d monomial space, under a fixed graded reverse
lexicographic column order.

The slices lie over GF(Q), the least field of R's tower holding the
relations (GradedQuotient.kernel).  An echelon takes vectors over its own
field only, so a form over a larger field GF(Q^m) of the tower
(kernel_holding) is reduced as the m vectors of its coordinates over GF(Q)
(_SliceData.normal_forms).  By ffield's code convention those are the
base-Q digits code // Q^i % Q, i < m, at every level of the tower: a code
of base[u]/(modulus) is sum c_i*B^i over base codes c_i, B the base's
order, so the basis element w_i of coordinate i has code Q^i.  Reduction
modulo a GF(Q)-space is GF(Q)-linear, and the RREF of I_d is also its RREF
over every extension, so NF(sum v_i*w_i) = sum NF(v_i)*w_i, of code
sum nf_i*Q^i.

So every ring with the same slice_key (GF(Q), the number of variables and
the relations' degrees and terms) may share one slice store: base_change
shares it with the scalar extensions of R, and one process may keep it
between requests.  That is sound because everything in it is a function
of the key alone.  A slice's rows are read off the relations' codes, which
are the same constants at every level of the tower, and the RREF of a
subspace with unit leading entries is unique, so its pivots, standard
monomials and normal forms are those every such ring computes.  A rank
test of is_linear_reduction is stored on the degree-d slice only for a
form x over GF(Q) itself (kernel_holding(x) is the slices' kernel), keyed
by x's terms: its verdict is rank N_x = HF(d) over GF(Q), read from the
slices of degrees d-1 and d alone.  A form over a larger field is tested
afresh.  A slice is stored only once built, by one append to the list of
slices, and a verdict only once its test is done, by one assignment, so a
refused request leaves only complete entries, and a shared slice or
verdict is the value a fresh ring would compute: no answer depends on
what was shared.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import accumulate
from math import comb, factorial
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CapExceeded,
    FieldMismatch,
    NoReductionFound,
    NotOneDimensional,
    PowerVanishes,
)
from .ffield import Field, UniPoly, distinct_root_count, extend_field, least_subfield
from .linalg import Echelon, Kernel, kernel_for

Monomial = tuple  # exponent vector, one entry per variable

CLOSURE_DEGREE_CAP = 64  # total degree of a Frobenius-power probe
DEFAULT_S_MAX = 3
# A degree-d slice of C columns holds a dense echelon over GF(p) on the
# C*s digit columns of the relations' field GF(p^s) (GradedQuotient.kernel),
# 8*(C*s)^2 bytes, so the cap bounds C*s.  From the CLI the relations lie
# over GF(p), s = 1, and a slice holds at most 18 MB, beside one block of at
# most C Macaulay rows.  On a 2-vCPU Xeon, with every slice below built on
# the way up, the degree-5 slice of 8 random quadrics in 9 variables (1287
# columns) takes 0.35-0.4 s, and the degree-6 slice of a monomial ideal in
# 8 variables (1716 columns, refused here) 1.0-1.1 s, its sparse rows still
# paying for the dense passes of every panel.
SLICE_COLUMN_CAP = 1500
STORE_BYTES = 1024  # charged per kept slice store (store_bytes): the slice list and the lock
SLICE_BYTES = 1024  # charged per kept slice besides its arrays: its objects and array headers
VERDICT_BYTES = 256  # charged per stored verdict besides the ints of its key: tuples and dict slot
KEY_INT_BYTES = 64  # charged per int of a stored verdict's key, with its share of the tuples around it


@lru_cache(maxsize=None)
def monomials_of_degree(nvars: int, d: int) -> tuple[Monomial, ...]:
    """All degree-d monomials in nvars variables, grevlex-descending.

    Within a fixed degree, grevlex-descending equals lexicographic order on
    the reversed exponent vector r, ascending, so they are listed by its
    successor step from r = (0, .., 0, d), with no recursion: the
    successor raises the entry before the last nonzero one r_j (j >= 1) by
    one and moves the rest r_j - 1 of that tail to the last place, the
    least tail of its sum; r = (d, 0, .., 0) is the last.
    """
    r = [0] * (nvars - 1) + [d]
    monos = []
    while True:
        monos.append(tuple(reversed(r)))
        j = nvars - 1
        while j and not r[j]:
            j -= 1
        if not j:
            return tuple(monos)
        rest, r[j] = r[j] - 1, 0
        r[j - 1] += 1
        r[-1] = rest


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


@lru_cache(maxsize=None)
def _index_table(nvars: int, d: int) -> np.ndarray:
    """C(s + j, j + 1) at flat position (j-1)*(d+1) + s, for 1 <= j <
    nvars - 1 and s <= d (see macaulay_matrix); every entry is below the
    slice's width."""
    return np.array(
        [comb(s + j, j + 1) for j in range(1, nvars - 1) for s in range(d + 1)], dtype=np.int64,
    )


@lru_cache(maxsize=4096)
def _prefix_sums(monos: tuple, nvars: int) -> np.ndarray:
    """Exponent prefix sums S_0, .., S_(n-2) of monomials in nvars
    variables (S_0 = 0 alone for one variable), one row of max(nvars - 1, 1)
    entries per monomial, so no monomials still give that width; kept per
    monomial tuple: the candidate forms of a reduction search share their
    monomials."""
    sums = np.array([list(accumulate(m[:-1])) or [0] for m in monos], dtype=np.int64)
    sums = sums.reshape(len(monos), max(nvars - 1, 1))
    sums.flags.writeable = False  # shared by every caller
    return sums


@lru_cache(maxsize=None)
def _multipliers(nvars: int, e: int, d: int, last_free: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The degree-e multipliers of a degree-d Macaulay matrix (see
    _multiplier_rows); with last_free, only those that x_n does not divide:
    the first C(e + n - 2, n - 2), as the x_n exponent is the most
    significant key of the grevlex order."""
    monos = monomials_of_degree(nvars, e)
    if last_free:
        monos = monos[:comb(e + nvars - 2, nvars - 2) if nvars > 1 else int(e == 0)]
    return _multiplier_rows(monos, nvars, d)


def _multiplier_rows(monos: tuple, nvars: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Multiplier monomials, one row each of a degree-d Macaulay matrix:
    the flat position of the last column of their rows less their S_0, and
    their later prefix sums shifted to their rows of _index_table(nvars, d)."""
    keys = _prefix_sums(monos, nvars)
    ncols = comb(d + nvars - 1, nvars - 1)
    ends = np.arange(ncols - 1, len(keys) * ncols, ncols) - keys[:, 0]
    return ends[:, None], keys[:, 1:] + (d + 1) * np.arange(nvars - 2)


def macaulay_matrix(nvars: int, gens: Sequence[HomogPoly], d: int, last_free: bool = False):
    """Yield the Macaulay matrix of gens in degree d: the code rows of
    {m*g : g in gens, deg(m*g) = d} over the degree-d columns, in blocks of
    at most as many rows as columns; with last_free, only the rows whose
    multiplier m is free of the last variable x_n.

    The generators come by degree, ascending, in their given order within a
    degree; each one's rows follow its multipliers m in grevlex order.  Zero
    generators and those of degree above d contribute nothing.

    A column is found from exponent prefix sums S_j = a_0 + .. + a_j,
    j < nvars - 1, counted from the last column: b comes after a exactly
    when b_i > a_i at the last variable i where they differ, and for each
    i >= 1 those b agree with a above i, so b_0 + .. + b_(i-1) < S_(i-1):
    they are the monomials of degree below S_(i-1) in i variables,
    C(S_(i-1) + i - 1, i) of them, which is S_0 for i = 1 and read from
    _index_table above.  Prefix sums add under multiplication, so the
    sums of m*g's terms are m's sums plus the terms' sums
    (HomogPoly.term_keys), and every generator of one degree shares the
    multipliers."""
    ncols = comb(d + nvars - 1, nvars - 1)
    by_degree: dict = {}
    for g in gens:
        if g.terms and g.degree <= d:
            by_degree.setdefault(g.degree, []).append(g)
    parts, nrows = [], 0
    for e in sorted(by_degree):
        mults = _multipliers(nvars, d - e, d, last_free)
        k, group = len(mults[0]), by_degree[e]
        while group and k:
            fit = (ncols - nrows) // k
            if not fit:
                yield _fill(parts, nrows, ncols, _index_table(nvars, d))
                parts, nrows = [], 0
                continue
            parts.append((nrows, mults, group[:fit]))
            nrows += k * len(group[:fit])
            group = group[fit:]
    if nrows:
        yield _fill(parts, nrows, ncols, _index_table(nvars, d))


def _fill(parts, nrows: int, ncols: int, table: np.ndarray) -> np.ndarray:
    """One block of macaulay_matrix: parts are (first row, multipliers,
    generators of one degree)."""
    block = np.zeros(nrows * ncols, dtype=np.int64)
    for first, (ends, keys), gens in parts:
        if len(gens) == 1:
            terms, codes = gens[0].term_keys()
        else:
            pairs = [g.term_keys() for g in gens]
            terms = np.concatenate([t for t, _ in pairs])
            codes = np.concatenate([c for _, c in pairs])
            # each generator's rows follow the previous one's
            step = len(keys) * ncols
            ends = ends + np.repeat(np.arange(0, step * len(gens), step), [len(c) for _, c in pairs])
        flat = ends - terms[:, 0]
        for j in range(keys.shape[1]):
            flat -= table.take(keys[:, j, None] + terms[:, j + 1])
        # put repeats the codes along each row
        block.put(flat + first * ncols if first else flat, codes)
    return block.reshape(nrows, ncols)


class HomogPoly:
    """Homogeneous polynomial: a degree tag plus monomial -> coefficient-code
    terms.

    The zero polynomial keeps its degree tag with an empty term map.
    """

    # _zero_count is set by plane_zero_count, _keys by term_keys
    __slots__ = ("field", "nvars", "degree", "terms", "_zero_count", "_keys")

    def __init__(self, field: Field, nvars: int, degree: int, terms: dict):
        clean = {}
        q = field.order
        for mono, coeff in terms.items():
            if len(mono) != nvars or any(e < 0 for e in mono):
                raise ValueError(f"bad monomial {mono} for {nvars} variables")
            if sum(mono) != degree:
                raise ValueError(f"term {mono} has degree {sum(mono)}, expected {degree}")
            if not 0 <= coeff < q:
                raise ValueError(f"coefficient code {coeff} is not an element of {field}")
            if coeff:
                clean[tuple(mono)] = coeff
        self.field = field
        self.nvars = nvars
        self.degree = degree
        self.terms = clean

    @classmethod
    def from_ints(cls, field, nvars, int_terms: dict) -> "HomogPoly":
        degrees = {sum(m) for m in int_terms}
        if len(degrees) != 1:
            raise ValueError("terms of mixed degree")
        return cls(
            field, nvars, degrees.pop(),
            {tuple(m): c % field.p for m, c in int_terms.items()},
        )

    def is_zero(self) -> bool:
        return not self.terms

    def term_keys(self) -> tuple[np.ndarray, np.ndarray]:
        """The exponent prefix sums of the terms (see macaulay_matrix) and
        their codes, as arrays, kept on the polynomial."""
        try:
            return self._keys
        except AttributeError:
            pass
        codes = np.fromiter(self.terms.values(), dtype=np.int64, count=len(self.terms))
        self._keys = (_prefix_sums(tuple(self.terms), self.nvars), codes)
        return self._keys

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return (
            self.field == other.field
            and self.nvars == other.nvars
            and self.terms == other.terms
            and (self.terms or self.degree == other.degree)
        )

    def __hash__(self):
        return hash((self.field, self.nvars, self.degree, frozenset(self.terms.items())))

    def _check(self, other):
        if self.field != other.field or self.nvars != other.nvars:
            raise FieldMismatch("polynomials over different rings")

    def __add__(self, other):
        self._check(other)
        if self.degree != other.degree and self.terms and other.terms:
            raise ValueError("sum of different degrees is not homogeneous")
        add = self.field.add
        terms = dict(self.terms)
        for m, c in other.terms.items():
            terms[m] = add(terms.get(m, 0), c)
        return HomogPoly(self.field, self.nvars, self.degree if self.terms else other.degree, terms)

    def __mul__(self, other):
        self._check(other)
        add, mul = self.field.add, self.field.mul
        out: dict = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                m = monomial_mul(ma, mb)
                out[m] = add(out.get(m, 0), mul(ca, cb))
        return HomogPoly(self.field, self.nvars, self.degree + other.degree, out)

    def __pow__(self, n: int) -> "HomogPoly":
        result = HomogPoly(self.field, self.nvars, 0, {(0,) * self.nvars: 1})
        for _ in range(n):
            result = result * self
        return result

    def frobenius_power(self, e: int) -> "HomogPoly":
        """p^e-th power, computed termwise (freshman's dream in char p)."""
        q = self.field.p**e
        return HomogPoly(
            self.field, self.nvars, self.degree * q,
            {tuple(x * q for x in m): self.field.pow(c, q) for m, c in self.terms.items()},
        )

    def format(self, var_names: Sequence[str]) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m in sorted(self.terms, key=lambda mm: tuple(reversed(mm))):
            c = self.field.format(self.terms[m])
            factors = []
            for name, e in zip(var_names, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(c)
            elif c == "1":
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        return self.format([f"x{i+1}" for i in range(self.nvars)])


@dataclass
class _SliceData:
    columns: tuple[Monomial, ...]
    echelon: Echelon          # RREF of the degree-d piece of I
    std_monomials: tuple[Monomial, ...]
    std_index: np.ndarray     # their columns, those without a pivot, as int64
    # is_linear_reduction's verdicts on forms over the slices' field, by terms
    verdicts: dict = dc_field(default_factory=dict)

    def normal_forms(self, rows: np.ndarray, kernel: Kernel) -> np.ndarray:
        """Normal forms modulo I_d of a code vector, or of each row of a
        block, over kernel's field GF(Q^m) in the slices' tower, through
        base-Q coordinates (module docstring); other codes raise
        FieldMismatch."""
        ech = self.echelon
        m = kernel.s // ech.kernel.s
        if m == 1:
            return ech.reduce(rows)
        Q = ech.kernel.field.order
        powers = Q ** np.arange(m)
        # row i*B + b holds digit i of row b's codes; the top digit stays
        # unreduced, so a code outside GF(Q^m) fails the slices' field check
        coords = rows.reshape(1, -1) // powers[:, None]
        coords[:-1] %= Q
        nf = ech.reduce(coords.reshape(-1, ech.ncols))
        return (powers @ nf.reshape(m, -1)).reshape(rows.shape)


@dataclass(frozen=True)
class BranchReport:
    """Result of the closure-quotient branch count with cross-checks."""

    dim_quotient: int
    branches_formula: int
    branches_multiplicity: int
    reduction_form: str
    reduction_scalar_extension: int
    n_used: int
    consistent: bool
    oracle_branches: Optional[int] = None
    oracle_status: str = "no-oracle"  # or "match" / "mismatch" (see crosscheck)


@dataclass
class ReductionResult:
    form: HomogPoly
    scalar_extension: int
    ring: "GradedQuotient"   # base-changed when scalar_extension > 1


@dataclass(frozen=True)
class RegularityCertificate:
    """HF(d) = e for every d >= n0, proven at degree m (see multiplicity):
    by the form of reduction, x*[R]_{m-1} = [R]_m and HF(m) = HF(m+1), or,
    when reduction is None, by Gotzmann persistence."""

    m: int
    e: int
    n0: int
    reduction: Optional[ReductionResult]


class GradedQuotient:
    """Standard-graded quotient R = k[x1..xn]/I with per-degree slices.

    R's mutable state is its regularity certificate and its slice store,
    store = (slices, lock): the list of its slices by degree, which also
    keep the verdicts of is_linear_reduction, and the lock that
    serializes filling it.  The store may be shared by every ring with
    R's slice_key (module docstring): base_change shares it, and a caller
    may hand R a kept one before use.  The list grows at its end: a
    request for degree d appends every degree from len(slices) up to d,
    each grown from the one below (see _build_slice), and reads of a
    stored slice are safe to share.  A ring starts with an empty store.
    """

    def __init__(
        self,
        field: Field,
        nvars: int,
        relations: Sequence[HomogPoly],
        var_names: Optional[Sequence[str]] = None,
    ):
        if nvars < 1:
            raise ValueError("need at least one variable")
        rels = []
        for g in relations:
            if g.field != field or g.nvars != nvars:
                raise FieldMismatch("relation over a different ring")
            if g.is_zero():
                continue
            if g.degree < 1:
                raise ValueError("relations must have positive degree")
            rels.append(g)
        self.field = field
        self.nvars = nvars
        self.relations = tuple(rels)
        self.var_names = tuple(var_names) if var_names else tuple(f"x{i+1}" for i in range(nvars))
        # the slices lie over the least field holding the relations' codes
        top = max((c for g in rels for c in g.terms.values()), default=0)
        self.kernel = kernel_for(least_subfield(field, top))
        self.max_rel_degree = max((g.degree for g in rels), default=0)
        self.certificate: Optional[RegularityCertificate] = None
        self.store: tuple[list[_SliceData], threading.Lock] = ([], threading.Lock())

    def __repr__(self):
        rels = ", ".join(g.format(self.var_names) for g in self.relations)
        return f"{self.field}[{','.join(self.var_names)}]/({rels or '0'})"

    # -- degree slices -----------------------------------------------------

    def slice(self, d: int) -> _SliceData:
        if d < 0:
            raise ValueError("degree must be >= 0")
        slices, lock = self.store
        with lock:
            if d < len(slices):
                return slices[d]
            # widths grow with d, so no degree below d is refused either
            ncols = comb(d + self.nvars - 1, self.nvars - 1)
            s = self.kernel.s
            if ncols * s > SLICE_COLUMN_CAP:
                digits = f" of {s} GF({self.field.p}) digits each" if s > 1 else ""
                raise CapExceeded(
                    f"the degree-{d} slice has {ncols} columns{digits}, above the cap of "
                    f"{SLICE_COLUMN_CAP} columns"
                )
            for e in range(len(slices), d + 1):
                slices.append(self._build_slice(e))
            return slices[d]

    def _build_slice(self, d: int) -> _SliceData:
        """The degree-d slice, grown from the stored slice below.

        Its echelon starts as x_n*RREF(I_{d-1}), with no elimination.
        Multiplying by x_n maps the degree-(d-1) monomials, in order, onto
        the last columns of degree d (those with a_n >= 1, whose x_n
        exponent is the most significant grevlex key), and a row b_i of the
        RREF becomes x_n*b_i with coefficient b_i(mu) at x_n*mu: unit at
        x_n times its pivot, its leading column, and zero at every other
        row's.  So the shifted rows are an RREF of x_n*I_{d-1}
        (Echelon.shifted).  Of the Macaulay rows m*g only those with x_n
        not dividing m go in: every other one is x_n*((m/x_n)*g), already
        in x_n*I_{d-1}, so the rows span I_d as before.  The RREF of a
        subspace with unit leading entries is unique, so the pivots,
        standard monomials and normal forms are those of eliminating the
        whole Macaulay matrix."""
        columns = monomials_of_degree(self.nvars, d)
        ech = self.store[0][d - 1].echelon.shifted(len(columns)) if d else Echelon(self.kernel, 1)
        for block in macaulay_matrix(self.nvars, self.relations, d, last_free=True):
            ech.add_row(block)
            del block  # before the next block is built beside it
        pivots = set(ech.pivots)
        std = [i for i in range(len(columns)) if i not in pivots]
        return _SliceData(columns, ech, tuple(columns[i] for i in std), np.array(std, dtype=np.int64))

    def kernel_holding(self, *forms: HomogPoly) -> Kernel:
        """The kernel of the least field holding the relations and the codes
        of forms, which must be forms over R (else FieldMismatch)."""
        if any(f.field != self.field or f.nvars != self.nvars for f in forms):
            raise FieldMismatch("form over a different ring")
        top = max((c for f in forms for c in f.terms.values()), default=0)
        return self.kernel if top < self.kernel.field.order else kernel_for(least_subfield(self.field, top))

    def product_map(self, f: HomogPoly, d: int) -> np.ndarray:
        """N_f, multiplication by a form f from [R]_e to [R]_d, e = d - deg f:
        the HF(e) x HF(d) code matrix over kernel_holding(f)'s field whose
        row i is the normal form of f*mu_i modulo I_d on the standard columns
        of degree d, mu_i the i-th standard monomial of degree e.  A zero f,
        or one of degree above d, gives no rows.  They span f*[R]_e:
        S_e = span(std_e) + I_e and f*I_e lies in I_d, so f*S_e + I_d =
        f*span(std_e) + I_d, and rows reduced modulo I_d vanish at its
        pivots, so a vector of [R]_d lies in f*[R]_e exactly when its
        standard columns lie in N_f's row span."""
        return self._product_map(f, d, self.kernel_holding(f))

    def _product_map(self, f: HomogPoly, d: int, kernel: Kernel) -> np.ndarray:
        """product_map over kernel, which is kernel_holding(f)."""
        target = self.slice(d)
        std = self.slice(d - f.degree).std_monomials if f.terms and f.degree <= d else ()
        if not std:
            return np.zeros((0, len(target.std_index)), dtype=np.int64)
        mults = _multiplier_rows(std, self.nvars, d)
        rows = _fill([(0, mults, [f])], len(std), len(target.columns), _index_table(self.nvars, d))
        return target.normal_forms(rows, kernel).take(target.std_index, axis=1)


# -- operations --------------------------------------------------------------


def hilbert_function(R: GradedQuotient, d: int) -> int:
    return len(R.slice(d).std_monomials)


def multiplicity(R: GradedQuotient, s_max: int = DEFAULT_S_MAX) -> tuple[int, int]:
    """Stable Hilbert function value e and the least N with HF(d) = e for
    every d >= N, both proven by a regularity certificate (m, x).

    m is the least degree >= max(D, 1), D the top relation degree, with
    HF(m-1) >= HF(m) = HF(m+1) at which some linear form x, searched in
    find_linear_reduction's order over GF(q^s) for s = 1..s_max, gives
    x*[R]_{m-1} = [R]_m.  Surjectivity in degree m carries up one degree,
    [R]_{m+1} = [R]_1*x*[R]_{m-1} = x*[R]_m, so x: [R]_m -> [R]_{m+1} is
    onto, and it is injective exactly when HF(m) = HF(m+1).  With I
    generated in degrees <= m, (I + xS)_m = S_m and (I : x)_m = I_m make I
    m-regular (Bayer-Stillman, Invent. Math. 87, 1987, Thm 1.10,
    (b) => (a), which needs no genericity), so HF agrees with the Hilbert
    polynomial from degree m on.  x is onto in every degree from m-1 on,
    so HF does not increase there, and the polynomial is the constant
    e = HF(m).  Scalar extension changes neither the Hilbert function nor
    regularity, so x may lie over GF(q^s), in a ring from base_change that
    shares R's slices.  Only slices up to m+1 are built, and N is the least
    index with HF(N..m) = e.

    When no candidate certifies such an m but HF(m) <= m, Gotzmann's
    persistence theorem (Bruns-Herzog, Thm 4.3.3) proves the same without a
    form: a value a <= m is a sum of a binomials C(i, i) in its Macaulay
    representation, so a^<m> = a, HF(m+1) = HF(m)^<m> persists, and
    HF(d) = HF(m) for every d >= m.  This ends the sweep where no form of
    GF(q^s), s <= s_max, is a parameter, such as x^p*y - x*y^p with s_max = 1.

    The search is a refusal past degree 4*max(D,1)*n (NotOneDimensional),
    never an answer.  So is e = 0, a zero-dimensional (Artinian) ring:
    HF(m) = 0 gives [R]_d = [R]_1^(d-m)*[R]_m = 0 for every d >= m, and
    the first such m >= D meets the condition above.  The certificate is
    kept in R.certificate.
    """
    if R.certificate is not None:
        return R.certificate.e, R.certificate.n0
    top = max(R.max_rel_degree, 1)
    bound = 4 * top * R.nvars
    hf = [hilbert_function(R, d) for d in range(top + 1)]
    for m in range(top, bound):
        hf.append(hilbert_function(R, m + 1))
        if not hf[m - 1] >= hf[m] == hf[m + 1]:
            continue
        if not hf[m]:
            raise NotOneDimensional(f"the ring is zero-dimensional: HF(d) = 0 for d >= {hf.index(0)}")
        red = _first_reduction(R, m, s_max)
        if red is None and hf[m] > m:
            continue
        n0 = m
        while n0 > 0 and hf[n0 - 1] == hf[m]:
            n0 -= 1
        R.certificate = RegularityCertificate(m, hf[m], n0, red)
        return hf[m], n0
    raise NotOneDimensional(f"no regularity certificate below degree {bound}")


def _std_echelon(kernel: Kernel, hf: int) -> Echelon:
    """An echelon over kernel's field GF(p^s), perhaps larger than the slices',
    on hf standard columns: like a slice it is refused above SLICE_COLUMN_CAP."""
    if hf * kernel.s > SLICE_COLUMN_CAP:
        raise CapExceeded(f"a rank test on {hf} standard columns of {kernel.s} GF({kernel.field.p}) "
                          f"digits each is above the cap of {SLICE_COLUMN_CAP} columns")
    return Echelon(kernel, hf)


def ideal_membership(R: GradedQuotient, f: HomogPoly, J: Sequence[HomogPoly]) -> bool:
    """Is f in the ideal J*R?  In degree d = deg f, (J*R)_d is the sum of
    the images g*[R]_{d-deg g}, so f lies in it exactly when N_f, one row
    as std_0 = {1}, lies in the row span of the N_g (GradedQuotient.product_map)."""
    target = R.product_map(f, f.degree)
    span = _std_echelon(R.kernel_holding(f, *J), target.shape[1])
    for g in J:
        span.add_row(R.product_map(g, f.degree))
    return span.contains(target)


def linear_form(R: GradedQuotient, coeffs: Sequence[int]) -> HomogPoly:
    terms = {}
    for i, c in enumerate(coeffs):
        mono = tuple(1 if j == i else 0 for j in range(R.nvars))
        terms[mono] = c
    return HomogPoly(R.field, R.nvars, 1, terms)


def is_linear_reduction(R: GradedQuotient, x: HomogPoly, d: int) -> bool:
    """Does multiplication by x map [R]_{d-1} onto [R]_d?

    One degree decides it: I_d + x*S_{d-1} must span S_d.  In a
    standard-graded ring x*[R]_n = [R]_{n+1} then holds for all higher n,
    since [R]_{n+2} = [R]_1*[R]_{n+1} = [R]_1*x*[R]_n = x*[R]_{n+1}.  So
    at d = n0+1, n0 the stabilization index of multiplicity(R), it says
    whether x reduces the irrelevant ideal.  The verdict is
    rank N_x = HF(d) (GradedQuotient.product_map), taken in an echelon
    over x's field; for a form over the slices' own field it is read from,
    or stored on, the degree-d slice (module docstring)."""
    if x.degree != 1:
        raise ValueError("reduction candidate must be a linear form")
    kernel = R.kernel_holding(x)
    verdicts = R.slice(d).verdicts if kernel is R.kernel else {}
    key = tuple(x.terms.items())
    verdict = verdicts.get(key)
    if verdict is None:
        image = R._product_map(x, d, kernel)
        verdicts[key] = verdict = _std_echelon(kernel, image.shape[1]).add_row(image) == image.shape[1]
    return verdict


def _codes(q: int, k: int, zeros: Optional[bool]):
    """Tuples of codes in range(q)^k in lexicographic order, lazily (a
    range of 2^31 codes does not fit in memory): with no zero coordinate
    (zeros False), with at least one (True), or all of them (None)."""
    if k == 0:
        if zeros is not True:
            yield ()
        return
    for head in range(1 if zeros is False else 0, q):
        # once a zero is placed, the tail is free
        rest = None if zeros and head == 0 else zeros
        for tail in _codes(q, k - 1, rest):
            yield (head,) + tail


def _projective_forms(q: int, n: int):
    """One coefficient tuple per line through the origin of GF(q)^n: the
    nonzero tuples whose first nonzero code is 1.  Those with no zero
    coordinate (the generic forms) come first, then the rest, each part in
    lexicographic order."""
    for tail in _codes(q, n - 1, False):
        yield (1,) + tail
    # more leading zeros is lexicographically smaller
    for lead in range(n - 1, -1, -1):
        for tail in _codes(q, n - lead - 1, True if lead == 0 else None):
            yield (0,) * lead + (1,) + tail


def _first_reduction(R: GradedQuotient, d: int, s_max: int) -> Optional[ReductionResult]:
    """The first linear form x over GF(q^s), s = 1..s_max in turn, with
    x*[R]_{d-1} = [R]_d, one form per projective class.

    The order is that of all nonzero forms, those with no zero coordinate
    first, each part in lexicographic order of codes, with every form that
    is not a class representative left out.  The verdict is the same for x
    and lambda*x, lambda != 0, since both span x*S_{d-1}.  Scaling keeps
    the zero pattern, so a class lies in one part, and its members first
    differ at their first nonzero coordinate, which runs over every nonzero
    code.  Code 1 is the least of them, so the class's first member in the
    full order is its representative with leading coefficient 1.  The first
    success in the full order is therefore the first member of a class
    that succeeds, and no earlier class succeeds: it is the first success
    among representatives, which is the form returned.

    At s >= 2 a class whose codes all lie below q = R.field.order is a
    class over GF(q), refuted at s = 1 in the same degree: a base-field
    code is the code of the same constant over GF(q^s), and the rank of
    x*S_{d-1} modulo I_d does not change under scalar extension.  So the
    search skips it, and the first success is the same."""
    q = R.field.order
    for s in range(1, s_max + 1):
        ring = R if s == 1 else base_change(R, s)
        for combo in _projective_forms(ring.field.order, ring.nvars):
            if s > 1 and max(combo) < q:
                continue
            x = linear_form(ring, combo)
            if is_linear_reduction(ring, x, d):
                return ReductionResult(x, s, ring)
    return None


def find_linear_reduction(R: GradedQuotient, s_max: int = DEFAULT_S_MAX) -> ReductionResult:
    """First linear form with x*[R]_{n0} = [R]_{n0+1}, one per projective
    class in _first_reduction's order, extending scalars to GF(q^s),
    s <= s_max, if needed.  It is also the first success among all nonzero
    forms in that order (proof in _first_reduction), and its first nonzero
    coefficient is 1.  When the regularity certificate sits at m = n0+1 it
    ran this very search, so its form is the answer; otherwise the search
    reruns at n0+1 <= m+1, where R's slices are already built."""
    _, n0 = multiplicity(R, s_max)
    cert = R.certificate
    if cert.m == n0 + 1 and cert.reduction and cert.reduction.scalar_extension <= s_max:
        return cert.reduction
    red = _first_reduction(R, n0 + 1, s_max)
    if red is None:
        raise NoReductionFound(s_max)
    return red


def base_change(R: GradedQuotient, s: int) -> GradedQuotient:
    """R tensored up to the degree-s scalar extension of its base field.

    A base-field code is the code of the same constant in the extension, so
    the relations keep their coefficients, their field and so R's slices:
    the RREF of I_d is also its RREF over every extension.  The new ring
    shares R's slice store (module docstring)."""
    ext = extend_field(R.field, s)
    rels = [HomogPoly(ext, g.nvars, g.degree, g.terms) for g in R.relations]
    S = GradedQuotient(ext, R.nvars, rels, R.var_names)
    S.store = R.store
    return S


def slice_key(R: GradedQuotient) -> tuple:
    """What R's slice store is a function of (module docstring): the
    slices' field GF(Q), the number of variables and the relations'
    degrees and terms."""
    return R.kernel.field, R.nvars, tuple((g.degree, tuple(g.terms.items())) for g in R.relations)


def store_bytes(store: tuple[list, threading.Lock]) -> int:
    """What a kept slice store is charged: STORE_BYTES, and per slice
    SLICE_BYTES, the bytes of its arrays, 8 per standard monomial (a
    pointer: the monomials are monomials_of_degree's) and, per stored
    verdict, VERDICT_BYTES and KEY_INT_BYTES per int of its key (n + 1 per
    term in n variables).  For every store kept by a `curves` or
    `extension` benchmark pass (seeds 1 and 2) the charge was above the
    memory tracemalloc saw freed when it was dropped."""
    size = STORE_BYTES
    for data in store[0]:
        size += SLICE_BYTES + data.echelon.nbytes + data.std_index.nbytes + 8 * len(data.std_monomials)
        if data.verdicts:
            ints = sum(map(len, data.verdicts)) * (len(data.columns[0]) + 1)
            size += VERDICT_BYTES * len(data.verdicts) + KEY_INT_BYTES * ints
    return size


def frobenius_power(J: Sequence[HomogPoly], e: int) -> list[HomogPoly]:
    """Bracket power J^[p^e]: raise each generator to the p^e-th power."""
    if e < 0:
        raise ValueError("Frobenius exponent must be >= 0")
    return [g.frobenius_power(e) for g in J]


def frobenius_closure_membership(
    R: GradedQuotient, f: HomogPoly, J: Sequence[HomogPoly], e_max: int
) -> Optional[int]:
    """Least e <= e_max with f^(p^e) in J^[p^e]*R, or None if there is none.

    A probe whose power f^(p^e) would pass total degree CLOSURE_DEGREE_CAP
    is refused with CapExceeded before its slice is built."""
    if f.is_zero():
        return 0
    p = R.field.p
    for e in range(e_max + 1):
        if f.degree * p**e > CLOSURE_DEGREE_CAP:
            raise CapExceeded(
                f"degree {f.degree * p**e} at e={e} exceeds the cap {CLOSURE_DEGREE_CAP}"
            )
        if ideal_membership(R, f.frobenius_power(e), frobenius_power(J, e)):
            return e
    return None


def closure_quotient_dim(R: GradedQuotient, x: HomogPoly, n: int) -> int:
    """dim_k m^n / ((x^n) + m^(n+1)), computed in the degree-n slice.

    The degree-n piece of m^n is all of [R]_n and the degree-n piece of
    (x^n) + m^(n+1) is the span of x^n, so the dimension is HF(n) minus one
    provided x^n does not vanish in R.
    """
    kernel = R.kernel_holding(x)
    data = R.slice(n)
    nf = data.normal_forms(linear_power_vector(x, n, data.columns), kernel)
    if not np.any(nf) and n > 0:
        base = x.format(R.var_names)
        if len(x.terms) > 1:
            base = f"({base})"
        raise PowerVanishes(
            f"{base}^{n} = 0 in R: the ring is not reduced "
            "or the form is not a parameter"
        )
    return hilbert_function(R, n) - 1


def linear_power_vector(x: HomogPoly, n: int, columns: Sequence[Monomial]) -> np.ndarray:
    """The codes of x^n on the degree-n monomials `columns`, for a linear
    form x = sum c_i x_i, by the multinomial theorem: the coefficient of
    x^a is n! / (a_1! .. a_k!) * prod c_i^(a_i).  The multinomial is an
    integer, whose residue mod p is its code in every field of
    characteristic p.  The products are taken in the least field of x's
    tower holding its coefficients, where they have the same codes, so a
    form over GF(p) in an extension ring reads no extension tables."""
    field = least_subfield(x.field, max(x.terms.values(), default=0))
    c = [0] * x.nvars
    for mono, code in x.terms.items():
        c[mono.index(1)] = code
    powers = []
    for ci in c:
        row = [1]
        for _ in range(n):
            row.append(field.mul(row[-1], ci))
        powers.append(row)
    fact = [factorial(i) for i in range(n + 1)]
    vec = []
    for a in columns:
        code = fact[n]
        for ai in a:
            code //= fact[ai]
        code %= field.p
        for ai, row in zip(a, powers):
            if ai and code:
                code = field.mul(code, row[ai])
        vec.append(code)
    return np.array(vec, dtype=np.int64)


def reducedness_status(R: GradedQuotient) -> str:
    """Partial reducedness verification.

    Monomial ideals are checked via squarefreeness of the minimal
    generators; a single relation in two variables via one squarefree
    decomposition (see plane_zero_count).  Everything else is
    reported unverified.
    """
    rels = R.relations
    if not rels:
        return "verified-polynomial-ring"
    if all(len(g.terms) == 1 for g in rels):
        monos = [next(iter(g.terms)) for g in rels]
        minimal = [
            m for m in monos
            if not any(o != m and all(a <= b for a, b in zip(o, m)) for o in monos)
        ]
        if all(all(e <= 1 for e in m) for m in minimal):
            return "verified-monomial"
        return "not-reduced"
    if R.nvars == 2 and len(rels) == 1:
        if plane_zero_count(rels[0]) is None:
            return "not-reduced"
        return "verified-squarefree"
    return "unverified"


def dehomogenize(f: HomogPoly, at: int) -> UniPoly:
    """Set variable `at` to 1 in a two-variable form; the other becomes t."""
    if f.nvars != 2:
        raise ValueError("dehomogenization is defined for two variables")
    other = 1 - at
    coeffs = [0] * (f.degree + 1)
    for m, c in f.terms.items():
        coeffs[m[other]] = c
    return UniPoly(f.field, coeffs)


def plane_zero_count(f: HomogPoly) -> Optional[int]:
    """Distinct zeros in P^1 over the algebraic closure of a form f in two
    variables, or None when f is zero or has a repeated factor.

    Write f = x^a * h with x not dividing h.  Over the algebraic closure h
    is a product of linear forms b*x + c*y with c != 0, and h(1, t) =
    f(1, t) has the root -b/c for each, so f is squarefree exactly when
    a <= 1 and f(1, t) has deg f(1, t) distinct roots.  Its zeros are then
    those roots and [0:1] when a = 1: one squarefree decomposition decides
    and counts.  The decomposition runs over the least field of f's tower
    holding its coefficients: the number of distinct roots in the
    algebraic closure does not depend on the field f is read over, and a
    base-field code is the same constant in every field of the tower.
    The result is kept on f, so the verdict, the oracle count and the
    reducedness diagnostic of one request share it; threads racing on the
    same f at worst compute it twice and store the same value."""
    try:
        return f._zero_count
    except AttributeError:
        pass
    count = None
    if not f.is_zero():
        a = min(m[0] for m in f.terms)
        if a <= 1:
            g = dehomogenize(f, at=0)
            g = UniPoly(least_subfield(g.field, max(g.coefficients)), g.coefficients)
            roots = distinct_root_count(g) if g.degree >= 1 else 0
            if roots == g.degree:
                count = roots + a
    f._zero_count = count
    return count


def branch_count(R: GradedQuotient, s_max: int = DEFAULT_S_MAX) -> BranchReport:
    """Branch count via the closure-quotient formula, cross-checked against
    the Hilbert-Samuel multiplicity.

    The caller asserts R is reduced and one-dimensional; see
    reducedness_status for the partial checks.
    """
    e, n0 = multiplicity(R, s_max)
    red = find_linear_reduction(R, s_max)
    n = n0
    dim = closure_quotient_dim(red.ring, red.form, n)
    formula = dim + 1
    return BranchReport(
        dim_quotient=dim,
        branches_formula=formula,
        branches_multiplicity=e,
        reduction_form=red.form.format(R.var_names),
        reduction_scalar_extension=red.scalar_extension,
        n_used=n,
        consistent=formula == e,
    )
