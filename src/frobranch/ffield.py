"""Exact arithmetic in GF(p) and GF(p^s) plus univariate polynomial tools.

Field elements are plain integer codes.  The code of an element is the
base-p digit expansion of its GF(p)-coefficient vector, coordinate 0 least
significant: in GF(p) it is the representative in [0, p); in an extension
base[u]/(modulus) the element sum c_i u^i has code sum code(c_i) * Q^i with
Q the order of the base.  Codes count the elements in a fixed order, 0 is
zero and 1 is one, and a base-field code is also the code of the same
constant in any extension built on top of it, so scalar extension leaves
coefficients unchanged.  Fields never coerce across each other; polynomial
and ring operations check that their operands share a field.

A prime field computes modulo p.  An extension field is opened by
extend_field in three steps.  One sieve marks the code of every product of
two monic polynomials of positive degree over the base, so the least
unmarked code is the first irreducible modulus in the coefficient order.
The constructor then builds the regular representation of
base[u]/(modulus) over GF(p), whose basis matrices certify irreducibility
once by Berlekamp's criterion (f squarefree and b -> b^p fixing only
GF(p)); a sieve that picked a reducible code is refused there.  Sums work
digit by digit and need no table.  The one element table, the scalar
matrices (mats[c] multiplies by c), combines the basis matrices by each
code's digits in one product on its first read; a product of two elements
is one matrix applied to digits, and inverses and powers are
square-and-multiply over products.  Work whose codes all lie in a subfield
runs there (least_subfield): graded's slices, plane-curve counts and power
vectors, so an extension none of whose own elements is multiplied never
builds its table.

The polynomial layer provides the Euclidean gcd, characteristic-p
squarefree decomposition (with p-th root extraction when the derivative
vanishes; valid because finite fields are perfect) and distinct-root
counting, which is what the branch oracle consumes.
"""

from __future__ import annotations

import operator
from functools import cached_property, lru_cache
from typing import Sequence, Union

import numpy as np

from .errors import (
    CapExceeded,
    CompositeCharacteristic,
    FieldMismatch,
    ReducibleModulus,
    ZeroPolynomial,
)
from .linalg import Echelon, kernel_for

MAX_PRIME = 2**31
MAX_EXTENSION_DEGREE = 8

# Extension fields build a q x D x D stack of scalar matrices from the
# modulus (D the degree over GF(p)), so they are limited to this order
# (prime fields of any size below MAX_PRIME need none).
MAX_TABLE_ORDER = 4096


def _check_caps(p: int, degree: int) -> None:
    """Refuse a GF(p^degree) above the degree or the table-order cap."""
    if degree > MAX_EXTENSION_DEGREE:
        raise CapExceeded(f"extension degree cap exceeded: {degree} > {MAX_EXTENSION_DEGREE}")
    if p**degree > MAX_TABLE_ORDER:
        raise CapExceeded(f"extension field of order {p**degree} is above the table-order cap {MAX_TABLE_ORDER}")


@lru_cache(maxsize=64)  # semigroup code re-checks p once per element
def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_characteristic(p: int) -> None:
    """Reject a characteristic above MAX_PRIME, then one that is not prime.

    The cap comes first so that a huge p never reaches trial division."""
    if p > MAX_PRIME:
        raise CapExceeded(f"characteristic cap exceeded: {p} > {MAX_PRIME}")
    if not _is_prime(p):
        raise CompositeCharacteristic(f"{p} is not prime")


def _element(field: "Field", a: int) -> int:
    """a as an int, refused with ValueError unless it is a code of field:
    an integer (operator.index, so no float) in [0, q)."""
    try:
        code = operator.index(a)
    except TypeError:
        code = None
    if code is None or not 0 <= code < field.order:
        raise ValueError(f"code {a} is not an element of {field}")
    return code


class PrimeField:
    """GF(p); the code of an element is its representative in [0, p).

    add, sub, neg and mul return the code of the residue of any integers
    and are the hot path of UniPoly.divmod, so they check nothing; inv and
    pow refuse a code outside [0, p), so a multiple of p gets no inverse.
    """

    degree = 1

    def __init__(self, p: int):
        check_characteristic(p)
        self.p = p
        self.order = p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        a = _element(self, a)
        if not a:
            raise ZeroDivisionError("inverse of zero field element")
        return pow(a, self.p - 2, self.p)

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(_element(self, a), n, self.p)

    def format(self, a: int) -> str:
        return str(a)


class ExtensionField:
    """Degree-s extension base[u]/(modulus) of an existing field.

    The constructor checks the caps, makes the modulus monic, builds its
    regular basis over GF(p) and certifies the modulus irreducible with it
    (_is_field), so equality, hashing and ReducibleModulus need no table.

    The one table, `mats`, comes on its first read: `mats[c]` is the D x D
    GF(p)-matrix of multiplication by c, D the degree over GF(p):
    `mats[c, i, j]` is digit i of c * p^j.  Sums and negatives work digit
    by digit on the codes and need no table; a product is mats[a] applied
    to the digits of b, and inverses and powers are square-and-multiply
    over products.  Every operation refuses a code outside [0, q) with
    ValueError.  Two threads that race on the first read may both build
    mats; they build equal arrays.
    """

    def __init__(self, base: "Field", modulus: "UniPoly"):
        if modulus.field != base:
            raise FieldMismatch("modulus must be a polynomial over the base field")
        if modulus.degree < 2:
            raise ValueError("extension modulus must have degree >= 2")
        modulus = modulus.monic()
        self.base = base
        self.modulus = modulus
        self.p = base.p
        self.s = modulus.degree
        self.degree = base.degree * self.s
        _check_caps(self.p, self.degree)
        self.order = self.p**self.degree
        self._basis = _regular_basis(base, modulus)
        if not _is_field(modulus, self._basis):
            raise ReducibleModulus(f"modulus {modulus} is reducible")

    @cached_property
    def mats(self) -> np.ndarray:
        """The basis matrices combined by each code's digits."""
        p, D = self.p, self.degree
        digits = np.arange(self.order)[:, None] // p ** np.arange(D, dtype=np.int64) % p
        return digits.dot(self._basis.reshape(D, D * D)).reshape(-1, D, D) % p

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.base == self.base
            and other.modulus.coefficients == self.modulus.coefficients
        )

    def __hash__(self):
        return hash(("ExtensionField", self.base, self.modulus.coefficients))

    def __repr__(self):
        return f"GF({self.p}^{self.degree})"

    def _digits(self, a: int) -> list:
        a = _element(self, a)
        p = self.p
        return [a // p**i % p for i in range(self.degree)]

    def _code(self, digits) -> int:
        """The code of integer digits, lowest first, each read mod p."""
        code = 0
        for d in reversed(digits):
            code = code * self.p + d % self.p
        return code

    def add(self, a: int, b: int) -> int:
        return self._code([x + y for x, y in zip(self._digits(a), self._digits(b))])

    def neg(self, a: int) -> int:
        return self.sub(0, a)

    def sub(self, a: int, b: int) -> int:
        return self._code([x - y for x, y in zip(self._digits(a), self._digits(b))])

    def mul(self, a: int, b: int) -> int:
        return self._code(self.mats[_element(self, a)].dot(self._digits(b)).tolist())

    def inv(self, a: int) -> int:
        if not _element(self, a):
            raise ZeroDivisionError("inverse of zero field element")
        return self.pow(a, -1)

    def pow(self, a: int, n: int) -> int:
        a = _element(self, a)
        if not a:
            if n < 0:
                raise ZeroDivisionError("negative power of zero field element")
            return 0 if n else 1
        # a^(q-1) = 1, so n counts modulo q - 1, a negative n included
        n, power = n % (self.order - 1), 1
        while n:
            if n & 1:
                power = self.mul(power, a)
            a, n = self.mul(a, a), n >> 1
        return power

    def format(self, a: int) -> str:
        """Nested coefficient tuple over the tower, lowest power first."""
        q = self.base.order
        return "(" + ", ".join(self.base.format(a // q**i % q) for i in range(self.s)) + ")"


Field = Union[PrimeField, ExtensionField]


def least_subfield(field: Field, top: int) -> Field:
    """The least field of field's tower (field, field.base, .., GF(p))
    holding every code up to top: a base holds the codes below its order."""
    while isinstance(field, ExtensionField) and top < field.base.order:
        field = field.base
    return field


class UniPoly:
    """Immutable univariate polynomial, coefficient codes lowest degree first.

    The zero polynomial has an empty coefficient tuple; otherwise the
    leading coefficient is nonzero.
    """

    __slots__ = ("field", "coefficients")

    def __init__(self, field: Field, coefficients: Sequence[int]):
        coeffs = list(coefficients)
        if coeffs and not (0 <= min(coeffs) and max(coeffs) < field.order):
            raise ValueError(f"coefficient codes {coeffs} are not all elements of {field}")
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.field = field
        self.coefficients = tuple(coeffs)

    @classmethod
    def zero(cls, field: Field) -> "UniPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "UniPoly":
        return cls(field, (1,))

    @classmethod
    def t(cls, field: Field) -> "UniPoly":
        return cls(field, (0, 1))

    @classmethod
    def from_ints(cls, field: Field, ints: Sequence[int]) -> "UniPoly":
        """Polynomial with the integer coefficients read as constants mod p."""
        return cls(field, [k % field.p for k in ints])

    @property
    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coefficients) - 1

    def is_zero(self) -> bool:
        return not self.coefficients

    def __eq__(self, other):
        if not isinstance(other, UniPoly):
            return NotImplemented
        return self.field == other.field and self.coefficients == other.coefficients

    def __hash__(self):
        return hash((self.field, self.coefficients))

    def _check(self, other: "UniPoly"):
        if self.field != other.field:
            raise FieldMismatch("polynomials over different fields")

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return UniPoly.zero(self.field)
        add, mul = self.field.add, self.field.mul
        out = [0] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if not a:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] = add(out[i + j], mul(a, b))
        return UniPoly(self.field, out)

    def scale(self, c: int) -> "UniPoly":
        mul = self.field.mul
        return UniPoly(self.field, [mul(a, c) for a in self.coefficients])

    def divmod(self, other: "UniPoly"):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        sub, mul = self.field.sub, self.field.mul
        rem = list(self.coefficients)
        dlead = self.field.inv(other.coefficients[-1])
        dn = other.degree
        quot = [0] * max(0, len(rem) - dn)
        for k in range(len(rem) - dn - 1, -1, -1):
            c = mul(rem[k + dn], dlead)
            if c:
                quot[k] = c
                for j, b in enumerate(other.coefficients):
                    rem[k + j] = sub(rem[k + j], mul(c, b))
        return UniPoly(self.field, quot), UniPoly(self.field, rem[:dn])

    def __floordiv__(self, other):
        return self.divmod(other)[0]

    def __mod__(self, other):
        return self.divmod(other)[1]

    def monic(self) -> "UniPoly":
        if self.is_zero() or self.coefficients[-1] == 1:
            return self
        return self.scale(self.field.inv(self.coefficients[-1]))

    def derivative(self) -> "UniPoly":
        field = self.field
        return UniPoly(
            field,
            [field.mul(c, i % field.p) for i, c in enumerate(self.coefficients) if i > 0],
        )

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coefficients):
            if not c:
                continue
            text = self.field.format(c)
            if i == 0:
                parts.append(text)
            elif i == 1:
                parts.append(f"{text}*t")
            else:
                parts.append(f"{text}*t^{i}")
        return " + ".join(parts)


def frob_root(field: Field, c: int) -> int:
    """The unique p-th root of c (finite fields are perfect).

    In GF(p) every element is its own p-th root (Fermat); in GF(p^s) the
    root is c^(p^(s-1)) since c^(p^s) = c.
    """
    s = field.degree
    if s == 1:
        return c
    return field.pow(c, field.p ** (s - 1))


def poly_gcd(f: UniPoly, g: UniPoly) -> UniPoly:
    """Monic gcd by the Euclidean algorithm; gcd(0, 0) = 0."""
    if f.field != g.field:
        raise FieldMismatch("gcd of polynomials over different fields")
    a, b = f, g
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def _pth_root_poly(f: UniPoly) -> UniPoly:
    """p-th root of a polynomial of the form u(t^p)."""
    p = f.field.p
    coeffs = []
    for i, c in enumerate(f.coefficients):
        if i % p == 0:
            coeffs.append(frob_root(f.field, c))
        elif c:
            raise ValueError("polynomial is not a p-th power")
    return UniPoly(f.field, coeffs)


def _poly_sort_key(g: UniPoly):
    return (g.degree, [g.field.format(c) for c in g.coefficients])


def squarefree_decomposition(f: UniPoly) -> list[tuple[UniPoly, int]]:
    """Squarefree decomposition of f in characteristic p.

    Returns pairwise-coprime monic squarefree factors g_i with
    prod g_i^(m_i) = f up to the leading coefficient.  The gcd loop peels
    the factors whose multiplicity is prime to p; what remains is a p-th
    power and is handled by recursion through the p-th root.
    """
    if f.is_zero():
        raise ZeroPolynomial("squarefree decomposition of the zero polynomial")
    f = f.monic()
    factors: dict[UniPoly, int] = {}
    _squarefree_into(f, 1, factors)
    return sorted(factors.items(), key=lambda kv: _poly_sort_key(kv[0]))


def _squarefree_into(f: UniPoly, outer: int, factors: dict) -> None:
    if f.degree <= 0:
        return
    df = f.derivative()
    c = poly_gcd(f, df)  # = f itself when df == 0
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree > 0:
            factors[z] = factors.get(z, 0) + i * outer
        i += 1
        w = y
        c = c // y
    if c.degree > 0:
        # remaining part is u(t^p); recurse with multiplicities times p
        _squarefree_into(_pth_root_poly(c), outer * f.field.p, factors)


def distinct_root_count(f: UniPoly) -> int:
    """Number of distinct roots of f in the algebraic closure.

    Equals the degree of the squarefree part, which splits into distinct
    linear factors over the closure.
    """
    if f.is_zero():
        raise ZeroPolynomial("root count of the zero polynomial")
    return sum(g.degree for g, _ in squarefree_decomposition(f))


def _regular_basis(base: Field, modulus: UniPoly) -> np.ndarray:
    """The D x D GF(p)-matrices of multiplication by the D = d * s basis
    elements of B = base[u]/(modulus), monic of degree s over a base of
    degree d.  Element i*d + j is the base basis element p^j times u^i, so
    element 0 is 1.  Times u, each block of d coordinates moves up one and
    the top block feeds back through the base matrices of -m_i, the lower
    modulus coefficients.  Products here and in frobenius_matrix sum D
    terms below (p-1)^2, which must stay inside int64."""
    p, s, d = base.p, modulus.degree, base.degree
    D = d * s
    if D * (p - 1) ** 2 >= 2**63:
        raise CapExceeded(f"GF({p})-matrices of size {D} overflow int64")
    def mats(codes):  # multiplication by base codes, as d x d GF(p)-matrices
        return base.mats[codes] if d > 1 else np.asarray(codes)[..., None, None]
    shift = np.zeros((s, d, s, d), dtype=np.int64)
    for i in range(1, s):
        shift[i, :, i - 1] = mats(1)  # the identity
    shift[:, :, -1] = mats(np.array([base.neg(c) for c in modulus.coefficients[:-1]]))
    shift = shift.reshape(D, D)
    # the block-diagonal matrices of the base basis elements p^j
    scalars = np.zeros((d, s, d, s, d), dtype=np.int64)
    for i in range(s):
        scalars[:, i, :, i] = mats(p ** np.arange(d, dtype=np.int64))
    basis = [scalars.reshape(d, D, D)]
    for _ in range(s - 1):
        basis.append(basis[-1].dot(shift) % p)
    return np.reshape(basis, (D, D, D))


def frobenius_matrix(basis: np.ndarray, p: int) -> np.ndarray:
    """The GF(p)-matrix of the linear map b -> b^p on an algebra whose
    basis e_0 = 1, .., e_(D-1) multiplies as the matrices basis[k]: row k
    holds the digits of e_k^p, basis[k]^(p-1) times the digits of e_k (its
    column 0), by square-and-multiply mod p."""
    power, square, n = basis[:, :, :1], basis, p - 1
    while n:
        if n & 1:
            power = square @ power % p
        square, n = square @ square % p, n >> 1
    return power[:, :, 0]


def _is_field(f: UniPoly, basis: np.ndarray) -> bool:
    """Whether B = base[u]/(f), given by its regular basis, is a field, i.e.
    the monic f is irreducible (Berlekamp, Bell Syst. Tech. J. 46, 1967).
    gcd(f, f') = 1 makes B reduced, one finite field per irreducible factor
    of f, each with GF(p) as its Frobenius-fixed part; so B is a field
    exactly when also rank(F - I) = D - 1.  Row 0 of F - I is zero, so the
    other D - 1 rows, inserted as one block into a GF(p) echelon, must all
    raise its rank."""
    if poly_gcd(f, f.derivative()).degree > 0:
        return False
    p = f.field.p
    # basis[:, :, 0] is the identity: row k holds the digits of e_k
    rows = (frobenius_matrix(basis, p) - basis[:, :, 0]) % p
    echelon = Echelon(kernel_for(PrimeField(p)), len(rows))
    return echelon.add_row(rows[1:]) == len(rows) - 1


def _first_irreducible_code(field: Field, s: int) -> int:
    """The least code c whose monic polynomial of degree s over field (its
    lower coefficients the base-q digits of c, q = field.order) is
    irreducible.  A reducible monic f of degree s is g*h with g, h monic
    and 1 <= deg g = a <= s/2, so one pass per a marks the lower
    coefficients of every such product, q^a * q^(s-a) = q^s of them, by
    the base's code tables; the least unmarked code is the answer.  The
    caller certifies it (ExtensionField's Berlekamp test)."""
    p, D, q = field.p, field.degree, field.order
    # sums digit by digit, products by the scalar matrices
    powers = p ** np.arange(D, dtype=np.int64)
    digits = np.arange(q)[:, None] // powers % p
    mats = field.mats if D > 1 else np.arange(q).reshape(q, 1, 1)
    add = (digits[:, None] + digits) % p @ powers
    mul = (mats @ digits.T % p).transpose(0, 2, 1) @ powers

    def monic(k):  # coefficient rows, lowest first: c + q^k has top digit 1
        return (np.arange(q**k) + q**k)[:, None] // q ** np.arange(k + 1) % q

    marked = np.zeros(q**s, dtype=bool)
    for a in range(1, s // 2 + 1):
        g, h = monic(a)[:, None], monic(s - a)[None]
        lower = np.zeros((q**a, q ** (s - a), s), dtype=np.int64)
        for i in range(a + 1):
            for j in range(min(s - a, s - 1 - i) + 1):
                lower[..., i + j] = add[lower[..., i + j], mul[g[..., i], h[..., j]]]
        marked[lower.reshape(-1, s) @ q ** np.arange(s)] = True
    return int(np.argmin(marked))  # the first False; irreducibles always exist


@lru_cache(maxsize=None)
def extend_field(field: Field, s: int) -> ExtensionField:
    """Degree-s scalar extension of field, cached so repeated requests share
    element tables downstream.  The modulus is the first monic irreducible
    in the coefficient-enumeration order, picked by one sieve
    (_first_irreducible_code) and certified once by ExtensionField.  An
    oversized field is refused before the sieve allocates anything."""
    if s < 2:
        raise ValueError("extension degree must be >= 2")
    _check_caps(field.p, field.degree * s)
    q, code = field.order, _first_irreducible_code(field, s)
    return ExtensionField(field, UniPoly(field, [code // q**i % q for i in range(s)] + [1]))
