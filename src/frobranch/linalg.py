"""Dense exact row reduction over finite fields.

Vectors are numpy integer arrays of element codes (see ffield).  Prime
fields use int64 modular arithmetic directly; extension fields (order <=
4096) use int16 q x q addition and multiplication tables indexed by code,
so elimination stays vectorized.  The tables are derived with numpy from
the codes' GF(p) digits and the field's exp/log lists, never by q^2
scalar products.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .ffield import Field


@lru_cache(maxsize=None)
def kernel_for(field: Field) -> "Kernel":
    """The vectorized arithmetic of a field, built once per field."""
    return Kernel(field)


class Kernel:
    """Vectorized field arithmetic on arrays of codes."""

    def __init__(self, field: Field):
        self.field = field
        self.p = p = field.p
        self.prime = field.degree == 1
        if self.prime:
            return
        q = field.order
        # int16 quarters the q x q tables: codes stay below MAX_TABLE_ORDER
        # = 4096 < 2^15, and sums of two logarithms below 8190
        codes = np.arange(q, dtype=np.int16)
        # sums and negatives act digit by digit on the GF(p)-coordinates
        add = np.zeros((q, q), dtype=np.int16)
        neg = np.zeros(q, dtype=np.int16)
        for i in range(field.degree):
            digit = codes // p**i % p
            term = digit[:, None] + digit[None, :]
            term %= p
            term *= p**i
            add += term
            neg += -digit % p * p**i
        del term  # one q x q temporary fewer while the product table is built
        # products add logarithms; row and column 0 stay zero
        log = np.asarray(field.log, dtype=np.int16)
        mul = np.asarray(field.exp, dtype=np.int16)[log[:, None] + log[None, :]]
        mul[0, :] = 0
        mul[:, 0] = 0
        self._add = add
        self._neg = neg
        self._mul = mul

    def add(self, a, b):
        return (a + b) % self.p if self.prime else self._add[a, b]

    def sub(self, a, b):
        return (a - b) % self.p if self.prime else self._add[a, self._neg[b]]

    def scalar_mul(self, c, v):
        """c * v for a scalar code c and a vector of codes v."""
        return (int(c) * v) % self.p if self.prime else self._mul[int(c), v]


class Echelon:
    """Incremental reduced row-echelon form over a field's Kernel.

    Rows are added one at a time; the structure maintains unit pivots and
    zeros above and below each pivot, so normal forms are a single sweep.
    """

    def __init__(self, kernel: Kernel, ncols: int):
        self.kernel = kernel
        self.ncols = ncols
        self.pivots: list[int] = []
        self.rows: list[np.ndarray] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Normal form of vec modulo the current row span.

        RREF rows vanish at each other's pivot columns, so the reduction
        coefficients are just vec at the pivot positions and the rows can
        be subtracted independently.
        """
        k = self.kernel
        if not self.pivots:
            return vec.copy()
        coeffs = vec[np.asarray(self.pivots)]
        nz = np.nonzero(coeffs)[0]
        if nz.size == 0:
            return vec.copy()
        if k.prime and (k.p - 1) ** 2 * (nz.size + 1) < 2**62:
            mat = np.stack([self.rows[i] for i in nz])
            return (vec - coeffs[nz] @ mat) % k.p
        v = vec.copy()
        for i in nz:
            v = k.sub(v, k.scalar_mul(int(coeffs[i]), self.rows[i]))
        return v

    def add_row(self, vec: np.ndarray) -> bool:
        """Insert a row; returns True if it increased the rank."""
        k = self.kernel
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        piv = int(nz[0])
        v = k.scalar_mul(k.field.inv(int(v[piv])), v)
        # keep RREF: clear the new pivot column in existing rows
        for i, row in enumerate(self.rows):
            c = int(row[piv])
            if c:
                self.rows[i] = k.sub(row, k.scalar_mul(c, v))
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < piv:
            idx += 1
        self.pivots.insert(idx, piv)
        self.rows.insert(idx, v)
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not np.any(self.reduce(vec))

    def clone(self) -> "Echelon":
        out = Echelon(self.kernel, self.ncols)
        out.pivots = list(self.pivots)
        out.rows = [r.copy() for r in self.rows]
        return out
