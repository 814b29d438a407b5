"""Dense exact row reduction over finite fields, on GF(p) digit planes.

Vectors are numpy int64 arrays of element codes (see ffield).  A code of
GF(p^s) is the base-p expansion of its GF(p)-coordinates, so C codes form
an s x C digit plane over GF(p), and a scalar c acts as the s x s
GF(p)-matrix M_c whose column j holds the digits of c * p^j (for GF(p),
s = 1 and M_c is c itself; GF(p^s) builds their stack once from its
modulus).  Every linear combination of rows is then an int64 matrix
product modulo p, in chunks small enough that no sum overflows.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .ffield import Field


@lru_cache(maxsize=None)
def kernel_for(field: Field) -> "Kernel":
    """The digit-plane arithmetic of a field, built once per field."""
    return Kernel(field)


class Kernel:
    """Scalar matrices and digit planes of a field's codes."""

    def __init__(self, field: Field):
        self.field = field
        p = field.p
        self.s = s = field.degree
        # a 0-d array is numpy's cheapest right operand for % on small planes
        self.p = np.array(p, dtype=np.int64)
        # a sum of `step` products below (p-1)^2 stays below 2^62, exact in
        # int64; p < 2^31 gives step >= 1, and s <= step for every field
        self.step = 2**62 // (p - 1) ** 2
        if s > 1:
            # field.mats[c] is M_c, so column 0 holds c's digits
            self._mats = field.mats
            self._digits = np.ascontiguousarray(field.mats[:, :, 0].T)
            self._powers = p ** np.arange(s, dtype=np.int64)

    def matrices(self, codes: np.ndarray) -> np.ndarray:
        """M_c for a numpy code c, or the stacked M_c of an array of codes."""
        if self.s == 1:
            return codes[..., None, None]
        return self._mats.take(codes, axis=0)

    def digits(self, vec: np.ndarray) -> np.ndarray:
        """The s x C digit plane of a vector of C codes."""
        if self.s == 1:
            return vec.reshape(1, -1)
        return self._digits.take(vec, axis=1)

    def codes(self, plane: np.ndarray) -> np.ndarray:
        """The codes of an s x C digit plane (inverse of digits)."""
        if self.s == 1:
            return plane.reshape(-1)
        return self._powers.dot(plane)


class Echelon:
    """Incremental reduced row-echelon form over a field's Kernel.

    Rows are added one at a time; the structure maintains unit pivots and
    zeros above and below each pivot, so normal forms are a single sweep.
    The rows are digit planes kept in insertion order in one
    ncols x s x ncols array, with their pivot columns alongside.
    """

    def __init__(self, kernel: Kernel, ncols: int):
        self.kernel = kernel
        self.ncols = ncols
        self.rank = 0
        # room for every row the rank allows; rows beyond the rank are
        # never read, and their pages are never written
        self._rows = np.empty((ncols, kernel.s, ncols), dtype=np.int64)
        self._pivots = np.empty(ncols, dtype=np.int64)

    @property
    def pivots(self) -> list[int]:
        """Pivot columns, ascending."""
        return sorted(self._pivots[:self.rank].tolist())

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Normal form of vec modulo the current row span.

        RREF rows vanish at each other's pivot columns, so the reduction
        coefficients are just vec at the pivot positions, and the rows
        with a nonzero one are subtracted in one matrix product.
        """
        coeffs = vec.take(self._pivots[:self.rank])
        nz = coeffs.nonzero()[0]
        if not nz.size:
            return vec.copy()
        k, terms = self.kernel, nz.size * self.kernel.s
        left = k.matrices(coeffs.take(nz)).transpose(1, 0, 2).reshape(k.s, terms)
        right = self._rows.take(nz, axis=0).reshape(terms, -1)
        plane = k.digits(vec)
        for i in range(0, terms, k.step):
            plane = (plane - left[:, i:i + k.step].dot(right[i:i + k.step])) % k.p
        return k.codes(plane)

    def add_row(self, vec: np.ndarray) -> bool:
        """Insert a row; returns True if it increased the rank."""
        k = self.kernel
        v = self.reduce(vec)
        nz = v.nonzero()[0]
        if not nz.size:
            return False
        piv = int(nz[0])
        plane = k.matrices(np.int64(k.field.inv(int(v[piv])))).dot(k.digits(v)) % k.p
        # keep RREF: clear the new pivot column in every stored row at once
        r = self.rank
        col = k.codes(self._rows[:r, :, piv].T)
        hit = col.nonzero()[0]
        if hit.size:
            update = k.matrices(col.take(hit)).dot(plane)
            self._rows[hit] = (self._rows.take(hit, axis=0) - update) % k.p
        self._rows[r] = plane
        self._pivots[r] = piv
        self.rank = r + 1
        return True

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def clone(self) -> "Echelon":
        out = Echelon(self.kernel, self.ncols)
        r = out.rank = self.rank
        out._rows[:r] = self._rows[:r]
        out._pivots[:r] = self._pivots[:r]
        return out
