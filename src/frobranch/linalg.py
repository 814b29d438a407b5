"""Dense exact row reduction over finite fields, on GF(p) digit rows.

Vectors are numpy int64 arrays of element codes (see ffield).  A code of
GF(p^s) is the base-p expansion of its GF(p)-coordinates, so a vector of
C codes is a row of C*s GF(p) digits, code-major: column c*s + i holds
digit i of code c.  Every elimination here runs over GF(p) on such rows;
a field of degree s enters only where codes become digits and back.

This is restriction of scalars.  A GF(p^s)-subspace W of GF(p^s)^C is
the GF(p)-span of the digit rows of e_j*w, for w in a spanning set and
e_j = p^j the GF(p)-basis element of code p^j (digit i of c * p^j is
field.mats[c, i, j]), so its GF(p^s)-rank is the GF(p)-rank of those rows
divided by s.  The GF(p) pivots of that span are P x {0..s-1}, P the
pivots of W over GF(p^s): W_c, the vectors of W zero at every code before
c, is again a GF(p^s)-space, and so is its image in coordinate c, which
is therefore 0 or all of GF(p^s).  In the first case no column c*s + i is
a pivot; in the second, the vectors of W_c whose code c has digits 0..i-1
zero map onto the elements with those digits zero, of GF(p)-dimension
s - i, so every column c*s + i is one.  The normal forms agree too: the
normal form v' of v modulo W is the one vector of v + W zero at the codes
P, so the digits of v' lie in digits(v) + span and vanish at P x {0..s-1},
which is what makes a GF(p) normal form, and that one is unique.  So the
RREF rows of the span are the digit rows of e_j*b, b the GF(p^s) RREF
rows.

Digits are held in float64, whose products are exact while every sum
stays below 2^53: k terms below (p-1)^2 added to an entry below p stay
exact when k*(p-1)^2 + p <= 2^53, so a sum needs reducing modulo p only
once per k terms (the delayed reduction of Dumas, Giorgi and Pernet, ACM
TOMS 35(3), 2008).  For p = 101 that is 9*10^11 terms, so every product
here is one BLAS call.  A prime with (p-1)^2 + p > 2^53 leaves that
range; its digits are int64, summed in chunks of 2^62 // (p-1)^2 terms.

An Echelon inserts a whole block of rows in one call, as in the matrix
form of F4 (Faugere, JPAA 139, 1999): one product reduces the block
against the stored rows, _rref brings it to reduced row-echelon form, and
one more product clears the new pivot columns in the stored rows.  _rref
runs Gauss-Jordan in column panels: inside a panel a per-pivot loop
updates the panel's columns in the rows with a nonzero entry in the pivot
column, and a tracker beside the panel records the row operations, so
that the columns to its right follow by one product.  A block with few
nonzero entries is eliminated on Python lists instead.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import FieldMismatch

if TYPE_CHECKING:
    from .ffield import Field

# Columns per Gauss-Jordan panel.  The per-pivot loop costs (rows hit) x
# (2 * PANEL) entries per pivot and the trailing product (rows) x PANEL x
# (columns right of the panel) per panel; on a 2-vCPU Xeon the degree-5
# slice of 8 quadrics in 9 variables (1287 columns) eliminated fastest at
# this width, and every slice of up to PANEL columns is one panel with no
# trailing product at all.
PANEL = 64

# Nonzero entries up to which a block is eliminated on Python lists
# (_rref_small).  A pivot step of the array loop makes about a dozen numpy
# calls whatever the block, about 12 us on a 2-vCPU Xeon, while the list
# loop pays about 0.1 us for each entry of the rows a pivot updates.  On
# that host the list loop was the faster one on dense blocks of up to
# 60-100 entries and on blocks of monomials of up to 900 entries, so the
# bound is the dense crossover; past it the array loop wins on dense rows.
SMALL_BLOCK = 64


@lru_cache(maxsize=None)
def kernel_for(field: Field) -> "Kernel":
    """The digit arithmetic of a field, built once per field."""
    return Kernel(field)


class Kernel:
    """Digit rows of a field's codes and exact products of GF(p) rows.

    Digits are held in `dtype` (float64 unless p leaves its exact range).
    A B x C block of codes of a field of degree s is B rows of C*s digits
    (module docstring); over GF(p) the digits are the codes."""

    def __init__(self, field: Field):
        self.field = field
        p = field.p
        self.s = s = field.degree
        # sums below `limit` are exact (module docstring); p < 2^31 leaves
        # room for at least one term in int64
        self.dtype, self.limit = np.float64, 2**53
        if (p - 1) ** 2 + p > self.limit:
            self.dtype, self.limit = np.int64, 2**62
        # terms per exact chunk of a product
        self.step = (self.limit - p) // (p - 1) ** 2
        # a 0-d array is numpy's cheapest right operand for % on small arrays
        self.p = np.array(p, dtype=self.dtype)
        if s > 1:
            # _mats[c, j] holds the digits of c * p^j, so _mats[c, 0] c's own
            self._mats = field.mats.transpose(0, 2, 1).astype(self.dtype)
            self._powers = (p ** np.arange(s)).astype(self.dtype)

    def digits(self, codes: np.ndarray, span: bool = False) -> np.ndarray:
        """Fresh digit rows of an int64 code vector or of a B x C block of
        them: B x (C*s), or with span the (B*s) x (C*s) rows of e_j*v, row
        b*s + j for e_j = p^j and vector b.  Codes outside the field raise
        FieldMismatch."""
        if codes.size and np.maximum.reduce(codes.view(np.uint64), None) >= self.field.order:
            # a negative code views as at least 2^63
            raise FieldMismatch(f"codes outside {self.field}")
        s = self.s
        if s == 1:
            return np.array(codes, dtype=self.dtype, ndmin=2)
        codes = np.atleast_2d(codes)
        b, width = len(codes), codes.shape[1] * s
        if span:
            return self._mats[codes].swapaxes(-2, -3).reshape(b * s, width)
        return self._mats[codes, 0].reshape(b, width)

    def codes(self, digits: np.ndarray) -> np.ndarray:
        """The int64 B x C codes of B rows of digits (inverse of digits)."""
        if self.s == 1:
            return digits.astype(np.int64)
        return (digits.reshape(len(digits), digits.shape[1] // self.s, self.s) @ self._powers).astype(np.int64)

    def submul(self, acc: np.ndarray, coeffs: np.ndarray, rows: np.ndarray, lazy: bool = False) -> np.ndarray:
        """acc - coeffs * rows, in place in acc and modulo p unless lazy,
        for B rows acc, B x q coefficients and q reduced rows: one exact
        product per chunk of `step` terms (a lazy call fits in one)."""
        for i in range(0, coeffs.shape[1], self.step):
            acc -= coeffs[:, i:i + self.step] @ rows[i:i + self.step]
            if not lazy:
                acc %= self.p
        return acc

    def update(self, target: np.ndarray, hit: np.ndarray, coeffs: np.ndarray, rows: np.ndarray,
               lazy: bool = False) -> None:
        """submul on the rows of target at the ascending indices hit, with
        their rows of coeffs, in place and PANEL rows at a time, so that no
        temporary outgrows PANEL rows; rows must not share memory with
        target."""
        for i in range(0, len(hit), PANEL):
            part = hit[i:i + PANEL]
            a, b = int(part[0]), int(part[-1]) + 1
            if b - a == len(part):
                self.submul(target[a:b], coeffs[a:b], rows, lazy)
            else:
                target[part] = self.submul(target[part], coeffs[part], rows, lazy)


class Echelon:
    """Reduced row-echelon form over a field's Kernel, grown block by block.

    The structure maintains unit pivots and zeros above and below each
    pivot, so normal forms are a single product.  The rows are the GF(p)
    digit rows of the field span of the inserted vectors (module
    docstring), kept in insertion order in one (ncols*s) x (ncols*s)
    array, allocated at the first rank gain, with their GF(p) pivot
    columns alongside; rank, ncols and pivots count in units of the field.
    Every vector it takes lies over that field: a code outside it raises
    FieldMismatch (Kernel.digits).
    """

    def __init__(self, kernel: Kernel, ncols: int):
        self.kernel = kernel
        self.ncols = ncols
        self.rank = 0
        # no rows until the rank grows; then room for every row the rank
        # allows, where rows beyond the rank are never read, and their
        # pages are never written
        width = ncols * kernel.s
        self._rows = np.empty((0, width), dtype=kernel.dtype)
        self._pivots = np.empty(width, dtype=np.int64)

    def shifted(self, ncols: int) -> "Echelon":
        """A new echelon of ncols >= self.ncols columns whose rows are this
        one's moved to its last self.ncols columns, with no elimination:
        zero columns in front keep every row unit at its pivot and zero at
        the others'."""
        new = Echelon(self.kernel, ncols)
        s = self.kernel.s
        r = self.rank * s
        if r:
            off = (ncols - self.ncols) * s
            new._rows = np.empty((len(new._pivots),) * 2, dtype=new._rows.dtype)
            new._rows[:r, :off] = 0
            new._rows[:r, off:] = self._rows[:r]
            new._pivots[:r] = self._pivots[:r] + off
            new.rank = self.rank
        return new

    @property
    def nbytes(self) -> int:
        """The bytes of its arrays: the pivots' from construction, the
        rows' from the first rank gain."""
        return self._rows.nbytes + self._pivots.nbytes

    @property
    def pivots(self) -> list[int]:
        """Pivot columns, ascending.  A pivot column c is the s GF(p)
        pivots c*s .. c*s + s - 1, which _rref finds in a row."""
        s = self.kernel.s
        pivots = sorted(self._pivots[:self.rank * s:s].tolist())
        return [c // s for c in pivots] if s > 1 else pivots

    def _reduced(self, digits: np.ndarray) -> np.ndarray:
        """GF(p) digit rows reduced modulo the stored rows, in place.  RREF
        rows vanish at each other's pivot columns, so the reduction
        coefficients are the digits at the pivots, and the stored rows are
        subtracted in one product, PANEL rows at a time so that no
        temporary outgrows them: the rows with a nonzero coefficient alone
        when there are at most PANEL of them, else all."""
        r = self.rank * self.kernel.s
        if r:
            pivots, rows = self._pivots[:r], self._rows[:r]
            for i in range(0, len(digits), PANEL):
                part = digits[i:i + PANEL]
                coeffs = part[:, pivots]
                used = coeffs.any(0).nonzero()[0]
                if used.size > PANEL:
                    self.kernel.submul(part, coeffs, rows)
                elif used.size:
                    self.kernel.submul(part, coeffs[:, used], rows[used])
        return digits

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        """Normal form of a code vector modulo the row span, or of each row
        of a k x C block of them, over the rows' field."""
        k = self.kernel
        return k.codes(self._reduced(k.digits(vec))).reshape(vec.shape)

    def add_row(self, rows: np.ndarray) -> int:
        """Insert a code vector, or every row of a k x C block of them, over
        the rows' field; returns how many of them raised the rank."""
        k, s = self.kernel, self.kernel.s
        r = self.rank * s
        block = k.digits(rows, span=True)
        t, new = _rref(k, self._reduced(block))
        if not t:
            return 0
        if r:
            # keep RREF: clear the new pivot columns in the stored rows at once
            coeffs = self._rows[:r, new]
            hit = coeffs.any(1).nonzero()[0]
            if hit.size:
                k.update(self._rows, hit, coeffs, block[:t])
        else:
            self._rows = np.empty((len(self._pivots),) * 2, dtype=self._rows.dtype)
        self._rows[r:r + t] = block[:t]
        self._pivots[r:r + t] = new
        self.rank += t // s
        return t // s

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()


def _rref(k: Kernel, block: np.ndarray) -> tuple[int, list]:
    """Bring B reduced GF(p) rows to reduced row-echelon form in place;
    returns the number t of nonzero rows, which are then the first t, and
    their pivot columns.

    A block with at most SMALL_BLOCK nonzero entries goes to _rref_small.
    Otherwise Gauss-Jordan runs column panel by column panel, and rows
    found as pivots move to the top by swaps.  Within a panel starting at
    row t0 the loop works on the rows from t0 down only: those above are
    cleared at the panel's pivots after it, by one product with the new
    pivot rows.  When columns follow the panel, the loop also runs on a
    tracker of the panel's row operations: row i of the panel is row i of
    the panel's start plus sum_u T[i, u] (start row of pivot u), with the
    unit of pivot u moved into T[u, u] when it is chosen, so the columns
    right of the panel follow as rest - (E - T) rest[:u], E the pivots'
    unit columns.

    Every product takes reduced factors: pivot rows and the coefficients
    read from pivot columns are reduced when they are used.  The rows they
    update are reduced only at the end (lazily) when that is exact: an
    entry takes at most one term per pivot in the panel loop, in the
    trailing products and in the clearing above, so at most 3*C terms of
    (p-1)^2 each, and scaling a pivot row multiplies it by p - 1 at most.
    Otherwise each update is reduced at once."""
    if np.count_nonzero(block) <= SMALL_BLOCK:
        return _rref_small(k, block)
    # zero rows (rows the stored ones already span) move out of the way
    keep = block.any(1).nonzero()[0]
    for i in range(0, len(keep), PANEL):
        part = keep[i:i + PANEL]
        if part[-1] != i + len(part) - 1:
            # part holds no index below i, so a chunk never overwrites one
            # it has yet to read
            block[i:i + len(part)] = block[part]
    nrows, ncols = len(keep), block.shape[1]
    block = block[:nrows]
    p = k.field.p
    lazy = (p + 3 * ncols * (p - 1) ** 2) * p <= k.limit
    t, pivots = 0, []
    for c0 in range(0, ncols, PANEL):
        if t == nrows:
            break
        c1 = min(c0 + PANEL, ncols)
        w, t0, tracked, n = c1 - c0, t, c1 < ncols, nrows - t
        if tracked:
            panel = np.zeros((n, 2 * w), dtype=block.dtype)
            panel[:, :w] = block[t0:, c0:c1]
            rest = block[t0:, c1:]
        else:
            panel = block[t0:, c0:]
        u, end = 0, w
        # row operations keep every row inside the columns where one is
        # nonzero at the start, so only those can hold pivots
        for j in (panel[:, :w] % k.p).any(0).nonzero()[0].tolist():
            if u == n:
                break
            col = panel[:, j] % k.p
            # digits are nonnegative, so the largest free one is nonzero
            # unless every free row vanishes in column j
            i = u + int(col[u:].argmax())
            if not col[i]:
                continue
            if i != u:
                panel[u], panel[i] = panel[i], panel[u].copy()
                if tracked:
                    rest[u], rest[i] = rest[i], rest[u].copy()
                col[u], col[i] = col[i], col[u]
            if tracked:
                panel[u, w + u] = 1
                end = w + u + 1
            c = int(col[u])
            row = panel[u, j:end] * pow(c, p - 2, p) % k.p
            hit = col.nonzero()[0]
            if hit.size == 1:
                panel[u, j:end] = row
            else:
                # coefficient c - 1 turns the pivot row into its unit row
                col[u] = c - 1
                a, b = int(hit[0]), int(hit[-1]) + 1
                if b - a == hit.size:
                    hit = slice(a, b)
                panel[hit, j:end] -= col[hit, None] * row
                if not lazy:
                    panel[hit, j:end] %= k.p
            pivots.append(c0 + j)
            u += 1
        t = t0 + u
        if not u:
            continue
        if tracked:
            block[t0:, c0:c1] = panel[:, :w]
            rest[:u] %= k.p
            span = np.arange(u)
            gauge = -panel[:, w:w + u]
            gauge[span, span] += 1
            gauge %= k.p
            hit = gauge.any(1).nonzero()[0]
            if hit.size:
                k.update(rest, hit, gauge, rest[:u].copy(), lazy)
        if t0:
            new = block[t0:t, c0:]
            new %= k.p
            coeffs = block[:t0, pivots[t0:]] % k.p
            hit = coeffs.any(1).nonzero()[0]
            if hit.size:
                k.update(block[:t0, c0:], hit, coeffs, new, lazy)
    block[:t] %= k.p
    return t, pivots


def _rref_small(k: Kernel, block: np.ndarray) -> tuple[int, list]:
    """_rref of a block with few nonzero entries, by Gauss-Jordan on
    Python lists (of integers, or of floats that stay below p^2 and so are
    exact).  Row operations keep every row inside the columns where some
    row is nonzero, so a larger block is cut down to its nonzero rows and
    those columns first."""
    p = k.field.p
    cols = None
    if block.size > SMALL_BLOCK:
        cols = block.any(0).nonzero()[0]
        rows = block[block.any(1).nonzero()[0][:, None], cols].tolist()
    else:
        rows = block.tolist()
    free = list(range(len(rows)))
    done, pivots = [], []
    for j in range(len(rows[0]) if rows else 0):
        for i in free:
            if rows[i][j]:
                break
        else:
            continue
        free.remove(i)
        c = pow(int(rows[i][j]), p - 2, p)
        pivot = rows[i] = [x * c % p for x in rows[i]]
        for r, row in enumerate(rows):
            c = row[j]
            if c and r != i:
                rows[r] = [(x - c * y) % p for x, y in zip(row, pivot)]
        done.append(i)
        pivots.append(j)
        if not free:
            break
    t = len(done)
    if not t:
        return 0, []
    if cols is None:
        block[:t] = [rows[r] for r in done]
        return t, pivots
    block[:t] = 0
    block[:t, cols] = [rows[r] for r in done]
    return t, cols[pivots].tolist()
