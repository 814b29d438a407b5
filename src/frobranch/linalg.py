"""Dense exact row reduction over finite fields, on GF(p) digit planes.

Vectors are numpy int64 arrays of element codes (see ffield).  A code of
GF(p^s) is the base-p expansion of its GF(p)-coordinates, so C codes form
an s x C digit plane over GF(p), and a scalar c acts as the s x s
GF(p)-matrix M_c whose column j holds the digits of c * p^j (for GF(p),
s = 1 and M_c is c itself; GF(p^s) builds their stack once from its
modulus).  Every linear combination of rows is then a matrix product
modulo p.

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
that the columns to its right follow by one product.  A block over GF(p)
with few nonzero entries is eliminated on Python lists instead, and so
are the stored rows with the block when they hold few entries in all.

An Echelon's rows lie over one field, its kernel's (a ring's slices over
the least field holding its relations, GF(p) from integer coefficients).
A vector over an extension of degree t of that field is reduced as the t
vectors of its coordinates, since the RREF of a subspace is also its RREF
over every extension: digit i*s + j of an extension code is digit j of
coordinate i (see ffield), so their digit rows are the vector's own.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .ffield import Field

# Columns per Gauss-Jordan panel.  The per-pivot loop costs (rows hit) x
# (2 * PANEL) entries per pivot and the trailing product (rows) x PANEL x
# (columns right of the panel) per panel; on a 2-vCPU Xeon the degree-5
# slice of 8 quadrics in 9 variables (1287 columns) eliminated fastest at
# this width, and every slice of up to PANEL columns is one panel with no
# trailing product at all.
PANEL = 64

# Nonzero entries up to which a block over GF(p) is eliminated on Python
# lists (_rref_small); an Echelon's stored rows and a new block go there
# together while they hold at most this many entries, zero or not.  A
# pivot step of the array loop makes about a dozen numpy calls whatever
# the block, about 12 us on a 2-vCPU Xeon, while the list loop pays about
# 0.1 us for each entry of the rows a pivot updates.  On that host the list
# loop was the faster one on dense blocks of up to 60-100 entries and on
# blocks of monomials of up to 900 entries, so the bound is the dense
# crossover; past it the array loop wins on dense rows.  Inserting one row
# into 1-5 stored rows of 5-9 columns (10-54 entries) took 7-20 us on
# lists there and 13-22 us by the reduction and clearing products; at 70
# entries the lists took 31-37 us, the products 20-22 us.
SMALL_BLOCK = 64


@lru_cache(maxsize=None)
def kernel_for(field: Field) -> "Kernel":
    """The digit-plane arithmetic of a field, built once per field."""
    return Kernel(field)


class Kernel:
    """Scalar matrices, digit rows and exact products of a field's codes.

    Digits are held in `dtype` (float64 unless p leaves its exact range).
    A block of B code vectors of length C is a (B*s) x C array of digit
    rows, rows b*s .. b*s + s - 1 holding vector b's digit plane.  Over
    GF(p) the digits are the codes, so they are also the scalars that
    `times`, `unit` and `submul` take; over GF(p^s) those take codes."""

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
            # field.mats[c] is M_c, so column 0 holds c's digits
            self._mats = field.mats.astype(self.dtype)
            self._digits = self._mats[:, :, 0]
            self._powers = (p ** np.arange(s)).astype(self.dtype)
            self._span = np.arange(s)

    def matrices(self, codes: np.ndarray) -> np.ndarray:
        """M_c for a numpy code c, or the stacked M_c of an array of codes."""
        if self.s == 1:
            return codes[..., None, None]
        return self.field.mats.take(codes, axis=0)

    def digits(self, codes: np.ndarray) -> np.ndarray:
        """Fresh digit rows of code vectors: a vector gives its s x C digit
        plane, a B x C block the (B*s) x C digit rows of its vectors."""
        if self.s == 1:
            return np.array(codes, dtype=self.dtype, ndmin=2)
        return self._digits.take(codes, axis=0).swapaxes(-1, -2).reshape(-1, codes.shape[-1])

    def codes(self, planes: np.ndarray) -> np.ndarray:
        """The int64 codes of digit planes (inverse of digits)."""
        if self.s == 1:
            return planes[..., 0, :].astype(np.int64)
        return (self._powers @ planes).astype(np.int64)

    def scalars(self, planes: np.ndarray) -> np.ndarray:
        """The entries of digit planes as scalars: (..., s, C) gives (..., C)."""
        if self.s == 1:
            return planes[..., 0, :]
        return (self._powers @ planes).astype(np.intp)

    def group(self, index: np.ndarray) -> np.ndarray:
        """The digit rows of the vectors at `index`."""
        if self.s == 1:
            return index
        return (index[:, None] * self.s + self._span).ravel()

    def times(self, c: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """The digit rows of M_c times an s x W plane, for h scalars c:
        (h*s) x W, unreduced, each entry a sum of s terms below (p-1)^2."""
        if self.s == 1:
            return c[:, None] * rows
        return self._mats[c].reshape(-1, self.s) @ rows

    def unit(self, rows: np.ndarray, c) -> np.ndarray:
        """An s x W plane times the inverse of its nonzero scalar c."""
        inv = self.field.inv(int(c))
        if self.s == 1:
            return rows * inv % self.p
        return self._mats[inv] @ rows % self.p

    def submul(self, acc: np.ndarray, coeffs: np.ndarray, rows: np.ndarray, lazy: bool = False) -> np.ndarray:
        """acc - coeffs * rows, in place in acc and modulo p unless lazy,
        for the digit rows acc of B vectors, B x q scalars coeffs and the
        (q*s) x C digit rows of q reduced vectors: one exact product per
        chunk of `step` terms (a lazy call fits in one)."""
        left = coeffs
        if self.s > 1:
            B, q = coeffs.shape
            left = self._mats[coeffs].transpose(0, 2, 1, 3).reshape(B * self.s, q * self.s)
        # in the rows' dtype, so that matmul casts neither operand
        left = left.astype(self.dtype, copy=False)
        for i in range(0, left.shape[1], self.step):
            acc -= left[:, i:i + self.step] @ rows[i:i + self.step]
            if not lazy:
                acc %= self.p
        return acc

    def update(self, target: np.ndarray, hit: np.ndarray, coeffs: np.ndarray, rows: np.ndarray,
               lazy: bool = False) -> None:
        """submul on the vectors of target at the ascending indices hit,
        with their rows of coeffs, in place and PANEL vectors at a time, so
        that no temporary outgrows PANEL vectors; rows must not share
        memory with target."""
        s = self.s
        for i in range(0, len(hit), PANEL):
            part = hit[i:i + PANEL]
            a, b = int(part[0]), int(part[-1]) + 1
            if b - a == len(part):
                self.submul(target[a * s:b * s], coeffs[a:b], rows, lazy)
            else:
                where = self.group(part)
                target[where] = self.submul(target[where], coeffs[part], rows, lazy)


class Echelon:
    """Reduced row-echelon form over a field's Kernel, grown block by block.

    The structure maintains unit pivots and zeros above and below each
    pivot, so normal forms are a single product.  The rows are digit rows
    kept in insertion order in one (ncols*s) x ncols array, with their
    pivot columns alongside.
    """

    def __init__(self, kernel: Kernel, ncols: int):
        self.kernel = kernel
        self.ncols = ncols
        self.rank = 0
        # room for every row the rank allows; rows beyond the rank are
        # never read, and their pages are never written
        self._rows = np.empty((ncols * kernel.s, ncols), dtype=kernel.dtype)
        self._pivots = np.empty(ncols, dtype=np.int64)

    def shifted(self, ncols: int) -> "Echelon":
        """A new echelon of ncols >= self.ncols columns whose rows are this
        one's moved to its last self.ncols columns, with no elimination:
        zero columns in front keep every row unit at its pivot and zero at
        the others'."""
        new = Echelon(self.kernel, ncols)
        r, s = self.rank, self.kernel.s
        if r:
            off = ncols - self.ncols
            new._rows[:r * s, :off] = 0
            new._rows[:r * s, off:] = self._rows[:r * s]
            new._pivots[:r] = self._pivots[:r] + off
            new.rank = r
        return new

    @property
    def pivots(self) -> list[int]:
        """Pivot columns, ascending."""
        return sorted(self._pivots[:self.rank].tolist())

    def _planes(self, block: np.ndarray, kernel: Kernel | None = None) -> tuple[np.ndarray, Kernel]:
        """Fresh digit rows of a B x C code block, reduced modulo the row
        span, and the kernel of their field: the echelon's own, or `kernel`,
        that of an extension of it, whose block is reduced as the vectors
        of its coordinates (module docstring).  RREF rows vanish at each
        other's pivot columns, so the reduction coefficients are the
        block's entries at the pivots, and the stored rows are subtracted
        in one product, PANEL vectors at a time so that no temporary
        outgrows them: the rows with a nonzero coefficient alone when there
        are at most PANEL of them, else all."""
        k = self.kernel
        kernel = kernel or k
        if kernel is not k:
            q = k.field.order
            block = (block[:, None] // q ** np.arange(kernel.s // k.s)[:, None] % q).reshape(-1, self.ncols)
        planes = k.digits(block)
        r = self.rank
        if r:
            pivots, rows = self._pivots[:r], self._rows[:r * k.s]
            for i in range(0, len(block), PANEL):
                coeffs = block[i:i + PANEL, pivots]
                used = coeffs.any(0).nonzero()[0]
                if used.size > PANEL:
                    k.submul(planes[i * k.s:(i + PANEL) * k.s], coeffs, rows)
                elif used.size:
                    k.submul(planes[i * k.s:(i + PANEL) * k.s], coeffs[:, used], self._rows[k.group(used)])
        return planes, kernel

    def reduce(self, vec: np.ndarray, kernel: Kernel | None = None) -> np.ndarray:
        """Normal form of a code vector modulo the row span, or of each row
        of a k x C block of them; vectors over an extension of the rows'
        field come with its kernel."""
        planes, k = self._planes(vec.reshape(-1, self.ncols), kernel)
        return k.codes(planes.reshape(-1, k.s, self.ncols)).reshape(vec.shape)

    def rank_modulo(self, rows: np.ndarray, kernel: Kernel | None = None) -> int:
        """How many rows of a k x C code block would raise the rank, without
        inserting them: the rank of the block modulo the row span, taken
        over the field of `kernel` when the rows lie over an extension."""
        planes, k = self._planes(rows, kernel)
        return _rref(k, planes)[0]

    def add_row(self, rows: np.ndarray) -> int:
        """Insert a code vector, or every row of a k x C block of them, over
        the rows' field; returns how many of them raised the rank."""
        rows = rows.reshape(-1, self.ncols)
        k, s, r = self.kernel, self.kernel.s, self.rank
        if s == 1 and r and (r + len(rows)) * self.ncols <= SMALL_BLOCK:
            # few entries in all: the stored rows and the block together
            # are re-eliminated on lists, whose RREF is the same
            stack = np.concatenate((self._rows[:r], rows))
            t, new = _rref_small(k, stack)
            self._rows[:t] = stack[:t]
            self._pivots[:t] = new
            self.rank = t
            return t - r
        block, _ = self._planes(rows)
        t, new = _rref(k, block)
        if not t:
            return 0
        if r:
            # keep RREF: clear the new pivot columns in the stored rows at once
            coeffs = k.scalars(self._rows[:r * s, new].reshape(r, s, t))
            hit = coeffs.any(1).nonzero()[0]
            if hit.size:
                k.update(self._rows, hit, coeffs, block[:t * s])
        self._rows[r * s:(r + t) * s] = block[:t * s]
        self._pivots[r:r + t] = new
        self.rank = r + t
        return t

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()


def _swap(rows: np.ndarray, a: int, b: int, s: int) -> None:
    """Swap the digit rows of vectors a and b in place."""
    keep = rows[a * s:a * s + s].copy()
    rows[a * s:a * s + s] = rows[b * s:b * s + s]
    rows[b * s:b * s + s] = keep


def _rref(k: Kernel, block: np.ndarray) -> tuple[int, list]:
    """Bring the digit rows of B reduced vectors to reduced row-echelon
    form in place; returns the number t of nonzero vectors, which are then
    the first t*s rows, and their pivot columns.

    Over GF(p) a block with at most SMALL_BLOCK nonzero entries goes to
    _rref_small.  Otherwise Gauss-Jordan runs column panel by column
    panel, and vectors found as pivots move to the top by swaps.  Within
    a panel starting at vector t0 the loop works on the vectors from t0
    down only: those above are cleared at the panel's pivots after it, by
    one product with the new pivot rows.  When columns follow the panel,
    the loop also runs on a tracker of the panel's row operations: vector
    i of the panel is vector i of the panel's start plus
    sum_u T[i, u] (start vector of pivot u), with the unit of pivot u
    moved into T[u, u] when it is chosen, so the columns right of the
    panel follow as rest - (E - T) rest[:u], E the pivots' unit columns.

    Every product takes reduced factors: pivot rows and the coefficients
    read from pivot columns are reduced when they are used.  The vectors
    they update are reduced only at the end (lazily) when that is exact:
    an entry takes at most one term per pivot in the panel loop, in the
    trailing products and in the clearing above, so at most 3*C terms of
    s*(p-1)^2 each, and scaling a pivot row multiplies it by s*(p-1) once
    more.  Otherwise each update is reduced at once."""
    field, s = k.field, k.s
    if s == 1 and np.count_nonzero(block) <= SMALL_BLOCK:
        return _rref_small(k, block)
    nrows, ncols = block.shape[0] // s, block.shape[1]
    # zero vectors (rows the stored ones already span) move out of the way
    keep = block.reshape(nrows, -1).any(1).nonzero()[0]
    for i in range(0, len(keep), PANEL):
        part = keep[i:i + PANEL]
        if part[-1] != i + len(part) - 1:
            # part holds no index below i, so a chunk never overwrites one
            # it has yet to read
            block[i * s:(i + len(part)) * s] = block[k.group(part)]
    nrows = len(keep)
    block = block[:nrows * s]
    p = field.p
    lazy = (p + 3 * ncols * s * (p - 1) ** 2) * s * p <= k.limit
    t, pivots = 0, []
    for c0 in range(0, ncols, PANEL):
        if t == nrows:
            break
        c1 = min(c0 + PANEL, ncols)
        w, t0, tracked, n = c1 - c0, t, c1 < ncols, nrows - t
        if tracked:
            panel = np.zeros((n * s, 2 * w), dtype=block.dtype)
            panel[:, :w] = block[t0 * s:, c0:c1]
        else:
            panel = block[t0 * s:, c0:]
        u, end = 0, w
        # row operations keep every vector inside the columns where one is
        # nonzero at the start, so only those can hold pivots
        for j in (panel[:, :w] % k.p).any(0).nonzero()[0].tolist():
            if u == n:
                break
            codes = panel[:, j] % k.p
            if s > 1:
                codes = k.scalars(codes.reshape(n, s).T)
            # codes are nonnegative, so the largest free one is nonzero
            # unless every free vector vanishes in column j
            i = u + int(codes[u:].argmax())
            if not codes[i]:
                continue
            if i != u:
                _swap(panel, u, i, s)
                if tracked:
                    _swap(block[t0 * s:, c1:], u, i, s)
                codes[u], codes[i] = codes[i], codes[u]
            if tracked:
                panel[u * s, w + u] = 1
                end = w + u + 1
            c = codes[u]
            row = k.unit(panel[u * s:u * s + s, j:end], c)
            hit = codes.nonzero()[0]
            if hit.size == 1:
                panel[u * s:u * s + s, j:end] = row
            else:
                # coefficient c - 1 turns the pivot vector into its unit row
                codes[u] = field.sub(int(c), 1)
                a, b = int(hit[0]), int(hit[-1]) + 1
                if b - a == hit.size:
                    rows, hit = slice(a * s, b * s), slice(a, b)
                else:
                    rows = k.group(hit)
                panel[rows, j:end] -= k.times(codes[hit], row)
                if not lazy:
                    panel[rows, j:end] %= k.p
            pivots.append(c0 + j)
            u += 1
        t = t0 + u
        if not u:
            continue
        if tracked:
            block[t0 * s:, c0:c1] = panel[:, :w]
            rest = block[t0 * s:, c1:]
            rest[:u * s] %= k.p
            span = np.arange(u)
            gauge = -panel[:, w:w + u]
            gauge[span * s, span] += 1
            gauge = k.scalars((gauge % k.p).reshape(n, s, u))
            hit = gauge.any(1).nonzero()[0]
            if hit.size:
                k.update(rest, hit, gauge, rest[:u * s].copy(), lazy)
        if t0:
            new = block[t0 * s:t * s, c0:]
            new %= k.p
            above = block[:t0 * s, c0:]
            coeffs = k.scalars((block[:t0 * s, pivots[t0:]] % k.p).reshape(t0, s, u))
            hit = coeffs.any(1).nonzero()[0]
            if hit.size:
                k.update(above, hit, coeffs, new, lazy)
    block[:t * s] %= k.p
    return t, pivots


def _rref_small(k: Kernel, block: np.ndarray) -> tuple[int, list]:
    """_rref of a block over GF(p) with few nonzero entries, by
    Gauss-Jordan on Python lists (of integers, or of floats that stay
    below p^2 and so are exact).  Row operations keep every row inside the
    columns where some row is nonzero, so a larger block is cut down to
    its nonzero rows and those columns first."""
    p, inv = k.field.p, k.field.inv
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
        c = inv(int(rows[i][j]))
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
