import itertools
import random

import numpy as np
import pytest

from frobranch import linalg
from frobranch.errors import FieldMismatch
from frobranch.ffield import ExtensionField, PrimeField, UniPoly, extend_field
from frobranch.linalg import Echelon, kernel_for


def test_digit_rows_roundtrip():
    # a vector of C codes is C*s GF(p) digits, code-major; sums and
    # differences are digitwise, and span row j holds the digits of p^j * v
    F4 = extend_field(PrimeField(2), 2)
    F9 = ExtensionField(PrimeField(3), UniPoly.from_ints(PrimeField(3), [1, 0, 1]))
    rng = np.random.default_rng(17)
    for field in (PrimeField(7), F9, F4, extend_field(F4, 2), extend_field(PrimeField(5), 3)):
        k = kernel_for(field)
        assert kernel_for(field) is k
        p, s, q = field.p, field.degree, field.order
        codes = np.arange(q, dtype=np.int64)
        digits = k.digits(codes)
        assert digits.shape == (1, q * s)
        assert digits.reshape(q, s).tolist() == [[c // p**i % p for i in range(s)] for c in range(q)]
        assert k.codes(digits).tolist() == [codes.tolist()]
        for c in rng.integers(0, q, size=6).tolist():
            row = k.digits(np.full(q, c, dtype=np.int64))
            assert k.codes((row + digits) % k.p)[0].tolist() == [field.add(c, b) for b in range(q)]
            assert k.codes((row - digits) % k.p)[0].tolist() == [field.sub(c, b) for b in range(q)]
        block = rng.integers(0, q, size=(3, 5))
        assert k.codes(k.digits(block)).tolist() == block.tolist()
        assert k.codes(k.digits(block[:0], span=True)).shape == (0, 5)
        span = k.digits(block, span=True)
        assert span.shape == (3 * s, 5 * s)
        for b, j in itertools.product(range(3), range(s)):
            want = [field.mul(p**j, int(c)) for c in block[b]]
            assert k.codes(span[b * s + j:b * s + j + 1])[0].tolist() == want, (field, b, j)


def test_codes_outside_the_field_rejected():
    for field in (PrimeField(5), extend_field(PrimeField(2), 2)):
        k = kernel_for(field)
        for bad in (-1, field.order, 2**40):
            with pytest.raises(FieldMismatch):
                k.digits(np.array([0, bad], dtype=np.int64))
            with pytest.raises(FieldMismatch):
                k.digits(np.array([[bad, 1]], dtype=np.int64), span=True)
    # an echelon over GF(3) takes no GF(9) vector such as (4, 5)
    ech = Echelon(kernel_for(PrimeField(3)), 2)
    ech.add_row(np.array([1, 0], dtype=np.int64))
    for call in (ech.reduce, ech.add_row, ech.contains):
        with pytest.raises(FieldMismatch):
            call(np.array([4, 5], dtype=np.int64))
        with pytest.raises(FieldMismatch):
            call(np.array([0, -1], dtype=np.int64))


def test_echelon_known_rank():
    k = kernel_for(PrimeField(5))
    ech = Echelon(k, 3)
    gains = [ech.add_row(np.array(row, dtype=np.int64)) for row in ([1, 2, 3], [2, 4, 1], [0, 1, 1])]
    assert gains == [True, False, True]
    assert ech.rank == 2
    assert ech.contains(np.array([1, 3, 4], dtype=np.int64))   # row1 + row3
    assert not ech.contains(np.array([0, 0, 1], dtype=np.int64))


def test_empty_shapes():
    # a slice with no standard monomial gives rank tests on 0 columns, and
    # a product map may have no rows
    for field in (PrimeField(5), extend_field(PrimeField(2), 2)):
        k = kernel_for(field)
        ech = Echelon(k, 0)
        assert ech.add_row(np.zeros((5, 0), dtype=np.int64)) == 0 and ech.rank == 0
        assert ech.reduce(np.zeros((3, 0), dtype=np.int64)).shape == (3, 0)
        assert ech.contains(np.zeros(0, dtype=np.int64))
        ech = Echelon(k, 3)
        ech.add_row(np.array([1, 2, 0], dtype=np.int64))
        assert ech.add_row(np.zeros((0, 3), dtype=np.int64)) == 0 and ech.rank == 1
        assert ech.reduce(np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
        assert ech.contains(np.zeros((0, 3), dtype=np.int64))


def _rref_rows(ech):
    """The stored rows, read through reduce: with unit pivots and zeros at
    the other pivots, reduce(e_j) = e_j - (row of pivot j)."""
    rows = []
    for piv in ech.pivots:
        unit = np.zeros(ech.ncols, dtype=np.int64)
        unit[piv] = 1
        rows.append([ech.kernel.field.sub(int(a), int(b)) for a, b in zip(unit, ech.reduce(unit))])
    return rows


def test_echelon_rref_shape():
    for field, rows in (
        (PrimeField(3), ([1, 1, 0, 2], [0, 2, 1, 0], [1, 0, 1, 1])),
        (extend_field(PrimeField(2), 2), ([1, 2, 0, 3], [0, 3, 1, 0], [0, 0, 2, 1])),
    ):
        ech = Echelon(kernel_for(field), 4)
        for row in rows:
            ech.add_row(np.array(row, dtype=np.int64))
        # pivots strictly increasing, unit pivots, zeros above and below
        assert ech.pivots == sorted(set(ech.pivots)) and ech.rank == 3
        stored = _rref_rows(ech)
        for i, piv in enumerate(ech.pivots):
            assert stored[i][piv] == 1
            for j in range(len(stored)):
                if j != i:
                    assert stored[j][piv] == 0


def test_echelon_random_span_membership():
    rng = random.Random(99)
    for field in (PrimeField(2), PrimeField(13), ExtensionField(PrimeField(2), UniPoly.from_ints(PrimeField(2), [1, 1, 1]))):
        k = kernel_for(field)
        q = field.order
        for _ in range(10):
            ncols = rng.randint(3, 8)
            ech = Echelon(k, ncols)
            rows = []
            for _ in range(rng.randint(1, 5)):
                row = np.array([rng.randrange(q) for _ in range(ncols)], dtype=np.int64)
                rows.append(row)
                ech.add_row(row.copy())
            # random linear combination of the inserted rows is in the span
            combo = [0] * ncols
            for row in rows:
                c = rng.randrange(q)
                combo = [field.add(a, field.mul(c, int(b))) for a, b in zip(combo, row)]
            assert ech.contains(np.array(combo, dtype=np.int64))
            # reducing any inserted row gives zero
            for row in rows:
                assert not np.any(ech.reduce(row))


class _GaussJordan:
    """Reference RREF on lists of Python ints with the field's scalar ops."""

    def __init__(self, field):
        self.field = field
        self.rows = {}  # pivot column -> row with a unit there

    def reduce(self, vec):
        f = self.field
        v = list(vec)
        for piv, row in self.rows.items():
            c = v[piv]
            if c:
                v = [f.sub(a, f.mul(c, b)) for a, b in zip(v, row)]
        return v

    def add_row(self, vec):
        f = self.field
        v = self.reduce(vec)
        piv = next((i for i, a in enumerate(v) if a), None)
        if piv is None:
            return False
        inv = f.inv(v[piv])
        v = [f.mul(inv, a) for a in v]
        for p, row in self.rows.items():
            c = row[piv]
            if c:
                self.rows[p] = [f.sub(a, f.mul(c, b)) for a, b in zip(row, v)]
        self.rows[piv] = v
        return True


# (panel width, SMALL_BLOCK): as shipped; the array loop alone, with two-
# and three-column panels so that small blocks cross panels, swap rows and
# use the tracker; and the list loop alone over GF(p)
ELIMINATIONS = [(linalg.PANEL, linalg.SMALL_BLOCK), (2, 0), (3, 0), (linalg.PANEL, 10**9)]


def test_echelon_matches_python_gauss_jordan(monkeypatch):
    F2, F3, F4 = PrimeField(2), PrimeField(3), extend_field(PrimeField(2), 2)
    fields = (F2, PrimeField(101), PrimeField(2**31 - 1), F4, extend_field(F3, 3), extend_field(F4, 2))
    rng = random.Random(2024)
    for (panel, small), field in itertools.product(ELIMINATIONS, fields):
        monkeypatch.setattr(linalg, "PANEL", panel)
        monkeypatch.setattr(linalg, "SMALL_BLOCK", small)
        q = field.order
        for ncols in (1, 4, 8, 12, 12):
            ech, ref = Echelon(kernel_for(field), ncols), _GaussJordan(field)
            inserted = []

            def random_vec():
                # over GF(p^s), sometimes a vector over GF(p) alone
                top = rng.choice((q, field.p))
                density = rng.choice((0.2, 0.5, 1.0))
                return [rng.randrange(1, top) if rng.random() < density else 0 for _ in range(ncols)]

            def combination():
                vec = [0] * ncols
                for row in rng.sample(inserted, rng.randint(1, len(inserted))):
                    c = rng.randrange(q)
                    vec = [field.add(a, field.mul(c, b)) for a, b in zip(vec, row)]
                return vec

            for _ in range(rng.randint(1, ncols + 3)):
                if rng.random() < 0.4:
                    # one vector, often a combination of earlier rows
                    block = [combination() if inserted and rng.random() < 0.5 else random_vec()]
                else:
                    # a block, up to twice as many rows as columns, with zero
                    # rows, repeated rows and combinations of earlier rows
                    block = []
                    for _ in range(rng.randint(2, 2 * ncols + 2)):
                        kind = rng.random()
                        if kind < 0.15:
                            block.append([0] * ncols)
                        elif kind < 0.3 and block:
                            block.append(list(rng.choice(block)))
                        elif kind < 0.45 and inserted:
                            block.append(combination())
                        else:
                            block.append(random_vec())
                    # the 2-D normal forms
                    arr = np.array(block, dtype=np.int64)
                    assert ech.reduce(arr).tolist() == [ref.reduce(row) for row in block]
                inserted += block
                arr = np.array(block, dtype=np.int64)
                assert ech.add_row(arr if len(block) > 1 else arr[0]) == sum(ref.add_row(row) for row in block)
                assert ech.rank == len(ref.rows)
                assert ech.pivots == sorted(ref.rows)
                assert _rref_rows(ech) == [ref.rows[piv] for piv in sorted(ref.rows)]
                # the all-(q-1) probe has the largest coefficients at every pivot
                for probe in [random_vec() for _ in range(3)] + [block[0], [q - 1] * ncols]:
                    want = ref.reduce(probe)
                    got = ech.reduce(np.array(probe, dtype=np.int64))
                    assert got.tolist() == want
                    assert ech.contains(np.array(probe, dtype=np.int64)) == (not any(want))


def test_wide_blocks_match_python_gauss_jordan():
    # at the shipped widths, blocks wider than a panel over GF(101) and
    # GF(2^2), dense and of monomials, fill the echelon in a few inserts
    rng = random.Random(7)
    for field in (PrimeField(101), extend_field(PrimeField(2), 2)):
        q = field.order
        for monomials in (False, True):
            ncols = linalg.PANEL + 14
            ech, ref = Echelon(kernel_for(field), ncols), _GaussJordan(field)
            for _ in range(3):
                block = []
                for _ in range(rng.randint(ncols // 2, ncols)):
                    row = [0] * ncols
                    if monomials:
                        row[rng.randrange(ncols)] = rng.randrange(1, q)
                    else:
                        row = [rng.randrange(q) if rng.random() < 0.6 else 0 for _ in range(ncols)]
                    block.append(row)
                gains = sum(ref.add_row(row) for row in block)
                assert ech.add_row(np.array(block, dtype=np.int64)) == gains
                assert ech.pivots == sorted(ref.rows)
                assert _rref_rows(ech) == [ref.rows[piv] for piv in sorted(ref.rows)]
