import random

import numpy as np

from frobranch.ffield import ExtensionField, PrimeField, UniPoly, extend_field
from frobranch.linalg import Echelon, kernel_for


def _check_kernel(field):
    """Vectorized arithmetic agrees with the field's scalar arithmetic on
    every pair of codes."""
    k = kernel_for(field)
    assert kernel_for(field) is k
    codes = np.arange(field.order, dtype=np.int64)
    for a in range(field.order):
        row = np.full(field.order, a, dtype=np.int64)
        assert k.add(row, codes).tolist() == [field.add(a, b) for b in range(field.order)]
        assert k.sub(row, codes).tolist() == [field.sub(a, b) for b in range(field.order)]
        assert k.scalar_mul(a, codes).tolist() == [field.mul(a, b) for b in range(field.order)]


def test_prime_kernel_roundtrip():
    _check_kernel(PrimeField(7))


def test_table_kernel_matches_field_arithmetic():
    F3 = PrimeField(3)
    F9 = ExtensionField(F3, UniPoly.from_ints(F3, [1, 0, 1]))
    F4 = extend_field(PrimeField(2), 2)
    for field in (F9, F4, extend_field(F4, 2), extend_field(PrimeField(5), 3)):
        _check_kernel(field)


def test_extension_tables_are_int16():
    k = kernel_for(extend_field(PrimeField(2), 8))
    assert k._add.dtype == k._neg.dtype == k._mul.dtype == np.int16
    assert k._add.shape == k._mul.shape == (256, 256)


def test_int16_tables_hold_at_a_large_order():
    # GF(5^5): the square of the element of largest logarithm indexes the
    # exp list at 2 * 3123, and no sum or product may wrap around
    field = extend_field(PrimeField(5), 5)
    k = kernel_for(field)
    top = field.exp[field.order - 2]
    rng = random.Random(5)
    pairs = [(top, top)] + [(rng.randrange(field.order), rng.randrange(field.order)) for _ in range(500)]
    for a, b in pairs:
        assert int(k._mul[a, b]) == field.mul(a, b)
        assert int(k._add[a, b]) == field.add(a, b)
        assert int(k._neg[b]) == field.sub(0, b)


def test_echelon_known_rank():
    k = kernel_for(PrimeField(5))
    ech = Echelon(k, 3)
    gains = [ech.add_row(np.array(row, dtype=np.int64)) for row in ([1, 2, 3], [2, 4, 6], [0, 1, 1])]
    assert gains == [True, False, True]
    assert ech.rank == 2
    assert ech.contains(np.array([1, 3, 4], dtype=np.int64))   # row1 + row3
    assert not ech.contains(np.array([0, 0, 1], dtype=np.int64))


def test_echelon_rref_shape():
    k = kernel_for(PrimeField(3))
    ech = Echelon(k, 4)
    for row in ([1, 1, 0, 2], [0, 2, 1, 0], [1, 0, 1, 1]):
        ech.add_row(np.array(row, dtype=np.int64))
    # pivots strictly increasing, unit pivots, zeros above and below
    assert ech.pivots == sorted(ech.pivots)
    for i, piv in enumerate(ech.pivots):
        assert ech.rows[i][piv] == 1
        for j in range(len(ech.rows)):
            if j != i:
                assert ech.rows[j][piv] == 0


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
            combo = np.zeros(ncols, dtype=np.int64)
            for row in rows:
                c = rng.randrange(q)
                combo = k.add(combo, k.scalar_mul(c, row))
            assert ech.contains(combo)
            # reducing any inserted row gives zero
            for row in rows:
                assert not np.any(ech.reduce(row))


def test_echelon_clone_is_independent():
    k = kernel_for(PrimeField(3))
    ech = Echelon(k, 3)
    ech.add_row(np.array([1, 0, 0], dtype=np.int64))
    c = ech.clone()
    c.add_row(np.array([0, 1, 0], dtype=np.int64))
    assert ech.rank == 1 and c.rank == 2
