import itertools
import os
import random
import re
import sys
import threading

import numpy as np
import pytest
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_pow_mod, gf_rem

from frobranch.errors import (
    CapExceeded,
    CompositeCharacteristic,
    FieldMismatch,
    ReducibleModulus,
    ZeroPolynomial,
)
from frobranch import ffield
from frobranch.linalg import Echelon, kernel_for
from frobranch.ffield import (
    MAX_EXTENSION_DEGREE,
    MAX_TABLE_ORDER,
    ExtensionField,
    PrimeField,
    UniPoly,
    distinct_root_count,
    extend_field,
    frob_root,
    frobenius_matrix,
    poly_gcd,
    squarefree_decomposition,
)
from reference import is_irreducible

F2 = PrimeField(2)
F3 = PrimeField(3)
F5 = PrimeField(5)


def gf9():
    # GF(9) = GF(3)[u]/(u^2+1)
    return ExtensionField(F3, UniPoly.from_ints(F3, [1, 0, 1]))


def test_field_make_prime():
    assert PrimeField(3).order == 3


def generator(F):
    """Code of u, the residue of t in F = base[t]/(modulus)."""
    return F.base.order


def test_field_make_extension():
    F9 = gf9()
    assert F9.order == 9
    u = generator(F9)
    assert F9.mul(u, u) == F9.neg(1)


def test_field_make_composite_characteristic():
    with pytest.raises(CompositeCharacteristic):
        PrimeField(4)


def test_field_make_reducible_modulus():
    # t^2 + 2 = t^2 - 1 = (t-1)(t+1) over GF(3)
    with pytest.raises(ReducibleModulus):
        ExtensionField(F3, UniPoly.from_ints(F3, [2, 0, 1]))


def test_cross_field_operations_rejected():
    with pytest.raises(FieldMismatch):
        poly_gcd(UniPoly.t(F2), UniPoly.t(F3))


def test_codes_outside_the_field_rejected():
    with pytest.raises(ValueError):
        UniPoly(F3, [0, 3])
    with pytest.raises(ValueError):
        UniPoly(gf9(), [9])
    with pytest.raises(ValueError):
        UniPoly(F3, [-1])


def test_prime_field_arithmetic_exhaustive():
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for a in range(p):
            for b in range(p):
                assert F.add(a, b) == (a + b) % p
                assert F.sub(a, b) == (a - b) % p
                assert F.mul(a, b) == (a * b) % p
                if b:
                    assert F.mul(b, F.inv(b)) == 1


def test_extension_inverse_exhaustive():
    for F in (gf9(), extend_field(extend_field(F2, 2), 2)):
        for c in range(1, F.order):
            assert F.mul(c, F.inv(c)) == 1
            assert F.pow(c, -1) == F.inv(c)


def _power_fields():
    """GF(p) and sampled GF(p^s), towers included."""
    F4 = extend_field(F2, 2)
    return [F2, F3, PrimeField(7), PrimeField(2**31 - 1), gf9(), F4, extend_field(F2, 3),
            extend_field(F5, 3), extend_field(F4, 2), extend_field(F4, 3), extend_field(gf9(), 2)]


@pytest.mark.parametrize("F", _power_fields(), ids=repr)
def test_zero_has_no_inverse_and_no_negative_power(F):
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    for n in (-1, -2, -F.order):
        with pytest.raises(ZeroDivisionError):
            F.pow(0, n)
    assert F.pow(0, 0) == 1
    assert [F.pow(0, n) for n in (1, 2, F.order, 3 * F.order + 1)] == [0] * 4


@pytest.mark.parametrize("F", _power_fields(), ids=repr)
def test_powers_at_negative_and_large_exponents(F):
    rng = random.Random(F.order)
    for _ in range(8):
        a = rng.randrange(1, min(F.order, 10**6))
        n = rng.randrange(1, 50)
        assert F.pow(a, -n) == F.pow(F.inv(a), n), (F, a, n)
        assert F.pow(a, 0) == 1
        if F.order <= 1000:
            # a^n by n - 1 products, for every n up to 2q + 2
            power = [1]
            for _ in range(2 * F.order + 2):
                power.append(F.mul(power[-1], a))
            for n in (F.order - 1, F.order, F.order + 1, 2 * F.order + 1, 2 * F.order + 2):
                assert F.pow(a, n) == power[n], (F, a, n)
        # a^(q-1) = 1, so n and n + k(q - 1) give the same power
        n = rng.randrange(F.order, 3 * F.order)
        assert F.pow(a, n) == F.pow(a, n - F.order + 1) == F.pow(a, n + 5 * (F.order - 1)), (F, a, n)


# the operations that refuse a code outside [0, q), each on one bad code a
_CHECKED_OPS = {
    "inv": lambda F, a: F.inv(a),
    "pow(a, 0)": lambda F, a: F.pow(a, 0),
    "pow(a, 2)": lambda F, a: F.pow(a, 2),
    "pow(a, -1)": lambda F, a: F.pow(a, -1),
    "pow(a, -2)": lambda F, a: F.pow(a, -2),
}
_EXTENSION_OPS = {
    "add(a, 0)": lambda F, a: F.add(a, 0),
    "add(0, a)": lambda F, a: F.add(0, a),
    "sub(a, 1)": lambda F, a: F.sub(a, 1),
    "sub(0, a)": lambda F, a: F.sub(0, a),
    "neg": lambda F, a: F.neg(a),
    "mul(a, 1)": lambda F, a: F.mul(a, 1),
    "mul(1, a)": lambda F, a: F.mul(1, a),
}


# GF(5), GF(5^3) and the tower GF(2^2) -> GF((2^2)^2)
@pytest.mark.parametrize("F", [F5, extend_field(F5, 3), extend_field(extend_field(F2, 2), 2)], ids=repr)
def test_codes_outside_the_field_are_refused(F):
    # over GF(5^3) add(130, 0) returned 5 and pow(-1, 2) 74, while
    # mul(130, 1) and inv(130) raised IndexError; over GF(5) inv(5),
    # pow(10, -1) and pow(5, -2) returned 0, an "inverse" of zero; over
    # GF(5^3) add(1.5, 0) returned 1.0, and GF(5).inv(2.0) raised TypeError
    ops = {**_CHECKED_OPS, **(_EXTENSION_OPS if isinstance(F, ExtensionField) else {})}
    q = F.order
    for a in (-1, -q, q, q + 5, 2 * q, 130, 1.5, 1.0):
        for name, op in ops.items():
            with pytest.raises(ValueError, match=re.escape(f"code {a} is not an element of {F!r}")):
                op(F, a)
                pytest.fail(f"{F!r}.{name} took code {a}")
    if isinstance(F, PrimeField):
        # add, sub, neg and mul take any integers and return the residue's code
        for a, b in itertools.product((-q - 2, -1, q, q + 3, 130), repeat=2):
            assert (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b)) == ((a + b) % q, (a - b) % q, -a % q, a * b % q)
    # numpy integer codes are codes, and every operation answers an int
    for a in (1, q - 1):
        for name, op in ops.items():
            got = op(F, np.int64(a))
            assert type(got) is int and got == op(F, a), (F, name, a)


def _schoolbook_mul(F, a, b):
    """Product of two codes of F = base[u]/(modulus) as polynomials over
    the base field, reduced by the modulus: independent of F's tables."""
    q = F.base.order
    pa = UniPoly(F.base, [a // q**i % q for i in range(F.s)])
    pb = UniPoly(F.base, [b // q**i % q for i in range(F.s)])
    prod = (pa * pb) % F.modulus
    return sum(c * q**i for i, c in enumerate(prod.coefficients))


def _digit_add(F, a, b):
    """Sum of two codes digit by digit on their GF(p)-coordinates."""
    p = F.p
    return sum((a // p**i + b // p**i) % p * p**i for i in range(F.degree))


def test_extension_arithmetic_matches_schoolbook():
    F4 = extend_field(F2, 2)
    for F in (gf9(), F4, extend_field(F4, 2), extend_field(F3, 3)):
        for a in range(F.order):
            assert F.add(a, F.neg(a)) == 0
            for b in range(F.order):
                assert F.mul(a, b) == _schoolbook_mul(F, a, b), (F, a, b)
                assert F.add(a, b) == _digit_add(F, a, b), (F, a, b)
                assert F.sub(F.add(a, b), b) == a


def test_frob_root_prime_field():
    assert frob_root(F3, 2) == 2
    assert frob_root(F5, 0) == 0


def test_frob_root_gf9_generator():
    F9 = gf9()
    u = generator(F9)
    # u^3 = u * u^2 = -u = 2u, and (2u)^3 = 8u^3 = ... = u, so 2u is the cube root of u
    assert frob_root(F9, u) == F9.pow(u, 3)
    assert frob_root(F9, u) == F9.mul(2, u)


def test_frob_root_cube_identity():
    for q, make in ((9, gf9), (8, lambda: ExtensionField(F2, UniPoly.from_ints(F2, [1, 1, 0, 1])))):
        F = make()
        for c in range(F.order):
            assert F.pow(frob_root(F, c), F.p) == c
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        for c in range(p):
            assert F.pow(frob_root(F, c), p) == c


def test_poly_gcd_with_zero():
    f = UniPoly.from_ints(F3, [1, 0, 1])
    assert poly_gcd(f, UniPoly.zero(F3)) == f


def test_poly_gcd_coprime():
    f = UniPoly.from_ints(F3, [1, 0, 1])
    g = UniPoly.from_ints(F3, [0, 2])
    assert poly_gcd(f, g) == UniPoly.one(F3)


def test_poly_gcd_common_factor():
    # (t-1)^2 and (t-1) over GF(5)
    lin = UniPoly.from_ints(F5, [-1, 1])
    assert poly_gcd(lin * lin, lin) == lin


def _all_polys(field, max_deg):
    for deg in range(max_deg + 1):
        for coeffs in itertools.product(range(field.order), repeat=deg):
            for lead in range(1, field.order):
                yield UniPoly(field, list(coeffs) + [lead])


def test_poly_gcd_against_divisor_enumeration():
    # naive oracle: the gcd is the highest-degree monic common divisor
    for field in (F2, F3):
        polys = list(_all_polys(field, 2))
        rng = random.Random(7)
        pairs = [(rng.choice(polys), rng.choice(polys)) for _ in range(40)]
        divisors = [d.monic() for d in _all_polys(field, 4)]
        for f, g in pairs:
            best = UniPoly.one(field)
            for d in divisors:
                if d.degree > max(f.degree, g.degree):
                    continue
                if (f % d).is_zero() and (g % d).is_zero() and d.degree > best.degree:
                    best = d
            assert poly_gcd(f, g) == best, (f, g)


def test_squarefree_decomposition_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        squarefree_decomposition(UniPoly.zero(F3))


def test_squarefree_decomposition_already_squarefree():
    f = UniPoly.from_ints(F3, [1, 0, 1])
    assert squarefree_decomposition(f) == [(f, 1)]


def test_squarefree_decomposition_pth_power():
    for p in (2, 3, 5):
        F = PrimeField(p)
        t = UniPoly.t(F)
        tp = UniPoly(F, [0] * p + [1])
        assert squarefree_decomposition(tp) == [(t, p)]


def test_squarefree_decomposition_mixed():
    t = UniPoly.t(F3)
    g = UniPoly.from_ints(F3, [1, 0, 1])
    f = t * g * g
    assert squarefree_decomposition(f) == [(t, 1), (g, 2)]


def _reassemble(field, factors):
    out = UniPoly.one(field)
    for g, m in factors:
        for _ in range(m):
            out = out * g
    return out


def test_squarefree_reassembly_random():
    rng = random.Random(2024)
    for p in (2, 3, 5):
        F = PrimeField(p)
        for _ in range(60):
            deg = rng.randint(1, 12)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            f = UniPoly.from_ints(F, coeffs)
            factors = squarefree_decomposition(f)
            assert _reassemble(F, factors) == f.monic()
            # the factors are squarefree and pairwise coprime
            for (g, _), (h, _) in itertools.combinations(factors, 2):
                assert poly_gcd(g, h) == UniPoly.one(F)
            for g, _ in factors:
                assert poly_gcd(g, g.derivative()) == UniPoly.one(F)


def test_distinct_root_count_examples():
    assert distinct_root_count(UniPoly.from_ints(F3, [1, 0, 1])) == 2
    # t^4 + 1 over GF(3): derivative t^3 is coprime to it
    assert distinct_root_count(UniPoly.from_ints(F3, [1, 0, 0, 0, 1])) == 4
    for p in (2, 3, 5):
        F = PrimeField(p)
        lin = UniPoly.from_ints(F, [-1, 1])
        f = UniPoly.one(F)
        for _ in range(p):
            f = f * lin
        assert distinct_root_count(f) == 1


def test_distinct_root_count_additive_on_coprime():
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        done = 0
        while done < 15:
            fc = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
            gc = [rng.randrange(p) for _ in range(rng.randint(1, 5))] + [rng.randrange(1, p)]
            f = UniPoly.from_ints(F, fc)
            g = UniPoly.from_ints(F, gc)
            if poly_gcd(f, g) != UniPoly.one(F):
                continue
            assert distinct_root_count(f * g) == distinct_root_count(f) + distinct_root_count(g)
            done += 1


def test_is_irreducible_small():
    assert is_irreducible(UniPoly.from_ints(F3, [1, 1]))             # t+1
    assert not is_irreducible(UniPoly.one(F3))
    assert is_irreducible(UniPoly.from_ints(F2, [1, 1, 1]))          # t^2+t+1
    assert not is_irreducible(UniPoly.from_ints(F2, [1, 0, 1]))      # (t+1)^2
    assert is_irreducible(UniPoly.from_ints(F2, [1, 1, 0, 0, 1]))    # t^4+t+1
    assert not is_irreducible(UniPoly.from_ints(F2, [1, 0, 0, 0, 1]))  # (t+1)^4
    # p = 3 mod 4: t^2 + 1 is irreducible, and 2 * (p-1)^2 still fits int64;
    # a degree-3 regular representation would not, and is refused
    big = PrimeField(2**31 - 1)
    assert is_irreducible(UniPoly.from_ints(big, [1, 0, 1]))
    with pytest.raises(CapExceeded):
        is_irreducible(UniPoly.from_ints(big, [1, 0, 0, 1]))


def _monic(field, s, code):
    """The monic polynomial of degree s whose lower coefficients are the
    base-q digits of code: the modulus search's enumeration order."""
    q = field.order
    return UniPoly(field, [code // q**i % q for i in range(s)] + [1])


def _first_irreducible(field, s):
    """First monic polynomial of degree s with no monic factor of degree
    1..s//2, by trial division over every such factor."""
    factors = [_monic(field, k, c) for k in range(1, s // 2 + 1) for c in range(field.order**k)]
    return next(
        f for f in (_monic(field, s, c) for c in itertools.count())
        if all(not (f % g).is_zero() for g in factors)
    )


def test_extend_field_modulus_is_first_irreducible():
    F4 = extend_field(F2, 2)
    for field, s in ((F2, 2), (F2, 3), (F2, 4), (F3, 2), (F3, 3), (F5, 2), (F4, 2)):
        ext = extend_field(field, s)
        assert ext.modulus == _first_irreducible(field, s), (field, s)
        assert ext.order == field.order**s
        # the generator is a root of the modulus
        g = generator(ext)
        acc = 0
        for i, c in enumerate(ext.modulus.coefficients):
            # a base-field code is the code of the same constant in ext
            acc = ext.add(acc, ext.mul(c, ext.pow(g, i)))
        assert acc == 0


def test_is_irreducible_matches_galoistools():
    # every monic polynomial of the given degrees, highest coefficient first
    for p, degrees in ((2, range(1, 7)), (3, range(1, 5)), (5, range(1, 4)), (7, range(1, 4))):
        F = PrimeField(p)
        for d in degrees:
            for lower in itertools.product(range(p), repeat=d):
                f = [1, *lower]
                assert is_irreducible(UniPoly(F, f[::-1])) == gf_irreducible_p(f, p, ZZ), (p, f)


def test_is_irreducible_over_towers_matches_trial_division():
    for base in (extend_field(F2, 2), extend_field(F3, 2)):
        for s in (2, 3):
            factors = [_monic(base, k, c) for k in range(1, s // 2 + 1) for c in range(base.order**k)]
            for code in range(base.order**s):
                f = _monic(base, s, code)
                assert is_irreducible(f) == all(not (f % g).is_zero() for g in factors), (base, f)


def _berlekamp_conditions(f):
    """(gcd(f, f') is 1, rank of F - I over GF(p)) for a monic f over GF(p)."""
    p = f.field.p
    basis = ffield._regular_basis(f.field, f)
    echelon = Echelon(kernel_for(f.field), len(basis))
    for row in (frobenius_matrix(basis, p) - basis[:, :, 0]) % p:
        echelon.add_row(row)
    return poly_gcd(f, f.derivative()) == UniPoly.one(f.field), echelon.rank


def test_each_berlekamp_condition_rejects_on_its_own():
    # (t+1)^2: B has one Frobenius-fixed dimension, only the gcd rejects
    square = UniPoly.from_ints(F2, [1, 0, 1])
    assert _berlekamp_conditions(square) == (False, 1)
    # (t^2+t+1)(t^3+t+1) is squarefree with two fixed dimensions; only the
    # rank rejects
    product = UniPoly.from_ints(F2, [1, 1, 1]) * UniPoly.from_ints(F2, [1, 1, 0, 1])
    assert _berlekamp_conditions(product) == (True, 3)
    assert not is_irreducible(square) and not is_irreducible(product)


def test_frobenius_matrix_of_gf4():
    # GF(4) = GF(2)[u]/(u^2+u+1): 1 -> 1 and u -> u^2 = 1 + u
    basis = ffield._regular_basis(F2, UniPoly.from_ints(F2, [1, 1, 1]))
    assert frobenius_matrix(basis, 2).tolist() == [[1, 0], [1, 1]]


def test_oversized_extension_refused_before_any_irreducibility_test(monkeypatch):
    calls, sieved = [], []
    test, sieve = ffield._is_field, ffield._first_irreducible_code
    monkeypatch.setattr(ffield, "_is_field", lambda f, basis: calls.append(f) or test(f, basis))
    monkeypatch.setattr(ffield, "_first_irreducible_code", lambda field, s: sieved.append(s) or sieve(field, s))
    with pytest.raises(CapExceeded):
        extend_field(PrimeField(3), 8)  # 3^8 = 6561 > MAX_TABLE_ORDER
    with pytest.raises(CapExceeded):
        extend_field(F2, MAX_EXTENSION_DEGREE + 1)
    with pytest.raises(CapExceeded):
        extend_field(extend_field(F3, 2), 4)  # a tower base: (3^2)^4 > MAX_TABLE_ORDER
    assert calls == [] and sieved == []
    with pytest.raises(ReducibleModulus):
        ExtensionField(F3, UniPoly.from_ints(F3, [2, 0, 1]))  # t^2 + 2 = (t-1)(t+1)
    assert len(calls) == 1


def _prime_extensions():
    """Every GF(p^s), s >= 2, within the order and degree caps (p^2 <= the
    order cap bounds p)."""
    primes = [p for p in range(2, 65) if all(p % d for d in range(2, p))]
    return [
        (p, s) for p in primes for s in range(2, MAX_EXTENSION_DEGREE + 1)
        if p**s <= MAX_TABLE_ORDER
    ]


def _mat_product(F, a, b):
    """a * b read off the scalar matrix of a applied to b's digits."""
    p, D = F.p, F.degree
    digits = [b // p**i % p for i in range(D)]
    image = F.mats[a].dot(digits) % p
    return sum(int(x) * p**i for i, x in enumerate(image))


def _check_mats(F, scalars=None):
    """mats[c] applied to the digits of every code b gives the digits of
    c * b, the schoolbook product, for every code c unless scalars are
    given."""
    p, D = F.p, F.degree
    powers = p ** np.arange(D, dtype=np.int64)
    digits = np.arange(F.order)[:, None] // powers % p
    for c in (range(F.order) if scalars is None else scalars):
        image = digits @ F.mats[c].T % p
        assert (image @ powers).tolist() == [_schoolbook_mul(F, c, b) for b in range(F.order)], (F, c)


def test_scalar_matrices_match_field_mul():
    F4 = extend_field(F2, 2)
    for F in (gf9(), F4, extend_field(F4, 2), extend_field(F5, 3)):
        _check_mats(F)


def test_extension_matrices_are_q_by_s_by_s():
    mats = extend_field(F2, 8).mats
    assert mats.dtype == np.int64 and mats.shape == (256, 8, 8)
    assert mats.min() == 0 and mats.max() == 1


def test_scalar_matrices_hold_at_a_large_order():
    # GF(5^5): the largest code, every digit 4, and random scalars, against
    # every code
    F = extend_field(F5, 5)
    rng = random.Random(5)
    _check_mats(F, [F.order - 1] + [rng.randrange(F.order) for _ in range(20)])


def test_prime_base_extensions_match_galoistools():
    rng = random.Random(20231)
    specs = _prime_extensions()
    assert len(specs) == 36
    for p, s in specs:
        F = extend_field(PrimeField(p), s)
        q = F.order
        mod = list(reversed(F.modulus.coefficients))
        to_gf = lambda c: [c // p**i % p for i in reversed(range(s))]
        from_gf = lambda g: sum(int(x) * p**i for i, x in enumerate(reversed(g)))
        product = lambda a, b: from_gf(gf_rem(gf_mul(to_gf(a), to_gf(b), p, ZZ), mod, p, ZZ))
        for _ in range(60):
            a, b, n = rng.randrange(q), rng.randrange(q), rng.randrange(2 * q)
            expected = product(a, b)
            assert F.mul(a, b) == expected == _mat_product(F, a, b), (p, s, a, b)
            assert F.pow(a, n) == from_gf(gf_pow_mod(to_gf(a), n, mod, p, ZZ)), (p, s, a, n)
            if a:
                assert product(a, F.inv(a)) == 1, (p, s, a)


def test_tower_extensions_match_unipoly_products():
    rng = random.Random(20232)
    F4, F9, F25 = extend_field(F2, 2), extend_field(F3, 2), extend_field(F5, 2)
    F8, F27 = extend_field(F2, 3), extend_field(F3, 3)
    for base, s in ((F4, 2), (F9, 2), (F25, 2), (F8, 2), (F4, 3), (F27, 2)):
        F = extend_field(base, s)
        q = F.order
        for _ in range(60):
            a, b, n = rng.randrange(q), rng.randrange(q), rng.randrange(40)
            expected = _schoolbook_mul(F, a, b)
            assert F.mul(a, b) == expected == _mat_product(F, a, b), (F, a, b)
            power = 1
            for _ in range(n):
                power = _schoolbook_mul(F, power, a)
            assert F.pow(a, n) == power, (F, a, n)
            if a:
                assert _schoolbook_mul(F, a, F.inv(a)) == 1, (F, a)


def test_tower_embedding_is_homomorphism():
    # the constant embedding is the identity on codes
    F4 = extend_field(F2, 2)
    F16 = extend_field(F4, 2)
    for small, big in ((F2, F4), (F4, F16), (F3, gf9())):
        for a in range(small.order):
            for b in range(small.order):
                assert big.add(a, b) == small.add(a, b)
                assert big.mul(a, b) == small.mul(a, b)


def _candidate_loop(field, s):
    """The modulus search the sieve replaced, kept as its reference: one
    ExtensionField per monic candidate of degree s in code order, up to the
    first that Berlekamp's test accepts, with its table read at once."""
    for code in range(field.order**s):
        try:
            ext = ExtensionField(field, _monic(field, s, code))
        except ReducibleModulus:
            continue
        ext.mats  # builds the table
        return ext


def test_sieve_picks_the_candidate_loops_field():
    F4, F9 = extend_field(F2, 2), extend_field(F3, 2)
    specs = [(PrimeField(p), s) for p, s in _prime_extensions()]
    specs += [(F4, 2), (F4, 3), (F9, 2), (F9, 3)]
    for base, s in specs:
        ext, ref = extend_field(base, s), _candidate_loop(base, s)
        assert ext.modulus == ref.modulus, (base, s)
        assert np.array_equal(ext.mats, ref.mats), (base, s)


def test_a_sieve_that_picks_a_reducible_code_is_refused(monkeypatch):
    # Berlekamp's test in ExtensionField stays the certificate: a sieve
    # bug cannot give a wrong field
    monkeypatch.setattr(ffield, "_first_irreducible_code", lambda field, s: 0)  # t^s
    extend_field.cache_clear()
    with pytest.raises(ReducibleModulus):
        extend_field(F3, 2)


def test_racing_first_reads_see_complete_tables():
    # more threads than cores race on the first product, the first read of
    # mats, of fresh fields, with thread switches forced far more often
    # than by default
    threads = min(os.cpu_count() or 1, 32) + 2
    F4 = extend_field(F2, 2)
    specs = [(F2, 8), (F3, 5), (F5, 3), (F4, 2)]
    rng = random.Random(26)
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for base, s in specs * 3:
            ref = extend_field(base, s)
            pairs = [(rng.randrange(1, ref.order), rng.randrange(ref.order)) for _ in range(50)]
            expected = [(ref.mul(a, b), ref.add(a, b), ref.inv(a)) for a, b in pairs]
            field = ExtensionField(base, ref.modulus)
            barrier = threading.Barrier(threads)
            seen = [None] * threads

            def work(i):
                try:
                    barrier.wait(timeout=10)
                    got = [(field.mul(a, b), field.add(a, b), field.inv(a)) for a, b in pairs]
                    seen[i] = got, field.__dict__.get("mats")
                except Exception as exc:
                    seen[i] = exc

            workers = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in workers), (base, s)
            for result in seen:
                assert isinstance(result, tuple), (base, s, result)
                got, published = result
                assert got == expected, (base, s)
                assert np.array_equal(published, ref.mats), (base, s)
    finally:
        sys.setswitchinterval(old)
