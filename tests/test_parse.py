import pytest

from frobranch.errors import ParseError
from frobranch.ffield import PrimeField
from frobranch.parse import parse_homog, parse_semigroup, parse_unipoly, parse_vector_list

F3 = PrimeField(3)
F5 = PrimeField(5)


def test_parse_unipoly_basic():
    f = parse_unipoly("t^2 + 1", F3)
    assert list(f.coefficients) == [1, 0, 1]


def test_parse_unipoly_coefficients_and_signs():
    f = parse_unipoly("2*t^3 - t + 4", F5)
    assert list(f.coefficients) == [4, 4, 0, 2]


def test_parse_unipoly_reduces_mod_p():
    f = parse_unipoly("3*t + 6", F3)
    assert f.is_zero()


def test_parse_unipoly_rejects_garbage():
    with pytest.raises(ParseError):
        parse_unipoly("t^", F3)
    with pytest.raises(ParseError):
        parse_unipoly("", F3)
    with pytest.raises(ParseError):
        parse_unipoly("t + + t", F3)


def test_parse_homog_basic():
    f = parse_homog("x^2 + y^2", F3, ("x", "y"))
    assert set(f.terms) == {(2, 0), (0, 2)}
    assert f.degree == 2


def test_parse_homog_optional_star():
    f = parse_homog("2*x*y + x^2", F5, ("x", "y"))
    assert f.terms[(1, 1)] == 2


def test_parse_homog_implicit_products():
    f = parse_homog("xy + yx", F5, ("x", "y"))
    assert f.terms[(1, 1)] == 2


def test_parse_homog_rejects_mixed_degree():
    with pytest.raises(ParseError) as info:
        parse_homog("x^2 + y", F3, ("x", "y"))
    assert "degree" in str(info.value)
    assert "'y'" in str(info.value)


def test_parse_homog_rejects_unknown_variable():
    with pytest.raises(ParseError) as info:
        parse_homog("x^2 + z^2", F3, ("x", "y"))
    assert info.value.position == 6


def test_parse_homog_cancellation_keeps_degree():
    f = parse_homog("x^2 - x^2 + 2*x*y", F3, ("x", "y"))
    assert set(f.terms) == {(1, 1)}


def test_parse_semigroup_affine():
    A = parse_semigroup("3: 2,0,0; 1,1,0; 1,0,1; 0,2,0; 0,0,2")
    assert A.n == 3 and len(A.generators) == 5


def test_parse_semigroup_numerical_shorthand():
    A = parse_semigroup("2,3")
    assert A.n == 1 and A.generators == ((2,), (3,))
    B = parse_semigroup("1: 2; 3")
    assert B.generators == A.generators


def test_parse_semigroup_wrong_arity():
    with pytest.raises(ParseError):
        parse_semigroup("3: 1,2")


def test_parse_semigroup_rejects_trailing():
    with pytest.raises(ParseError):
        parse_semigroup("2,3,")


def test_parse_vector_list():
    assert parse_vector_list("1,2; 3,4", 2) == [(1, 2), (3, 4)]
    with pytest.raises(ParseError):
        parse_vector_list("1,2; 3", 2)


def test_superscript_digits_are_parse_errors():
    # str.isdigit accepts '²', which int() rejects with a bare ValueError
    with pytest.raises(ParseError) as info:
        parse_homog("x^²", F3, ("x", "y"))
    assert info.value.position == 2
    with pytest.raises(ParseError) as info:
        parse_semigroup("²,3")
    assert info.value.position == 0
    with pytest.raises(ParseError):
        parse_vector_list("1,²", 2)
