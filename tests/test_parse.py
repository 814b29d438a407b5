import random

import pytest

from frobranch.errors import ParseError
from frobranch.ffield import PrimeField
from frobranch.parse import parse_homog, parse_semigroup, parse_unipoly, parse_vector_list
from frobranch.semigroup import AffineSemigroup

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
    gens = parse_semigroup("3: 2,0,0; 1,1,0; 1,0,1; 0,2,0; 0,0,2")
    assert gens == AffineSemigroup(gens).generators
    assert {len(g) for g in gens} == {3} and len(gens) == 5


def test_parse_semigroup_numerical_shorthand():
    gens = parse_semigroup("2,3")
    assert gens == ((2,), (3,))
    assert parse_semigroup("1: 3; 2; 0; 3") == gens


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


@pytest.mark.parametrize("text, position", [
    ("3: 1,x", 5), ("2:", 2), ("2: 1,2;", 7), ("2: 1,2; 3", 9), ("2: 1;", 4), ("x: 1", 0),
])
def test_semigroup_errors_are_at_their_position_in_the_whole_text(text, position):
    with pytest.raises(ParseError) as info:
        parse_semigroup(text)
    assert info.value.position == position


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


# The per-character reader the generator grammars used before the regex
# scan, kept as the reference its errors are compared against; only
# reference_parse_vector_list changed since, to report a missing integer at
# its absolute position like every other error.
class _Cursor:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            raise ParseError(self.pos, f"'{ch}'")

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():  # the digits int() reads
            self.pos += 1
        if self.pos == start:
            raise ParseError(start, "a decimal integer")
        return int(self.text[start : self.pos])

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def reference_parse_vector_list(text, n, offset=0):
    # every error at its absolute position, offset plus its place in text
    cur = _Cursor(text)
    vectors = []
    try:
        while True:
            vec = [cur.integer()]
            while cur.take(","):
                vec.append(cur.integer())
            if len(vec) != n:
                raise ParseError(cur.pos, f"a vector of {n} coordinates, got {len(vec)}")
            vectors.append(tuple(vec))
            if not cur.take(";"):
                break
        if not cur.done():
            raise ParseError(cur.pos, "';' or end of input")
    except ParseError as exc:
        raise ParseError(offset + exc.position, exc.expected) from None
    return vectors


def reference_parse_semigroup(text):
    cur = _Cursor(text)
    if ":" in text:
        n = cur.integer()
        if n < 1:
            raise ParseError(0, "an ambient dimension >= 1")
        cur.expect(":")
        vectors = reference_parse_vector_list(text[cur.pos :], n, offset=cur.pos)
    else:
        vals = [cur.integer()]
        while cur.take(",") or cur.take(";"):
            vals.append(cur.integer())
        if not cur.done():
            raise ParseError(cur.pos, "',' or end of input")
        vectors = [(v,) for v in vals]
    try:
        return AffineSemigroup(vectors)
    except ValueError as exc:
        raise ParseError(0, f"valid generators ({exc})") from exc


def _outcome(parse, *args):
    """What a parse returns, or the type, message and position it raises."""
    try:
        out = parse(*args)
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return out.generators if isinstance(out, AffineSemigroup) else out


# decimal digits (an Arabic-Indic one included, which int() reads), the
# separators, other whitespace, and characters the grammar refuses ('²'
# is a digit to str.isdigit, not to int())
_ALPHABET = ["0", "1", "2", "7", "10", "٣", ",", ";", ":", " ", " ", "\t", "\n", " ", "²", "x", "-", "+"]


def test_scan_matches_the_character_reader_on_seeded_texts():
    rng = random.Random(2503)
    accepted = refused = 0
    for _ in range(3000):
        if rng.random() < 0.5:  # near-valid: vectors of 1-3 integers, then one edit
            n = rng.randint(1, 3)
            vectors = [",".join(str(rng.randint(0, 12)) for _ in range(rng.choice((n, n, n, n - 1, n + 1))))
                       for _ in range(rng.randint(1, 4))]
            text = rng.choice((f"{n}:", f" {n} :", "")) + rng.choice((";", " ; ", "; ")).join(vectors)
            if rng.random() < 0.5:
                i = rng.randint(0, len(text))
                text = text[:i] + rng.choice(_ALPHABET) + text[i + rng.randint(0, 1):]
        else:
            text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 14)))
        ours = _outcome(parse_semigroup, text)
        assert ours == _outcome(reference_parse_semigroup, text), repr(text)
        refused += isinstance(ours[0], type)
        accepted += not isinstance(ours[0], type)
        for n in (1, 2, 3):
            assert _outcome(parse_vector_list, text, n, 5) == _outcome(reference_parse_vector_list, text, n, 5), (text, n)
    assert accepted > 300 and refused > 1000


@pytest.mark.parametrize("text", [
    "9" * 5000 + ",3", "9" * 5000 + ",x", "1,2," + "9" * 5000, "2: 1," + "9" * 5000 + "; 1", "2: 1,1; x" + "9" * 5000,
])
def test_scan_raises_where_the_reader_did_on_oversized_integers(text):
    # int() refuses more than 4300 digits with ValueError; the scan meets
    # the digits in the same order as the reader did, so it raises the same
    assert _outcome(parse_semigroup, text) == _outcome(reference_parse_semigroup, text)
