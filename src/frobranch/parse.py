"""Text grammars shared by the library and the CLI.

Three inputs are parsed: univariate polynomials in t (field moduli),
multivariate homogeneous polynomials over a declared variable list
(relations and ideal generators), and semigroup generator lists, read to
their canonical generators (AffineSemigroup.generators) without building
the semigroup.  All errors carry the offending position.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Sequence

from .errors import ParseError
from .ffield import Field, UniPoly
from .graded import HomogPoly


_SPACE = re.compile(r"\s*")
_STAR = re.compile(r"\s*\*")


@lru_cache(maxsize=64)
def _factor_pattern(var_names: tuple) -> re.Pattern:
    """One factor of a term, after optional whitespace: a decimal integer,
    or a declared variable (the longest name that matches) with an
    optional '^' exponent, whose digits may be missing."""
    # (?!) matches nothing: with no variables every name is undeclared
    names = "|".join(re.escape(v) for v in sorted(var_names, key=len, reverse=True)) or "(?!)"
    return re.compile(rf"\s*(?:(\d+)|({names})(?:\s*\^\s*(\d*))?)")


def _parse_terms(text: str, var_names: Sequence[str]):
    """Sum of terms; a term is integer and variable-power factors with
    optional '*' separators.  Yields (position, sign*coeff, exponent mono)."""
    factor = _factor_pattern(tuple(var_names))
    index = {v: i for i, v in enumerate(var_names)}
    out = []
    pos, end = _SPACE.match(text).end(), len(text)
    while pos < end:
        sign = 1
        if text[pos] in "+-":
            if text[pos] == "+" and not out:
                raise ParseError(pos, "a term, not a leading '+'")
            sign = -1 if text[pos] == "-" else 1
            pos = _SPACE.match(text, pos + 1).end()
        elif out:
            raise ParseError(pos, "'+' or '-' between terms")
        term_pos = pos  # point at the term body, past any sign
        coeff = None
        expo = [0] * len(var_names)
        saw_factor = False
        while True:
            m = factor.match(text, pos)
            if m is None:
                pos = _SPACE.match(text, pos).end()
                if pos < end and (text[pos].isalpha() or text[pos] == "_"):
                    raise ParseError(pos, f"one of the declared variables {list(var_names)}")
                break
            saw_factor = True
            digits, name, power = m.groups()
            if digits is not None:
                coeff = int(digits) if coeff is None else coeff * int(digits)
            elif power is None:
                expo[index[name]] += 1
            elif not power:
                raise ParseError(m.start(3), "a decimal integer")
            elif int(power) < 1:
                raise ParseError(m.end(3), "an exponent >= 1")
            else:
                expo[index[name]] += int(power)
            star = _STAR.match(text, m.end())
            if star:
                pos = star.end()
                continue
            # juxtaposed factors multiply
            pos = _SPACE.match(text, m.end()).end()
            if not (pos < end and (text[pos].isalnum() or text[pos] == "_")):
                break
        if not saw_factor:
            raise ParseError(pos, "a coefficient or a variable")
        out.append((term_pos, sign * (1 if coeff is None else coeff), tuple(expo)))
        pos = _SPACE.match(text, pos).end()
    if not out:
        raise ParseError(0, "a nonempty polynomial")
    return out


def parse_unipoly(text: str, field: Field) -> UniPoly:
    """Univariate polynomial in t over the given field."""
    terms = _parse_terms(text, ("t",))
    top = max(m[0] for _, _, m in terms)
    coeffs = [0] * (top + 1)
    for _, c, m in terms:
        coeffs[m[0]] += c
    return UniPoly.from_ints(field, coeffs)


def parse_homog(text: str, field: Field, var_names: Sequence[str]) -> HomogPoly:
    """Homogeneous polynomial over the declared variables; mixed degrees are
    rejected with the offending term."""
    terms = _parse_terms(text, var_names)
    degree = sum(terms[0][2])
    coeffs: dict = {}
    for pos, c, m in terms:
        if sum(m) != degree:
            end = len(text)
            for i in range(pos + 1, len(text)):
                if text[i] in "+-":
                    end = i
                    break
            raise ParseError(
                pos,
                f"a term of degree {degree}; term '{text[pos:end].strip()}' has degree {sum(m)}",
            )
        coeffs[m] = coeffs.get(m, 0) + c
    return HomogPoly(field, len(var_names), degree, {m: c % field.p for m, c in coeffs.items()})


# The generator grammars are decimal integers split by ',' and ';', with
# whitespace anywhere between tokens.  A text is read token by token
# (_TOKEN), so an error names its position and the token the grammar
# expects there.
_TOKEN = re.compile(r"\s*(\d+|.|\Z)", re.S)  # an integer, any other character, or the end ''


def _read_integers(tokens, separators: tuple, offset: int = 0) -> tuple[list[int], re.Match]:
    """Integers split by one of the separators, read from a _TOKEN
    iterator over a text that starts at position offset of the input: the
    integers, and the token after the last one."""
    values = []
    while True:
        tok = next(tokens)
        if not tok[1].isdecimal():
            raise ParseError(offset + tok.start(1), "a decimal integer")
        values.append(int(tok[1]))
        tok = next(tokens)
        if tok[1] not in separators:
            return values, tok


def parse_vector_list(text: str, n: int, offset: int = 0) -> list[tuple[int, ...]]:
    """Semicolon-separated vectors, each a comma-list of n integers, in a
    text that starts at position offset of the input: every error is
    reported at offset plus its position in text."""
    tokens = _TOKEN.finditer(text)
    vectors = []
    while True:
        vec, tok = _read_integers(tokens, (",",), offset)
        if len(vec) != n:
            raise ParseError(offset + tok.start(1), f"a vector of {n} coordinates, got {len(vec)}")
        vectors.append(tuple(vec))
        if tok[1] != ";":
            break
    if tok[1]:
        raise ParseError(offset + tok.start(1), "';' or end of input")
    return vectors


def parse_semigroup(text: str) -> tuple[tuple[int, ...], ...]:
    """Semigroup generators: `n: v1; v2; ...` with comma-separated
    coordinates, or the numerical shorthand `a,b,c` (dimension 1), as the
    canonical generators of the semigroup they generate: sorted, repeats
    and the zero vector dropped.  The grammar reads n coordinates per
    vector, each a decimal integer, so the only generators that
    AffineSemigroup refuses are those with no nonzero vector."""
    if ":" in text:
        (n,), colon = _read_integers(_TOKEN.finditer(text), ())
        if n < 1:
            raise ParseError(0, "an ambient dimension >= 1")
        if colon[1] != ":":
            raise ParseError(colon.start(1), "':'")
        vectors = parse_vector_list(text[colon.end(1) :], n, offset=colon.end(1))
    else:
        # numerical shorthand: commas (or semicolons) between single integers
        values, tok = _read_integers(_TOKEN.finditer(text), (",", ";"))
        if tok[1]:
            raise ParseError(tok.start(1), "',' or end of input")
        vectors = [(v,) for v in values]
    gens = tuple(sorted({v for v in vectors if any(v)}))
    if not gens:
        raise ParseError(0, "valid generators (need at least one nonzero generator)")
    return gens
