"""The signed-term text readers ``parse_poly`` and ``parse_helem``: every
error site with its exact class, message and position, and parse/print round
trips.

Each row of the error tables is the result of the two earlier hand-written
readers on that input. Rows marked CHANGED give the result of the shared
reader (``lincomb.parse_terms`` and ``lincomb.read_rational``) where it
deliberately differs; the comment gives the old result.
"""
import pytest
from hypothesis import given, strategies as st

from treealg import (
    ForestSyntaxError,
    HElem,
    Poly,
    PolySyntaxError,
    parse_helem,
    parse_poly,
    print_helem,
    print_poly,
)

from conftest import forests_up_to

# (text, message, position)
POLY_ERRORS = [
    ("", "empty polynomial text", 0),
    ("   ", "empty polynomial text", 0),
    ("x +", "dangling sign", 2),
    ("-", "dangling sign", 0),
    ("x + -", "dangling sign", 4),
    # CHANGED: a dangling sign points at the last sign, not at the last
    # character of the text (was position 3, and 1 for "- ")
    ("x + ", "dangling sign", 2),
    ("- ", "dangling sign", 0),
    ("x 1", "expected '+' or '-' between terms", 2),
    ("2 3", "expected '+' or '-' between terms", 2),
    ("xz", "expected '+' or '-' between terms", 1),
    ("2/", "expected denominator digits", 2),
    ("x - 2/ y", "expected denominator digits", 7),
    ("2/ + x", "expected denominator digits", 3),
    ("1/0", "zero denominator", 2),
    ("x - 5/ 0y", "zero denominator", 7),
    ("x + 1/0 +", "zero denominator", 6),
    ("2*", "expected a word after '*'", 2),
    ("2* + x", "expected a word after '*'", 3),
    ("2 *  ", "expected a word after '*'", 5),
    ("2*z", "expected a word after '*'", 2),
    ("z", "unexpected character 'z'", 0),
    ("*x", "unexpected character '*'", 0),
    ("x + z", "unexpected character 'z'", 4),
    # CHANGED: a digit that int() does not read is not a coefficient (was a
    # bare ValueError "invalid literal for int() with base 10: '²'")
    ("²", "unexpected character '²'", 0),
]

ELEMENT_ERRORS = [
    ("", "empty element text", 0),
    ("  ", "empty element text", 0),
    ("[] +", "dangling sign", 3),
    ("  -", "dangling sign", 2),
    ("[] + -", "dangling sign", 5),
    ("- ", "dangling sign", 0),
    ("2x*[]", "bad coefficient '2x'", 0),
    ("[] + 2x*[]", "bad coefficient '2x'", 5),
    ("*[]", "bad coefficient ''", 0),
    ("2 3*[]", "bad coefficient '2 3'", 0),
    ("2/0*[]", "zero denominator", 2),
    ("[] - 3/00*[[]]", "zero denominator", 7),
    ("[] + 1/0", "zero denominator", 7),
    ("[] + [[]] x", "unexpected character 'x'", 10),
    ("x", "unexpected character 'x'", 0),
    ("1 2", "unexpected character '1'", 0),
    ("[", "unbalanced '['", 0),
    ("[] + [[]", "unbalanced '['", 5),
    ("]", "unexpected character ']'", 0),
    ("2*", "empty forest text", 2),
    ("[] - 3*  ", "empty forest text", 7),
    ("2*[]*[]", "unexpected character '*'", 4),
    # CHANGED: the leftmost error is reported (was "dangling sign" at 7,
    # checked before any term was read)
    ("x + [] +", "unexpected character 'x'", 0),
    # CHANGED: a coefficient is read by the one rational grammar, so its own
    # errors are reported where they occur, as in polynomial text (was
    # "bad coefficient '2/'" at 0, "unexpected character '2'" at 0,
    # "unexpected character '1'" at 0, "bad coefficient '1/0x'" at 0)
    ("2/*[]", "expected denominator digits", 2),
    ("2/x", "expected denominator digits", 2),
    ("1/0x", "zero denominator", 2),
    ("1/0x*[]", "zero denominator", 2),
]

# (text, canonical print): accepted by both readers
ACCEPTED = [
    (parse_poly, print_poly, "1 / 2x", "1/2x"),
    (parse_poly, print_poly, "x -- y", "x + y"),
    (parse_poly, print_poly, "2 1 - 0x", "2"),
    (parse_poly, print_poly, "4/2*1 - x y", "2 - xy"),
    (parse_helem, print_helem, "0", "0"),
    (parse_helem, print_helem, " 0 ", "0"),
    (parse_helem, print_helem, "[] - - 4/2*[]", "3*[]"),
    (parse_helem, print_helem, "3*1 - 1/2", "5/2*1"),
    # CHANGED: blanks around "/" in a forest coefficient, as in polynomial
    # text (was "bad coefficient '1 / 2'" at 0 and "unexpected character
    # '1'" at 0)
    (parse_helem, print_helem, "1 / 2*[]", "1/2*[]"),
    (parse_helem, print_helem, "1 /2", "1/2*1"),
]


def check_error(parse, cls, text, message, position):
    with pytest.raises(cls) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert str(exc.value) == f"{message} (at position {position})"
    assert exc.value.position == position


@pytest.mark.parametrize("text, message, position", POLY_ERRORS)
def test_poly_error(text, message, position):
    check_error(parse_poly, PolySyntaxError, text, message, position)


@pytest.mark.parametrize("text, message, position", ELEMENT_ERRORS)
def test_element_error(text, message, position):
    check_error(parse_helem, ForestSyntaxError, text, message, position)


@pytest.mark.parametrize("parse, print_, text, printed", ACCEPTED)
def test_accepted(parse, print_, text, printed):
    assert print_(parse(text)) == printed


coefficients = st.one_of(st.integers(-50, 50), st.fractions(max_denominator=20))


@given(st.dictionaries(st.text(alphabet="xy", max_size=5), coefficients, max_size=6))
def test_poly_round_trip(terms):
    p = Poly(terms)
    assert parse_poly(print_poly(p)) == p


@given(st.dictionaries(st.sampled_from(forests_up_to(4)), coefficients, max_size=6))
def test_element_round_trip(terms):
    a = HElem(terms)
    assert parse_helem(print_helem(a)) == a
