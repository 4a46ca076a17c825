"""The noncommutative polynomial ring Q<x, y>.

Words are plain strings over the alphabet {x, y}; the empty string is the
unit word. ``Poly`` is a sparse map word -> rational on the shared
linear-combination core (``lincomb``), whose sums accumulate in place.
Canonical printing orders terms by word length, then lexicographically with
x < y.
"""
from __future__ import annotations

from .lincomb import (
    LinComb,
    Scalar,
    add_concat_into,
    format_terms,
    parse_terms,
    read_rational,
    skip_while,
)


class PolySyntaxError(ValueError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Poly(LinComb):
    """A finite Q-linear combination of words over {x, y}."""

    __slots__ = ()
    _degree = len

    @classmethod
    def from_word(cls, w: str, coeff: Scalar = 1) -> "Poly":
        """coeff * w; raises ValueError if w has a letter other than x, y."""
        if w.strip("xy"):
            raise ValueError(f"word {w!r} has a letter other than x and y")
        return cls({w: coeff})

    @classmethod
    def one(cls) -> "Poly":
        return cls._wrap({"": 1})

    def __mul__(self, other: "Poly") -> "Poly":
        """Concatenation product (noncommutative)."""
        if type(other) is not Poly:
            return NotImplemented
        acc: dict[str, Scalar] = {}
        add_concat_into(acc, self.terms, other.terms)
        return Poly(acc)

    def __repr__(self) -> str:
        return f"Poly({print_poly(self)!r})"


X = Poly._wrap({"x": 1})
Y = Poly._wrap({"y": 1})
ONE = Poly.one()
Z = X + Y


def strip_y(v: Poly) -> Poly:
    """The inverse of R_y: remove the final y from every word."""
    out: dict[str, Scalar] = {}
    for w, c in v.terms.items():
        if not w.endswith("y"):
            raise ValueError(f"term {w or '1'!r} does not end in y")
        out[w[:-1]] = c
    return Poly._wrap(out)


def op_R(v: Poly) -> Poly:
    """The degree-raising operator R_y R_{x+2y} R_y^{-1}: each term c*uy
    becomes c*uxy + 2c*uyy. The images of distinct terms are distinct."""
    out: dict[str, Scalar] = {}
    for w, c in v.terms.items():
        if not w.endswith("y"):
            raise ValueError(f"term {w or '1'!r} does not end in y")
        u = w[:-1]
        out[u + "xy"] = c
        out[u + "yy"] = 2 * c
    return Poly._wrap(out)


def op_R_pow(k: int, v: Poly) -> Poly:
    for _ in range(k):
        v = op_R(v)
    return v


def _poly_term(w: str, mag: Scalar) -> str:
    if not w:
        return str(mag)
    return w if mag == 1 else f"{mag}{w}"


def print_poly(p: Poly) -> str:
    return format_terms(p.terms, lambda w: (len(w), w), _poly_term)


def _read_poly_term(s: str, i: int, end: int) -> tuple[str, Scalar]:
    """The term ``[rational ["*"]] word`` at s[i:end]. Blanks may separate
    letters; the unit word is "1", or nothing after a rational."""
    coeff, i = read_rational(s, i, PolySyntaxError)
    i = skip_while(s, i)
    if coeff is not None and s.startswith("*", i):
        i = skip_while(s, i + 1)
        if not s.startswith(("x", "y", "1"), i):
            raise PolySyntaxError("expected a word after '*'", i)
    letters = ""
    if s.startswith("1", i):
        i = skip_while(s, i + 1)
    else:
        while s.startswith(("x", "y"), i):
            letters += s[i]
            i = skip_while(s, i + 1)
        if not letters and coeff is None:
            raise PolySyntaxError(f"unexpected character {s[i]!r}", i)
    if i < end:
        raise PolySyntaxError("expected '+' or '-' between terms", i)
    return letters, 1 if coeff is None else coeff


def parse_poly(text: str) -> Poly:
    """Parse polynomial text: signed terms ``[rational ["*"]] word``.

    Whitespace is insignificant; rationals are "p" or "p/q"; the unit word
    is "1"; "*" between coefficient and word is optional, but a "*" must be
    followed by a word.
    """
    return Poly._wrap(parse_terms(text, _read_poly_term, PolySyntaxError, "polynomial"))
