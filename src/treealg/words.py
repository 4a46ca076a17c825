"""The noncommutative polynomial ring Q<x, y>.

Words are plain strings over the alphabet {x, y}; the empty string is the
unit word. ``Poly`` is a sparse map word -> rational. Canonical printing
orders terms by word length, then lexicographically with x < y.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

Scalar = Union[int, Fraction]


class PolySyntaxError(ValueError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Poly:
    """A finite Q-linear combination of words over {x, y}."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[str, Scalar] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if c}

    @classmethod
    def from_word(cls, w: str, coeff: Scalar = 1) -> "Poly":
        return cls({w: coeff})

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls({"": 1})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """Common word length of all terms, None if mixed (zero -> 0)."""
        lengths = {len(w) for w in self.terms}
        if not lengths:
            return 0
        if len(lengths) > 1:
            return None
        return lengths.pop()

    def ends_in_y(self) -> bool:
        """True if every term is a nonempty word ending in y."""
        return all(w.endswith("y") for w in self.terms)

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Poly(out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-1) * other

    def __neg__(self) -> "Poly":
        return (-1) * self

    def __rmul__(self, scalar: Scalar) -> "Poly":
        return Poly({w: scalar * c for w, c in self.terms.items()})

    def __mul__(self, other: "Poly") -> "Poly":
        """Concatenation product (noncommutative)."""
        out: dict[str, Scalar] = {}
        for v, a in self.terms.items():
            for w, b in other.terms.items():
                vw = v + w
                out[vw] = out.get(vw, 0) + a * b
        return Poly(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Poly) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"Poly({print_poly(self)!r})"


X = Poly.from_word("x")
Y = Poly.from_word("y")
ONE = Poly.one()
Z = X + Y
X_PLUS_2Y = X + 2 * Y


def concat(a: Poly, b: Poly) -> Poly:
    return a * b


def right_mul(v: Poly, w: Poly) -> Poly:
    """The operator R_w: v -> vw."""
    return v * w


def strip_y(v: Poly) -> Poly:
    """The inverse of R_y: remove the final y from every word."""
    out: dict[str, Scalar] = {}
    for w, c in v.terms.items():
        if not w.endswith("y"):
            raise ValueError(f"term {w or '1'!r} does not end in y")
        out[w[:-1]] = c
    return Poly(out)


def op_R(v: Poly) -> Poly:
    """The degree-raising operator R_y R_{x+2y} R_y^{-1}."""
    return strip_y(v) * X_PLUS_2Y * Y


def op_R_pow(k: int, v: Poly) -> Poly:
    for _ in range(k):
        v = op_R(v)
    return v


def print_poly(p: Poly) -> str:
    if not p.terms:
        return "0"
    parts = []
    for w in sorted(p.terms, key=lambda w: (len(w), w)):
        c = p.terms[w]
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        word = w if w else "1"
        if not w:
            body = str(mag)
        elif mag == 1:
            body = word
        else:
            body = f"{mag}{word}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def parse_poly(text: str) -> Poly:
    """Parse polynomial text: signed terms ``[rational "*"] word``.

    Whitespace is insignificant; rationals are "p" or "p/q"; the unit word
    is "1"; "*" between coefficient and word is optional.
    """
    s = text
    i = 0
    n = len(s)
    out = Poly.zero()
    seen_term = False

    def skip_ws(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    i = skip_ws(i)
    if i == n:
        raise PolySyntaxError("empty polynomial text", 0)
    while i < n:
        sign = 1
        saw_sign = False
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            saw_sign = True
            i = skip_ws(i + 1)
        if i >= n:
            if saw_sign:
                raise PolySyntaxError("dangling sign", n - 1)
            break
        if seen_term and not saw_sign:
            raise PolySyntaxError("expected '+' or '-' between terms", i)
        coeff: Scalar = 1
        have_coeff = False
        if s[i].isdigit():
            j = i
            while j < n and s[j].isdigit():
                j += 1
            num = int(s[i:j])
            k = skip_ws(j)
            if k < n and s[k] == "/":
                k = skip_ws(k + 1)
                if k >= n or not s[k].isdigit():
                    raise PolySyntaxError("expected denominator digits", k)
                m = k
                while m < n and s[m].isdigit():
                    m += 1
                den = int(s[k:m])
                if not den:
                    raise PolySyntaxError("zero denominator", k)
                coeff = Fraction(num, den)
                if coeff.denominator == 1:
                    coeff = int(coeff)
                i = m
            else:
                coeff = num
                i = j
            have_coeff = True
            i = skip_ws(i)
            if i < n and s[i] == "*":
                i = skip_ws(i + 1)
        # word: letters x/y (whitespace-tolerant), or "1", or nothing after
        # an explicit coefficient (a constant term)
        letters = ""
        if i < n and s[i] == "1":
            i = skip_ws(i + 1)
        else:
            while i < n and s[i] in "xy":
                letters += s[i]
                i = skip_ws(i + 1)
            if not letters and not have_coeff:
                raise PolySyntaxError(f"unexpected character {s[i]!r}", i)
        out = out + Poly.from_word(letters, sign * coeff)
        seen_term = True
    return out
