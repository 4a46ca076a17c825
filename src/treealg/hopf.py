"""Rational linear combinations of forests and the coproduct.

``HElem`` is a finite Q-linear combination of forests; ``TensorElem`` lives
in the tensor square. The coproduct is multiplicative on forests and is
defined on a tree t = bplus(f) by

    delta(t) = t (x) 1  +  (id (x) bplus) delta(f).

Per-tree coproducts are memoized; all values are immutable.
"""
from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Union

from .trees import (
    EMPTY_FOREST,
    Forest,
    ForestSyntaxError,
    Tree,
    bplus,
    forest_product,
    parse_forest,
)

Scalar = Union[int, Fraction]


def _pruned(terms: Mapping) -> dict:
    return {k: c for k, c in terms.items() if c}


class HElem:
    """An element of the forest algebra: finite map forest -> rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[Forest, Scalar] | None = None):
        self.terms = _pruned(terms or {})

    @classmethod
    def from_forest(cls, f: Forest, coeff: Scalar = 1) -> "HElem":
        return cls({f: coeff})

    @classmethod
    def zero(cls) -> "HElem":
        return cls()

    @classmethod
    def one(cls) -> "HElem":
        return cls({EMPTY_FOREST: 1})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common degree of all forests, or None if mixed (zero -> 0)."""
        degrees = {f.degree for f in self.terms}
        if not degrees:
            return 0
        if len(degrees) > 1:
            return None
        return degrees.pop()

    def __add__(self, other: "HElem") -> "HElem":
        out = dict(self.terms)
        for f, c in other.terms.items():
            out[f] = out.get(f, 0) + c
        return HElem(out)

    def __sub__(self, other: "HElem") -> "HElem":
        return self + (-1) * other

    def __neg__(self) -> "HElem":
        return (-1) * self

    def __rmul__(self, scalar: Scalar) -> "HElem":
        return HElem({f: scalar * c for f, c in self.terms.items()})

    def __mul__(self, other: "HElem") -> "HElem":
        out: dict[Forest, Scalar] = {}
        for f, a in self.terms.items():
            for g, b in other.terms.items():
                fg = forest_product(f, g)
                out[fg] = out.get(fg, 0) + a * b
        return HElem(out)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, HElem) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"HElem({print_helem(self)!r})"


class TensorElem:
    """An element of the tensor square: finite map (forest, forest) -> rational."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[tuple[Forest, Forest], Scalar] | None = None):
        self.terms = _pruned(terms or {})

    def __add__(self, other: "TensorElem") -> "TensorElem":
        out = dict(self.terms)
        for p, c in other.terms.items():
            out[p] = out.get(p, 0) + c
        return TensorElem(out)

    def __rmul__(self, scalar: Scalar) -> "TensorElem":
        return TensorElem({p: scalar * c for p, c in self.terms.items()})

    def __mul__(self, other: "TensorElem") -> "TensorElem":
        out: dict[tuple[Forest, Forest], Scalar] = {}
        for (a1, a2), c in self.terms.items():
            for (b1, b2), d in other.terms.items():
                key = (forest_product(a1, b1), forest_product(a2, b2))
                out[key] = out.get(key, 0) + c * d
        return TensorElem(out)

    def swap(self) -> "TensorElem":
        return TensorElem({(b, a): c for (a, b), c in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TensorElem) and self.terms == other.terms

    def __repr__(self) -> str:
        return f"TensorElem({print_tensor(self)!r})"


def tensor_mul(u: TensorElem, v: TensorElem) -> TensorElem:
    return u * v


def h_add(a: HElem, b: HElem) -> HElem:
    return a + b


def h_scale(c: Scalar, a: HElem) -> HElem:
    return c * a


def h_mul(a: HElem, b: HElem) -> HElem:
    return a * b


_TENSOR_UNIT = TensorElem({(EMPTY_FOREST, EMPTY_FOREST): 1})
_TREE_DELTA: dict[Tree, TensorElem] = {}


def _tree_coproduct(t: Tree) -> TensorElem:
    cached = _TREE_DELTA.get(t)
    if cached is not None:
        return cached
    inner = _forest_coproduct(t.child_forest())
    lifted = TensorElem(
        {(f1, bplus(f2).as_forest()): c for (f1, f2), c in inner.terms.items()}
    )
    out = TensorElem({(t.as_forest(), EMPTY_FOREST): 1}) + lifted
    _TREE_DELTA[t] = out
    return out


def _forest_coproduct(f: Forest) -> TensorElem:
    out = _TENSOR_UNIT
    for t in f.trees:
        out = out * _tree_coproduct(t)
    return out


def coproduct(a: HElem) -> TensorElem:
    out = TensorElem()
    for f, c in a.terms.items():
        out = out + c * _forest_coproduct(f)
    return out


# ---------------------------------------------------------------------------
# text form: signed terms "c*<forest>" joined by " + " / " - "

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _format_coeff(c: Scalar) -> str:
    return str(c)


def print_helem(a: HElem) -> str:
    if not a.terms:
        return "0"
    parts = []
    for f in sorted(a.terms, key=lambda f: (f.degree, f.encoding)):
        c = a.terms[f]
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        body = f.encoding if mag == 1 else f"{_format_coeff(mag)}*{f.encoding}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def _parse_coeff(text: str, position: int) -> Scalar:
    """The rational ``text`` ("p" or "p/q"), which starts at ``position``
    of the input."""
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ForestSyntaxError("zero denominator", position + len(num) + 1)
    coeff = Fraction(text)
    return int(coeff) if coeff.denominator == 1 else coeff


def parse_helem(text: str) -> HElem:
    """Parse the signed-term text form of an HElem."""
    s = text.strip()
    if not s:
        raise ForestSyntaxError("empty element text", 0)
    if s == "0":
        return HElem.zero()
    offset = len(text) - len(text.lstrip())
    # split at top level on +/-; forest text never contains these
    pieces: list[tuple[int, int, str]] = []  # (sign, start in text, term text)
    sign = 1
    cur = ""
    start = 0
    for i, ch in enumerate(s):
        if ch in "+-":
            if cur.strip():
                pieces.append((sign, start, cur))
                sign = 1
            sign *= -1 if ch == "-" else 1
            cur = ""
            start = i + 1
        else:
            cur += ch
    if cur.strip():
        pieces.append((sign, start, cur))
    elif not pieces:
        raise ForestSyntaxError("dangling sign", len(s) - 1)
    out = HElem.zero()
    for sg, start, term in pieces:
        term_start = offset + start + len(term) - len(term.lstrip())
        term = term.strip()
        if "*" in term:
            coeff_text, forest_text = term.split("*", 1)
            coeff_text = coeff_text.strip()
            if not _RATIONAL_RE.match(coeff_text):
                raise ForestSyntaxError(f"bad coefficient {coeff_text!r}", 0)
            coeff = _parse_coeff(coeff_text, term_start)
            f = parse_forest(forest_text)
        elif _RATIONAL_RE.match(term):
            coeff = _parse_coeff(term, term_start)
            f = EMPTY_FOREST
        else:
            coeff = 1
            f = parse_forest(term)
        out = out + HElem.from_forest(f, sg * coeff)
    return out


def print_tensor(u: TensorElem) -> str:
    if not u.terms:
        return "0"
    keys = sorted(
        u.terms,
        key=lambda p: (
            p[0].degree + p[1].degree,
            -p[0].degree,
            p[0].encoding,
            p[1].encoding,
        ),
    )
    parts = []
    for f1, f2 in keys:
        c = u.terms[(f1, f2)]
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        pair = f"({f1.encoding} (x) {f2.encoding})"
        body = pair if mag == 1 else f"{_format_coeff(mag)}*{pair}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out
