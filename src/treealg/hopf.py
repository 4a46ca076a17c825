"""Rational linear combinations of forests and the coproduct.

``HElem`` is a finite Q-linear combination of forests; ``TensorElem`` lives
in the tensor square. Both sit on the shared linear-combination core
(``lincomb``), whose sums accumulate in place. The coproduct is
multiplicative on forests and is defined on a tree t = bplus(f) by

    delta(t) = t (x) 1  +  (id (x) bplus) delta(f).

Coproducts are memoized in one table keyed by forest, ``_FOREST_DELTA``: a
one-tree forest takes the grafting rule above, any other forest the product
of its last tree's coproduct with that of the trees before it. Memoized
values are never mutated.
"""
from __future__ import annotations

import re
from fractions import Fraction
from operator import attrgetter

from .lincomb import LinComb, Scalar, add_into, format_terms
from .trees import (
    EMPTY_FOREST,
    Forest,
    ForestSyntaxError,
    bplus,
    forest_product,
    parse_forest,
)


class HElem(LinComb):
    """An element of the forest algebra: finite map forest -> rational."""

    __slots__ = ()
    _degree = attrgetter("degree")

    @classmethod
    def from_forest(cls, f: Forest, coeff: Scalar = 1) -> "HElem":
        return cls({f: coeff})

    @classmethod
    def one(cls) -> "HElem":
        return cls._wrap({EMPTY_FOREST: 1})

    def __mul__(self, other: "HElem") -> "HElem":
        return self._product(other, forest_product)

    def __repr__(self) -> str:
        return f"HElem({print_helem(self)!r})"


def _pair_product(
    p: tuple[Forest, Forest], q: tuple[Forest, Forest]
) -> tuple[Forest, Forest]:
    return (forest_product(p[0], q[0]), forest_product(p[1], q[1]))


class TensorElem(LinComb):
    """An element of the tensor square: finite map (forest, forest) -> rational."""

    __slots__ = ()

    def __mul__(self, other: "TensorElem") -> "TensorElem":
        return self._product(other, _pair_product)

    def swap(self) -> "TensorElem":
        return TensorElem._wrap({(b, a): c for (a, b), c in self.terms.items()})

    def __repr__(self) -> str:
        return f"TensorElem({print_tensor(self)!r})"


_TENSOR_UNIT = TensorElem({(EMPTY_FOREST, EMPTY_FOREST): 1})
_FOREST_DELTA: dict[Forest, TensorElem] = {}


def _forest_coproduct(f: Forest) -> TensorElem:
    if not f.trees:
        return _TENSOR_UNIT
    cached = _FOREST_DELTA.get(f)
    if cached is not None:
        return cached
    if len(f.trees) == 1:
        acc = {(f, EMPTY_FOREST): 1}
        # the lifted terms have a nonempty right factor: no key repeats
        for (f1, f2), c in _forest_coproduct(f.trees[0].child_forest()).terms.items():
            acc[(f1, bplus(f2).as_forest())] = c
        out = TensorElem._wrap(acc)
    else:
        *init, last = f.trees
        out = _forest_coproduct(Forest(init)) * _forest_coproduct(last.as_forest())
    _FOREST_DELTA[f] = out
    return out


def coproduct(a: HElem) -> TensorElem:
    acc: dict[tuple[Forest, Forest], Scalar] = {}
    for f, c in a.terms.items():
        add_into(acc, _forest_coproduct(f).terms, c)
    return TensorElem._wrap(acc)


# ---------------------------------------------------------------------------
# text form: signed terms "c*<forest>" joined by " + " / " - "

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def print_helem(a: HElem) -> str:
    return format_terms(
        a.terms,
        lambda f: (f.degree, f.encoding),
        lambda f, mag: f.encoding if mag == 1 else f"{mag}*{f.encoding}",
    )


def _parse_coeff(text: str, position: int) -> Scalar:
    """The rational ``text`` ("p" or "p/q"), which starts at ``position``
    of the input."""
    num, _, den = text.partition("/")
    if den and not int(den):
        raise ForestSyntaxError("zero denominator", position + len(num) + 1)
    coeff = Fraction(text)
    return int(coeff) if coeff.denominator == 1 else coeff


def _parse_forest_at(text: str, start: int) -> Forest:
    """``parse_forest(text)`` for the part of the input that begins at
    ``start``: error positions count from the start of the input."""
    try:
        return parse_forest(text)
    except ForestSyntaxError as exc:
        raise ForestSyntaxError(exc.message, start + exc.position) from None


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
    if not cur.strip():
        # s is stripped, so it ends with the last sign
        raise ForestSyntaxError("dangling sign", offset + len(s) - 1)
    pieces.append((sign, start, cur))
    acc: dict[Forest, Scalar] = {}
    for sg, start, term in pieces:
        term_start = offset + start + len(term) - len(term.lstrip())
        term = term.strip()
        if "*" in term:
            star = term.index("*")
            coeff_text = term[:star].strip()
            if not _RATIONAL_RE.match(coeff_text):
                raise ForestSyntaxError(f"bad coefficient {coeff_text!r}", term_start)
            coeff = _parse_coeff(coeff_text, term_start)
            f = _parse_forest_at(term[star + 1 :], term_start + star + 1)
        elif _RATIONAL_RE.match(term):
            coeff = _parse_coeff(term, term_start)
            f = EMPTY_FOREST
        else:
            coeff = 1
            f = _parse_forest_at(term, term_start)
        if coeff:
            add_into(acc, {f: sg * coeff})
    return HElem._wrap(acc)


def _tensor_term(p: tuple[Forest, Forest], mag: Scalar) -> str:
    pair = f"({p[0].encoding} (x) {p[1].encoding})"
    return pair if mag == 1 else f"{mag}*{pair}"


def print_tensor(u: TensorElem) -> str:
    return format_terms(
        u.terms,
        lambda p: (p[0].degree + p[1].degree, -p[0].degree, p[0].encoding, p[1].encoding),
        _tensor_term,
    )
