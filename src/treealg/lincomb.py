"""The sparse linear-combination core shared by Poly, HElem and TensorElem.

A combination is an immutable map key -> nonzero rational. ``LinComb``
owns the linear structure (sums, negation, scalar multiples, type-strict
equality, zero-pruning, the coefficient rule below) and the degrees of its
keys, read through ``_degree``, which ``Poly`` (word length) and ``HElem``
(forest degree) set; each subclass adds its own key type, product and
printer. Sums are accumulated in place: ``add_into`` and, for words,
``add_concat_into`` add into a plain dict, which becomes a combination once
at the end, so a k-term sum costs O(total terms), not O(k^2). Accumulators
are always fresh dicts: a value's ``terms``, memoized or not, is only ever
read, never mutated.

The coefficient rule. A coefficient is an ``int`` when it is integral,
and otherwise a ``Fraction`` with denominator > 1, so its type follows from
its value and no order of summation can change it. ``normalized`` enforces
it where a ``Fraction`` can become integral: the public ``LinComb``
constructor (and with it scalar multiples and products), sums,
``parse_terms`` and, in ``words``, ``Poly.__mul__``, ``op_R`` and
``poly_from_list``. It looks at the types of a result once, and rewrites
only a result that holds a ``Fraction``. The internal ``_wrap`` path does
not check: the memoized maps build their values from ints alone.

Every map on forests (sigma, the coproduct, the rooted-tree-map action) is
defined on single keys and extended linearly by ``linear``, which sums the
memoized values, whose coefficients are ints, with the coefficients of its
input as scales. Each public map scales its input to ints once:
``numerators`` rewrites the coefficients as int numerators over L, the lcm
of their denominators (L = 1, and nothing rewritten, when none is a
``Fraction``), the map runs on ints, and ``over`` divides each surviving
key once by L. So a term costs one int operation, not two ``Fraction``
ones, whatever mix of ints and ``Fraction``s the input holds. The diamond
product, the one bilinear map, rewrites each factor the same way.

Values that are coefficient lists over one V_n (the dense routes of
``words``) are summed by ``sum_lists``, one list per key: the lists of one
key and one coefficient are summed column by column and scaled once, as
a relation's coefficients are few and repeat. σ of a combination, the
values on x and the coproduct groups of ``value_on_x``, the right-hand
side of the word route and the target of ``decompose`` all sum that way,
each on int coefficients.

The signed-term text form "a - b + c" is printed by ``format_terms`` and
read back by ``parse_terms``, whose coefficients ("p" or "p/q") are read by
``read_rational``; each subclass's module supplies the text of one term.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import repeat
from math import lcm
from operator import add, mul
from typing import Callable, Hashable, Iterable, Mapping, TypeVar, Union

Scalar = Union[int, Fraction]
C = TypeVar("C", bound="LinComb")


def add_into(acc: dict, terms: Mapping, scale: Scalar = 1) -> None:
    """acc += scale * terms in place, dropping keys whose sum is zero.

    ``terms`` holds no zero coefficient and ``scale`` is nonzero, as for the
    terms of a combination and its coefficients."""
    if not acc:
        acc.update(terms if scale == 1 else {k: scale * c for k, c in terms.items()})
        return
    get = acc.get
    for k, c in terms.items():
        s = get(k, 0) + scale * c
        if s:
            acc[k] = s
        else:
            del acc[k]


def normalized(terms: dict) -> dict:
    """``terms`` under the coefficient rule, each integral ``Fraction`` made
    an int; ``terms`` itself when it holds no ``Fraction``."""
    if Fraction not in set(map(type, terms.values())):
        return terms
    return {k: c.numerator if c.denominator == 1 else c for k, c in terms.items()}


def numerators(terms: Mapping) -> tuple[Mapping, int]:
    """(numerators, L): each coefficient as an int numerator over L, the lcm
    of the denominators; (terms, 1) when no coefficient is a ``Fraction``."""
    if Fraction not in set(map(type, terms.values())):
        return terms, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def over(acc: dict, den: int) -> dict:
    """The sum ``acc`` of int numerators over ``den``, by the coefficient
    rule: ``acc`` itself if den is 1, else each n/den, an int if integral."""
    if den == 1:
        return acc
    return {k: n // den if n % den == 0 else Fraction(n, den) for k, n in acc.items()}


def add_concat_into(acc: dict, left: Mapping, right: Mapping) -> None:
    """acc += left * right in place for words, where the product of u and v
    is u + v. Zero sums stay in acc: the pruning constructor drops them
    once, when acc is complete."""
    get = acc.get
    for u, a in left.items():
        for v, b in right.items():
            k = u + v
            acc[k] = get(k, 0) + a * b


def linear(terms: Mapping, value: Callable[[Hashable], Mapping]) -> dict:
    """The linear extension of ``value``: the sum of c * value(k) over the
    terms c * k, as a fresh dict with zero sums dropped, on the int
    numerators of the coefficients, divided once by their denominators."""
    coeffs, den = numerators(terms)
    acc: dict = {}
    for k, c in coeffs.items():
        add_into(acc, value(k), c)
    return over(acc, den)


def sum_lists(terms: Iterable[tuple[Hashable, list, Scalar]]) -> dict:
    """The sum of c * v over the triples (key, v, c), one list per key: the
    lists v of one key have one length. The lists of one key and one c are
    summed column by column, then scaled once by c. Exact for any
    coefficients; the library passes int ones (see ``numerators``). The
    lists v are only read, never mutated."""
    parts: dict = {}
    for key, v, c in terms:
        parts.setdefault((key, c), []).append(v)
    sums: dict = {}
    for (key, c), values in parts.items():
        col = map(mul, map(sum, zip(*values)), repeat(c))
        sums[key] = list(map(add, sums[key], col) if key in sums else col)
    return sums


def format_terms(
    terms: Mapping, order: Callable, body: Callable[[Hashable, Scalar], str]
) -> str:
    """Signed-term text "a - b + c": terms in ``order``, each rendered by
    ``body(key, magnitude)``; "0" for no terms."""
    out = []
    for k in sorted(terms, key=order):
        c = terms[k]
        if out:
            out.append(" - " if c < 0 else " + ")
        elif c < 0:
            out.append("-")
        out.append(body(k, -c if c < 0 else c))
    return "".join(out) or "0"


def skip_while(text: str, i: int, test: Callable[[str], bool] = str.isspace) -> int:
    """The first index at or after i whose character fails ``test``
    (len(text) if none): by default, i moved past any blanks."""
    while i < len(text) and test(text[i]):
        i += 1
    return i


def read_rational(text: str, i: int, error: Callable) -> tuple[Scalar | None, int]:
    """The rational "p" or "p/q" at text[i], blanks allowed around "/", and
    the index just past it; (None, i) if no digit is at i. "p" is an int
    and "p/q" a ``Fraction``, which ``parse_terms`` gives by the coefficient
    rule. A missing or zero denominator raises error(message, position)."""
    j = skip_while(text, i, str.isdecimal)
    if j == i:
        return None, i
    k = skip_while(text, j)
    if not text.startswith("/", k):
        return int(text[i:j]), j
    k = skip_while(text, k + 1)
    m = skip_while(text, k, str.isdecimal)
    if m == k:
        raise error("expected denominator digits", k)
    den = int(text[k:m])
    if not den:
        raise error("zero denominator", k)
    return Fraction(int(text[i:j]), den), m


def parse_terms(text: str, read_term: Callable, error: Callable, what: str) -> dict:
    """The terms of signed-term text, the inverse of ``format_terms``.

    The text is split at every "+" and "-", and a run of signs multiplies.
    ``read_term(text, start, end)`` returns the (key, coefficient) of the
    term text[start:end], which has no blank at either end; the terms are
    summed and zero sums dropped. Errors are error(message, position), with
    positions counted from the start of ``text``."""
    if not text.strip():
        raise error(f"empty {what} text", 0)
    acc: dict = {}
    sign, last_sign, start = 1, None, 0
    for stop in [i for i, c in enumerate(text) if c in "+-"] + [len(text)]:
        term = text[start:stop]
        if term.strip():
            first = start + len(term) - len(term.lstrip())
            key, coeff = read_term(text, first, start + len(term.rstrip()))
            if coeff:
                add_into(acc, {key: sign * coeff})
            sign, last_sign = 1, None
        if stop < len(text):
            sign, last_sign = (-sign if text[stop] == "-" else sign), stop
        start = stop + 1
    if last_sign is not None:
        raise error("dangling sign", last_sign)
    return normalized(acc)


class LinComb:
    """A finite linear combination of hashable keys with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = normalized({k: c for k, c in terms.items() if c}) if terms else {}

    @classmethod
    def _wrap(cls: type[C], terms: dict) -> C:
        """The combination owning ``terms``, a dict with no zero coefficient."""
        out = object.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls: type[C]) -> C:
        return cls._wrap({})

    def is_zero(self) -> bool:
        return not self.terms

    def homogeneous_degree(self) -> int | None:
        """The common degree of all keys, None if mixed (zero -> 0)."""
        degrees = set(map(self._degree, self.terms))
        return None if len(degrees) > 1 else max(degrees, default=0)

    def max_degree(self) -> int:
        """The largest degree of a key (zero -> 0)."""
        return max(map(self._degree, self.terms), default=0)

    def _plus(self: C, other: C, scale: Scalar) -> C:
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        add_into(acc, other.terms, scale)
        return self._wrap(normalized(acc))

    def __add__(self: C, other: C) -> C:
        return self._plus(other, 1)

    def __sub__(self: C, other: C) -> C:
        return self._plus(other, -1)

    def __neg__(self: C) -> C:
        return self._wrap({k: -c for k, c in self.terms.items()})

    def __rmul__(self: C, scalar: Scalar) -> C:
        return type(self)({k: scalar * c for k, c in self.terms.items()})

    def _product(self: C, other: C, combine: Callable) -> C:
        if type(other) is not type(self):
            return NotImplemented
        acc: dict = {}
        get = acc.get
        for u, a in self.terms.items():
            for v, b in other.terms.items():
                k = combine(u, v)
                acc[k] = get(k, 0) + a * b
        return type(self)(acc)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms
