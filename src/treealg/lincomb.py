"""The sparse linear-combination core shared by Poly, HElem and TensorElem.

A combination is an immutable map key -> nonzero rational. ``LinComb``
owns the linear structure (sums, negation, scalar multiples, type-strict
equality, zero-pruning) and the degrees of its keys, read through
``_degree``, which ``Poly`` (word length) and ``HElem`` (forest degree) set;
each subclass adds its own key type, product and printer. Sums are
accumulated in place: ``add_into`` and ``add_product_into`` add into a plain
dict, which becomes a combination once at the end, so a k-term sum costs
O(total terms), not O(k^2). Accumulators are always fresh dicts: a value's
``terms``, memoized or not, is only ever read, never mutated.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Hashable, Mapping, TypeVar, Union

Scalar = Union[int, Fraction]
C = TypeVar("C", bound="LinComb")


def add_into(acc: dict, terms: Mapping, scale: Scalar = 1) -> None:
    """acc += scale * terms in place, dropping keys whose sum is zero.

    ``terms`` holds no zero coefficient and ``scale`` is nonzero, as for the
    terms of a combination and its coefficients."""
    if not acc:
        # 0 + c has the type of c, and so has 1 * c for the int 1
        if scale == 1 and type(scale) is int:
            acc.update(terms)
        else:
            acc.update({k: scale * c for k, c in terms.items()})
        return
    get = acc.get
    for k, c in terms.items():
        s = get(k, 0) + scale * c
        if s:
            acc[k] = s
        else:
            del acc[k]


def add_product_into(
    acc: dict, left: Mapping, right: Mapping, combine: Callable, scale: Scalar = 1
) -> None:
    """acc += scale * left * right in place, where the product of keys u and
    v is combine(u, v). Zero sums stay in acc: the pruning constructor drops
    them once, when acc is complete."""
    get = acc.get
    for u, a in left.items():
        sa = scale * a
        for v, b in right.items():
            k = combine(u, v)
            acc[k] = get(k, 0) + sa * b


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


class LinComb:
    """A finite linear combination of hashable keys with rational coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping | None = None):
        self.terms = {k: c for k, c in terms.items() if c} if terms else {}

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
        return self._wrap(acc)

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
        add_product_into(acc, self.terms, other.terms, combine)
        return type(self)(acc)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.terms == other.terms
