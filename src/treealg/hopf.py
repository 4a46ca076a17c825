"""Rational linear combinations of forests and the coproduct.

``HElem`` is a finite Q-linear combination of forests; ``TensorElem`` lives
in the tensor square. Both sit on the shared linear-combination core
(``lincomb``), whose sums accumulate in place. The coproduct is
multiplicative on forests and is defined on a tree t = bplus(f) by

    delta(t) = t (x) 1  +  (id (x) bplus) delta(f).

Coproducts are memoized in one table keyed by forest, ``_FOREST_DELTA``: a
one-tree forest takes the grafting rule above, any other forest the product
of the coproduct of the trees before its last with that of its last tree.
The table is filled from a worklist, so deep trees do not recurse into the
Python stack. Memoized values are never mutated.
"""
from __future__ import annotations

from operator import attrgetter

from .lincomb import (
    LinComb,
    Scalar,
    format_terms,
    linear,
    parse_terms,
    read_rational,
)
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
    _key_kind, _is_key = "Forest", staticmethod(lambda f: type(f) is Forest)

    @classmethod
    def from_forest(cls, f: Forest, coeff: Scalar = 1) -> "HElem":
        """coeff * f; raises ValueError if f is not a Forest."""
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

    def __repr__(self) -> str:
        return f"TensorElem({print_tensor(self)!r})"


_TENSOR_UNIT = TensorElem({(EMPTY_FOREST, EMPTY_FOREST): 1})
_FOREST_DELTA: dict[Forest, TensorElem] = {}


def _forest_coproduct(f: Forest) -> TensorElem:
    cached = _FOREST_DELTA.get(f)
    if cached is not None:
        return cached
    if not f.trees:
        return _TENSOR_UNIT
    # fill the memo from a worklist, not the Python stack: a forest is
    # computed once the forests it is built from are memoized. Each entry
    # is a part of the one below it, of lower degree, so none is listed twice.
    todo = [f]
    while todo:
        g = todo[-1]
        if len(g.trees) == 1:
            parts = (g.trees[0].child_forest(),)
        else:
            parts = (Forest(g.trees[:-1]), g.trees[-1].as_forest())
        missing = [p for p in parts if p.trees and p not in _FOREST_DELTA]
        if missing:
            todo.append(missing[0])
            continue
        todo.pop()
        if len(parts) == 1:
            acc = {(g, EMPTY_FOREST): 1}
            # the lifted terms have a nonempty right factor: no key repeats
            for (f1, f2), c in _FOREST_DELTA.get(parts[0], _TENSOR_UNIT).terms.items():
                acc[(f1, bplus(f2).as_forest())] = c
            _FOREST_DELTA[g] = TensorElem._wrap(acc)
        else:
            _FOREST_DELTA[g] = _FOREST_DELTA[parts[0]] * _FOREST_DELTA[parts[1]]
    return _FOREST_DELTA[f]


def coproduct(a: HElem) -> TensorElem:
    """Linear extension of the forest coproduct."""
    return TensorElem._wrap(linear(a.terms, lambda f: _forest_coproduct(f).terms))


# ---------------------------------------------------------------------------
# text form: signed terms "c*<forest>" joined by " + " / " - "

def print_helem(a: HElem) -> str:
    return format_terms(
        a.terms,
        lambda f: (f.degree, f.encoding),
        lambda f, mag: f.encoding if mag == 1 else f"{mag}*{f.encoding}",
    )


def _forest_at(s: str, start: int, end: int) -> Forest:
    """``parse_forest(s[start:end])``, error positions counted in s."""
    try:
        return parse_forest(s[start:end])
    except ForestSyntaxError as exc:
        raise ForestSyntaxError(exc.message, start + exc.position) from None


def _read_helem_term(s: str, i: int, end: int) -> tuple[Forest, Scalar]:
    """The term ``[rational "*"] forest`` at s[i:end], or a rational alone
    (a multiple of the empty forest)."""
    star = s.find("*", i, end)
    coeff, j = read_rational(s, i, ForestSyntaxError)
    if star < 0:
        return (EMPTY_FOREST, coeff) if j == end else (_forest_at(s, i, end), 1)
    if coeff is None or s[j:star].strip():
        raise ForestSyntaxError(f"bad coefficient {s[i:star].strip()!r}", i)
    return _forest_at(s, star + 1, end), coeff


def parse_helem(text: str) -> HElem:
    """Parse the signed-term text form of an HElem."""
    return HElem._wrap(parse_terms(text, _read_helem_term, ForestSyntaxError, "element"))


def _tensor_term(p: tuple[Forest, Forest], mag: Scalar) -> str:
    pair = f"({p[0].encoding} (x) {p[1].encoding})"
    return pair if mag == 1 else f"{mag}*{pair}"


def print_tensor(u: TensorElem) -> str:
    return format_terms(
        u.terms,
        lambda p: (p[0].degree + p[1].degree, -p[0].degree, p[0].encoding, p[1].encoding),
        _tensor_term,
    )
