"""The diamond product on Q<x, y> and the forest-to-polynomial map.

The diamond product is defined on words by recursion on last letters:

    w <> 1  = 1 <> w = w
    vx <> wx = (v <> wx)x - (vy <> w)x
    vx <> wy = (v <> wy)x + (vx <> w)y
    vy <> wx = (v <> wx)y + (vy <> w)x
    vy <> wy = (v <> wy)y - (vx <> w)y

and extended bilinearly. ``sigma`` sends a forest to its polynomial value:
the leaf goes to y, grafting acts by the degree-raising operator, and a
product of trees goes to the diamond product of their values.

The product is commutative, so word products are memoized in
``_DIAMOND_CACHE`` once per unordered pair of words, under the key with the
longer word first and words of one length in string order; the recursion
runs on that orientation. (Plain string order would make the recursion
reach more distinct pairs: 61k entries, not 49k, for sigma of 16 leaves, and
about 20% more peak memory for 18 leaves.) Forest values are memoized in one
table keyed by forest, ``_SIGMA_FOREST``: a one-tree forest takes the
grafting rule, any other forest the diamond product of its last tree's
value with that of the trees before it. Every sum accumulates in place into
one fresh dict (``lincomb.add_into``); memoized values are never mutated.

Word products and forest values have int coefficients, so ``sigma`` of a
combination whose coefficients are all ``Fraction`` (a kernel vector, a
decomposition) sums int numerators over the lcm L of their denominators
and divides each surviving word by L once (``lincomb.numerators`` and
``over``); ``diamond`` does so for each such factor. In the plain fold every
contribution of such an input is a ``Fraction``, so the types are the same.
"""
from __future__ import annotations

from .hopf import HElem
from .lincomb import Scalar, add_into, numerators, over
from .trees import Forest, LEAF
from .words import ONE, Poly, Y, op_R

_DIAMOND_CACHE: dict[tuple[str, str], Poly] = {}
_FLIP = {"x": "y", "y": "x"}


def _diamond_words(a: str, b: str) -> Poly:
    """Diamond product of two single words, memoized once per unordered
    pair: the longer word first, words of one length in string order."""
    if not a:
        return Poly._wrap({b: 1})
    if not b:
        return Poly._wrap({a: 1})
    if len(a) < len(b) or (len(a) == len(b) and a > b):
        a, b = b, a
    cached = _DIAMOND_CACHE.get((a, b))
    if cached is not None:
        return cached
    v, p = a[:-1], a[-1]
    w, q = b[:-1], b[-1]
    acc = {u + p: c for u, c in _diamond_words(v, b).terms.items()}
    if p == q:
        # vx <> wx and vy <> wy: subtract (v flip(p) <> w) p
        second = _diamond_words(v + _FLIP[p], w).terms.items()
        add_into(acc, {u + p: c for u, c in second}, -1)
    else:
        # the second part ends in q, the first in p: no key repeats
        for u, c in _diamond_words(a, w).terms.items():
            acc[u + q] = c
    out = Poly._wrap(acc)
    _DIAMOND_CACHE[(a, b)] = out
    return out


def diamond(v: Poly, w: Poly) -> Poly:
    """Bilinear extension of the word-level diamond recursion; a factor whose
    coefficients are all ``Fraction`` is summed as numerators over their lcm."""
    left, lden = numerators(v.terms)
    right, rden = numerators(w.terms)
    acc: dict[str, Scalar] = {}
    for a, ca in left.items():
        for b, cb in right.items():
            add_into(acc, _diamond_words(a, b).terms, ca * cb)
    return Poly._wrap(over(acc, lden * rden if lden and rden else lden or rden))


_SIGMA_FOREST: dict[Forest, Poly] = {}


def sigma_forest(f: Forest) -> Poly:
    """The polynomial value of a single forest (diamond product of tree values)."""
    if not f.trees:
        return ONE
    cached = _SIGMA_FOREST.get(f)
    if cached is not None:
        return cached
    if len(f.trees) == 1:
        t = f.trees[0]
        out = Y if t is LEAF else op_R(sigma_forest(t.child_forest()))
    else:
        *init, last = f.trees
        out = diamond(sigma_forest(Forest(init)), sigma_forest(last.as_forest()))
    _SIGMA_FOREST[f] = out
    return out


def sigma(a: HElem) -> Poly:
    """Linear extension of the forest-to-polynomial homomorphism; all-``Fraction``
    coefficients are summed as numerators over their lcm."""
    coeffs, den = numerators(a.terms)
    acc: dict[str, Scalar] = {}
    for f, c in coeffs.items():
        add_into(acc, sigma_forest(f).terms, c)
    return Poly._wrap(over(acc, den))
