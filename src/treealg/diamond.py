"""The diamond product on Q<x, y> and the forest-to-polynomial map.

The diamond product is defined on words by recursion on last letters:

    w <> 1  = 1 <> w = w
    vx <> wx = (v <> wx)x - (vy <> w)x
    vx <> wy = (v <> wy)x + (vx <> w)y
    vy <> wx = (v <> wx)y + (vy <> w)x
    vy <> wy = (v <> wy)y - (vx <> w)y

and extended bilinearly. ``sigma`` sends a forest to its polynomial value:
the leaf goes to y, grafting acts by the degree-raising operator, and a
product of trees goes to the diamond product of their values. A product
leaf·u with u nonempty goes to y ◇ sigma(u) = T sigma(u), which
``words.op_Y_dense`` gives on V_(deg u) (``op_Y`` proves T = · ◇ y).

The product is commutative, so word products are cached once per
unordered pair: ``_diamond_words`` answers the empty-word cases and puts
the longer word first, words of one length in string order, and the
recursion runs in ``_diamond_pair`` on that orientation. (Plain string
order would make the recursion reach more distinct pairs: 61k entries, not
49k, for sigma of 16 leaves as a chain of diamond products, and about 20%
more peak memory for 18 leaves.) ``sigma_forest`` caches forest values: a
one-tree forest takes the grafting rule, a forest with a leaf and more
trees the T rule, any other forest the diamond product of its last tree's
value with that of the trees before it. Both caches are
``functools.cache`` (``cache_info()``, ``cache_clear()``).
``_diamond_pair`` appends its last letters through the word tables of
``words``, and ``op_Y_dense`` writes the words of the V_n table, so every
word in either cache is the one interned ``str`` for it. Every sum
accumulates in place into one fresh dict, all-``Fraction`` coefficients
are summed in ints (``lincomb``), and cached values are never mutated.
"""
from __future__ import annotations

from functools import cache

from .hopf import HElem
from .lincomb import Scalar, add_into, linear, numerators, over
from .trees import Forest, LEAF
from .words import APPEND_X, APPEND_Y, ONE, Poly, Y, op_R, op_Y_dense

_APPEND = {"x": APPEND_X, "y": APPEND_Y}
_APPEND_FLIP = {"x": APPEND_Y, "y": APPEND_X}
# The recursion strips one letter a call, which counts three times against
# the recursion limit (front, cache wrapper, body). A pair whose longer word
# is _JUMP or more letters longer first fills the pair with that word _JUMP
# letters shorter, so a long word nests about len/_JUMP + _JUMP calls deep.
_JUMP = 64


def _diamond_words(a: str, b: str) -> Poly:
    """Diamond product of two single words, cached once per unordered pair:
    the longer word first, words of one length in string order."""
    if not a:
        return Poly._wrap({b: 1})
    if not b:
        return Poly._wrap({a: 1})
    if len(a) < len(b) or (len(a) == len(b) and a > b):
        a, b = b, a
    return _diamond_pair(a, b)


@cache
def _diamond_pair(a: str, b: str) -> Poly:
    if len(a) - len(b) >= _JUMP:
        # the recursion reaches this pair through its first parts anyway
        _diamond_words(a[:-_JUMP], b)
    v, p = a[:-1], a[-1]
    w, q = b[:-1], b[-1]
    up = _APPEND[p]
    acc = {up[u]: c for u, c in _diamond_words(v, b).terms.items()}
    if p == q:
        # vx <> wx and vy <> wy: subtract (v flip(p) <> w) p
        second = _diamond_words(_APPEND_FLIP[p][v], w).terms.items()
        add_into(acc, {up[u]: c for u, c in second}, -1)
    else:
        # the second part ends in q, the first in p: no key repeats
        uq = _APPEND[q]
        for u, c in _diamond_words(a, w).terms.items():
            acc[uq[u]] = c
    return Poly._wrap(acc)


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


@cache
def sigma_forest(f: Forest) -> Poly:
    """The polynomial value of a single forest (diamond product of tree values)."""
    if not f.trees:
        return ONE
    if len(f.trees) == 1:
        t = f.trees[0]
        return Y if t is LEAF else op_R(sigma_forest(t.child_forest()))
    if f.trees[0] is LEAF:
        # sigma(leaf·u) = y <> sigma(u) = T sigma(u), on V_(deg u)
        return op_Y_dense(sigma_forest(Forest(f.trees[1:])), f.degree - 1)
    *init, last = f.trees
    return diamond(sigma_forest(Forest(init)), sigma_forest(last.as_forest()))


def sigma(a: HElem) -> Poly:
    """Linear extension of the forest-to-polynomial homomorphism."""
    return Poly._wrap(linear(a.terms, lambda f: sigma_forest(f).terms))
