"""The linear action of forests on Q<x, y> (rooted tree maps).

The action is fixed by four rules: the leaf sends x to xy and y to -xy;
a grafted tree acts on letters through the degree-raising operator applied
to the child forest's value on x; a product of trees acts on letters by
composition; and on a longer word v.a the action is the coproduct-driven
recursion

    f(va) = sum over coproduct terms (f1, f2) of  f1(v) * f2(a).

The empty forest acts as the identity and every nonempty forest kills
constants. Only words ending in x pay for this sum. With z = x + y, every
nonempty forest g has g(y) = -g(x), so only the term f (x) 1 survives in
f(vx) + f(vy), which is therefore f(v)z; hence

    f(vy) = f(v)z - f(vx),

which costs one pass over f(v) and f(vx); the word "y" is the case v = 1,
so a tree's value on y is minus its value on x. Values are memoized in one
table keyed by (forest, word), ``_ON_WORD_CACHE``, on top of the coproduct
memo of ``hopf``; on x, a one-tree forest takes the grafting rule and any
other forest the composition rule. Every sum accumulates into a fresh dict
(``lincomb``), every memo entry is built compact (no slots left by deleted
keys), and memoized values are never mutated.
"""
from __future__ import annotations

from .hopf import HElem, _forest_coproduct
from .lincomb import Scalar, add_concat_into, add_into, numerators, over
from .trees import EMPTY_FOREST, Forest, LEAF, Tree
from .words import Poly, X, op_R

_XY = Poly._wrap({"xy": 1})
_ON_WORD_CACHE: dict[tuple[Forest, str], Poly] = {}


def rtm_tree_on_letter(t: Tree, v: str) -> Poly:
    """Value of a single tree on the letter "x" or "y"."""
    if v not in ("x", "y"):
        raise ValueError(f"expected letter 'x' or 'y', got {v!r}")
    return _forest_on_word(t.as_forest(), v)


def _forest_on_word(f: Forest, w: str) -> Poly:
    if not f.trees:
        return Poly._wrap({w: 1})
    if not w:
        return Poly.zero()
    key = (f, w)
    cached = _ON_WORD_CACHE.get(key)
    if cached is not None:
        return cached
    v = w[:-1]
    if w[-1] == "y":
        # f(vy) = f(v)z - f(vx). The words ending in x cancel: their zeros
        # stay in acc (no key is deleted) until the pruning constructor
        acc = {u: -c for u, c in _forest_on_word(f, v + "x").terms.items()}
        get = acc.get
        for u, c in _forest_on_word(f, v).terms.items():
            ux = u + "x"
            acc[ux] = get(ux, 0) + c
            uy = u + "y"
            acc[uy] = get(uy, 0) + c
        out = Poly(acc)
    elif v:
        acc = {}
        for (f1, f2), c in _forest_coproduct(f).terms.items():
            left = _forest_on_word(f1, v).terms
            if left:
                add_concat_into(acc, left, _forest_on_word(f2, "x").terms, c)
        out = Poly(acc)
    elif len(f.trees) == 1:
        t = f.trees[0]
        out = _XY if t is LEAF else op_R(_forest_on_word(t.child_forest(), "x"))
    else:
        # composition: first canonical tree applied after the rest
        head, rest = f.trees[0], Forest(f.trees[1:])
        # a compact copy: keys that cancel leave dead slots in the sum
        out = Poly(_forest_on_poly(head.as_forest(), _forest_on_word(rest, "x")).terms)
    _ON_WORD_CACHE[key] = out
    return out


def _forest_on_poly(f: Forest, p: Poly) -> Poly:
    acc: dict[str, Scalar] = {}
    for w, c in p.terms.items():
        add_into(acc, _forest_on_word(f, w).terms, c)
    return Poly._wrap(acc)


def rtm_apply(f: HElem, w: Poly) -> Poly:
    """Evaluate the combination f of forests on the polynomial w; if f's
    coefficients are all ``Fraction``, they are summed as numerators over
    their lcm."""
    coeffs, den = numerators(f.terms)
    acc: dict[str, Scalar] = {}
    for forest, c in coeffs.items():
        add_into(acc, _forest_on_poly(forest, w).terms, c)
    return Poly._wrap(over(acc, den))


def rho_is_zero_on_x(f: HElem) -> bool:
    """Whether f's map vanishes, certified by its value on x alone.

    Inputs with an empty-forest component are rejected: for those the value
    on x does not determine the whole map.
    """
    if EMPTY_FOREST in f.terms:
        raise ValueError("input must have no degree-0 component")
    return rtm_apply(f, X).is_zero()
