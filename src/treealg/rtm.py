"""The linear action of forests on Q<x, y> (rooted tree maps).

The action is fixed by four rules: the leaf sends x to xy and y to -xy;
a grafted tree acts on letters through the degree-raising operator applied
to the child forest's value on x; a product of trees acts on letters by
composition; and on a longer word v.a the action is the coproduct-driven
recursion

    f(va) = sum over coproduct terms c (f1 (x) f2) of  c f1(v) f2(a).

The empty forest acts as the identity and every nonempty forest kills
constants. Words ending in x pay for the coproduct sum. Its term f (x) 1
gives f(v)x, since the empty forest maps x to x, and the other terms are
grouped by their left factor:

    f(vx) = f(v)x + G,  G = sum over f1 of  f1(v) H_f[f1],
    H_f[f1] = sum over the terms c (f1 (x) f2) with f2 nonempty of  c f2(x),

with the groups whose sum is zero dropped. H_f depends on f alone and is
built once, the first time f meets a word vx with v nonempty. Every word of
g(x), g nonempty, ends in y (xy for the leaf, an image of R for a grafted
tree, and by the rule below for a composition), so the words of G end in y
and those of f(v)x in x. With z = x + y, every nonempty forest g has
g(y) = -g(x), so only the term f (x) 1 survives in f(vx) + f(vy), which is
therefore f(v)z; hence

    f(vy) = f(v)z - f(vx) = f(v)y - G,

with G read off f(vx) as its words ending in y: one pass over f(v) and
f(vx), and no word ending in x is written. The word "y" is the case v = 1,
so a tree's value on y is minus its value on x.

Every rule above is linear in f, so a combination F = sum c_f f is
evaluated as one map by the same rules: F(1) = c_1 (the coefficient of the
empty forest), F(x) = sum c_f f(x) from each forest's letter rule,
F(vx) = F(v)x + sum f1(v) H_F[f1], where H_F is grouped from the linear
coproduct sum c_f delta(f), and F(vy) = F(v)y minus the words of F(vx)
ending in y. Terms of the coproduct and groups that cancel are dropped
before any word product is expanded: the relations f_{m,n} vanish, so F(v)
is zero and most of H_F cancels.
``rtm_apply`` takes this route for a combination of two or more forests
whose coefficients are ints, or all ``Fraction`` (summed in ints, see
``lincomb``), on a polynomial whose coefficients all have one type; then
every term of the plain per-forest sum has one type, and so has the
result, key by key. Any other input is summed forest by forest.

A map is named by a key: a forest, or a frozenset of (forest, int) pairs
for a combination. ``_on_word`` caches values by (key, word) and
``_right_factors`` the groups H by key, both with ``functools.cache``
(``cache_info()``, ``cache_clear()``), on top of the coproduct table of
``hopf``; on x, a one-tree forest takes the grafting rule and any other
forest the composition rule. Every word in either cache is the one interned
``str`` for it: F(v)x and F(v)y are built through the word tables of
``words``, and the concatenations of the x-step are interned in the pass
that drops their zero sums. Every linear extension runs through
``lincomb.linear``, every sum accumulates into a fresh dict, every cached
value is built compact (no slots left by deleted keys), and cached values
are never mutated.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from functools import cache
from typing import Union

from .hopf import HElem, _forest_coproduct, coproduct
from .lincomb import Scalar, add_concat_into, add_into, linear, numerators
from .trees import EMPTY_FOREST, Forest, LEAF
from .words import APPEND_X, APPEND_Y, Poly, X, op_R

# a forest, or a combination of forests as a frozenset of (forest, int) pairs
Key = Union[Forest, frozenset]

_XY = Poly._wrap({"xy": 1})
# A word longer than _JUMP letters first fills its prefix _JUMP letters
# shorter, which the recursion reaches anyway: each cached call counts twice
# against the recursion limit, so this keeps long words within it.
_JUMP = 64


@cache
def _on_word(key: Key, w: str) -> Poly:
    if key is EMPTY_FOREST:
        return Poly._wrap({sys.intern(w): 1})
    if not w:
        # F(1) = c_1; a nonempty forest kills constants
        if type(key) is Forest:
            return Poly.zero()
        return Poly._wrap({"": c for f, c in key if f is EMPTY_FOREST})
    if len(w) > _JUMP:
        _on_word(key, w[:-_JUMP])
    v = w[:-1]
    if w[-1] == "y":
        # F(vy) = F(v)y - G, G the words of F(vx) ending in y
        acc = {APPEND_Y[u]: c for u, c in _on_word(key, v).terms.items()}
        get = acc.get
        for u, c in _on_word(key, APPEND_X[v]).terms.items():
            if u[-1] == "y":
                acc[u] = get(u, 0) - c
        return Poly(acc)
    if v:
        # F(vx) = F(v)x + sum of f1(v) H_F[f1]
        acc = {APPEND_X[u]: c for u, c in _on_word(key, v).terms.items()}
        for f1, h in _right_factors(key):
            left = _on_word(f1, v).terms
            if left:
                add_concat_into(acc, left, h)
        # zero sums dropped; the one interned str for each word kept
        return Poly._wrap({sys.intern(u): c for u, c in acc.items() if c})
    if type(key) is not Forest:
        return Poly(linear(dict(key), lambda f: _on_word(f, "x").terms))
    if len(key.trees) == 1:
        t = key.trees[0]
        return _XY if t is LEAF else op_R(_on_word(t.child_forest(), "x"))
    # composition: first canonical tree applied after the rest
    head, rest = key.trees[0], Forest(key.trees[1:])
    # a compact copy: keys that cancel leave dead slots in the sum
    return Poly(_on_poly(head.as_forest(), _on_word(rest, "x")))


@cache
def _right_factors(key: Key) -> list[tuple[Forest, dict[str, Scalar]]]:
    """The nonzero groups (f1, H[f1]) of the coproduct of ``key``."""
    if type(key) is Forest:
        delta = _forest_coproduct(key)
    else:
        delta = coproduct(HElem._wrap(dict(key)))
    groups: dict[Forest, dict[str, Scalar]] = {}
    for (f1, f2), c in delta.terms.items():
        if f2 is not EMPTY_FOREST:
            add_into(groups.setdefault(f1, {}), _on_word(f2, "x").terms, c)
    # compact copies: add_into deletes the keys that cancel
    return [(f1, dict(h)) for f1, h in groups.items() if h]


def _on_poly(key: Key, p: Poly) -> dict[str, Scalar]:
    acc: dict[str, Scalar] = {}
    for w, c in p.terms.items():
        add_into(acc, _on_word(key, w).terms, c)
    return acc


def rtm_apply(f: HElem, w: Poly) -> Poly:
    """Evaluate the combination f of forests on the polynomial w. A
    combination of two or more forests with int coefficients, or all
    ``Fraction`` ones as int numerators over their lcm L scaled by 1/L, on
    a w whose coefficients have one type, is evaluated as one map."""
    terms = f.terms
    if len(terms) > 1 and len(set(map(type, w.terms.values()))) <= 1:
        coeffs, den = numerators(terms)
        if all(type(c) is int for c in coeffs.values()):
            terms = {frozenset(coeffs.items()): 1 if den is None else Fraction(1, den)}
    return Poly._wrap(linear(terms, lambda key: _on_poly(key, w)))


def rho_is_zero_on_x(f: HElem) -> bool:
    """Whether f's map vanishes, certified by its value on x alone.

    Inputs with an empty-forest component are rejected: for those the value
    on x does not determine the whole map.
    """
    if EMPTY_FOREST in f.terms:
        raise ValueError("input must have no degree-0 component")
    return rtm_apply(f, X).is_zero()
