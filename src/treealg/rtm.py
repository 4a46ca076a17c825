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
``rtm_apply`` takes this route for every combination of two or more
forests. It runs on the int numerators of the combination and of the
polynomial, and divides the result once by their denominators (see
``lincomb``).

A map is named by a key: a forest, or a frozenset of (forest, int) pairs
for a combination. ``_on_word`` caches values by (key, word) and
``_right_factors`` the groups H by key, both with ``functools.cache``
(``cache_info()``, ``cache_clear()``), on top of the coproduct table of
``hopf``; on x, a one-tree forest takes the grafting rule and any other
forest the composition rule. Every word in either cache is the one interned
``str`` for it: F(v)x and F(v)y are built through the word tables of
``words``, and the concatenations of the x-step are interned in the pass
that drops their zero sums. ``rtm_apply`` sums c c_w F(w) over its one
map F and the words w of its polynomial itself, and so does a composition
over the words of its inner value; every other linear extension runs
through ``lincomb.linear``. Every sum accumulates into a fresh dict, every
cached value is built compact (no slots left by deleted keys), and cached
values are never mutated.

The value on x, on coefficient lists (``rho_is_zero_on_x``; the functions
named below are in ``value_on_x``, which it imports on first use, so that
the importers that never certify on x do not compile them). It uses the
letter rules and the two steps above, never sigma. For g nonempty, g(x) is
homogeneous of degree deg g + 1, and each of its words starts with x and
ends in y: xy for the leaf, R keeps the first letter, and a composition
writes the words u'hs below, which start with a prefix u' of an input word
or with h. So g(x) = xw, w in V_(deg g), and ``_on_x`` keeps the
coefficient list of w over V_(deg g), in the layout of ``words``: the
index of xw is its letters between the first and the last as bits, x = 0.
The leaf gives [1], R gives ``words.r_list`` (R(xw) = x R(w)), and a
product t·rest gives t(P), P = rest(x), by the following pass
(``_tree_on``).

Write a homogeneous P with no constant term as P = P_x x + P_y y. The two
steps are linear in the word, so

    f(P) = f(P_x)x + f(P_y)y + sum over f1 of  f1(P_x - P_y) H_f[f1].

A state (g, u, s) stands for g(u)s: g still to act on the prefix u, after
which comes the suffix s. The states of P start as (t, w, 1) with
coefficient c_w. Emitting u's last letter p leaves (g, u', ps), and the sum
adds (f1, u', hs) with c_h, signed + for p = x and - for p = y, for each
word h of H_g[f1]; the empty forest's states are words, and a nonempty
forest kills the empty word. As |h| = deg g - deg f1 + 1, the length
|u| + |s| + deg g is constant, so one list per g holds its states at the
index of the word u·s, of length n + deg t - deg g for P of length n. That
word starts with x and ends in y, as P's words and each h do. Emitting a
letter keeps the index, so each list carries over unchanged from prefix
length i to i - 1, and the only move is

    out_f1[u'hs] += c_h (src_g[u'xs] - src_g[u'ys])

(``_add_outer``: one ``map`` along the longest of the runs u', h and s).
The moves out of P's last letter y, with s empty, are written into the
initial lists; then i runs from n - 1 down to 1. At each i the forests are
visited in increasing degree, so f1 (deg f1 < deg g) has made its level-i
move before g writes level-(i - 1) states into it. The answer is the list
of the empty forest. Every g is a left factor of t: by coassociativity,
and as no coproduct coefficient is negative, a left factor of a left
factor of t is one of t's. H_g[f1] = sum c f2(x) is built from ``_on_x``
itself (``_groups_on_x``). ``rho_is_zero_on_x`` sums the lists per degree
(``lincomb.sum_lists``) and ``_vanishes_on_x`` caches the answer per
combination key, so a warm check is one lookup. ``rtm_apply`` keeps the
sparse recursion, whose memo the bridge's word recursions share; the two
implementations share no code, and the tests check one against the other.
"""
from __future__ import annotations

import sys
from functools import cache
from typing import Union

from .hopf import HElem, _forest_coproduct, coproduct
from .lincomb import Scalar, add_concat_into, add_into, linear, numerators, over
from .trees import EMPTY_FOREST, Forest, LEAF
from .words import APPEND_X, APPEND_Y, Poly, op_R

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
        return Poly._wrap({u: c for u, c in acc.items() if c})
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
        return Poly._wrap(dict(linear(dict(key), lambda f: _on_word(f, "x").terms)))
    if len(key.trees) == 1:
        t = key.trees[0]
        return _XY if t is LEAF else op_R(_on_word(t.child_forest(), "x"))
    # composition: first canonical tree applied after the rest
    head, rest = key.trees[0].as_forest(), Forest(key.trees[1:])
    acc = {}
    for u, c in _on_word(rest, "x").terms.items():
        add_into(acc, _on_word(head, u).terms, c)
    # a compact copy: keys that cancel leave dead slots in the sum
    return Poly._wrap(dict(acc))


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


def rtm_apply(f: HElem, w: Poly) -> Poly:
    """Evaluate the combination f of forests on the polynomial w, on the int
    numerators of both, divided once by their denominators. A combination
    of two or more forests is evaluated as one map."""
    coeffs, den = numerators(f.terms)
    words, wden = numerators(w.terms)
    if len(coeffs) > 1:
        coeffs = {frozenset(coeffs.items()): 1}
    acc: dict[str, int] = {}
    for key, c in coeffs.items():
        for u, cu in words.items():
            add_into(acc, _on_word(key, u).terms, c * cu)
    return Poly._wrap(over(acc, den * wden))


def rho_is_zero_on_x(f: HElem) -> bool:
    """Whether f's map vanishes, certified by its value on x alone.

    Inputs with an empty-forest component are rejected: for those the value
    on x does not determine the whole map.
    """
    if EMPTY_FOREST in f.terms:
        raise ValueError("input must have no degree-0 component")
    # compiled on first use, as most importers never certify on x
    from .value_on_x import _vanishes_on_x

    return _vanishes_on_x(frozenset(numerators(f.terms)[0].items()))
