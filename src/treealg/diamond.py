"""The diamond product on Q<x, y> and the forest-to-polynomial map.

The diamond product is defined on words by recursion on last letters:

    w <> 1  = 1 <> w = w
    vx <> wx = (v <> wx)x - (vy <> w)x
    vx <> wy = (v <> wy)x + (vx <> w)y
    vy <> wx = (v <> wx)y + (vy <> w)x
    vy <> wy = (v <> wy)y - (vx <> w)y

and extended bilinearly. ``sigma`` sends a forest to its polynomial value:
the leaf goes to y, grafting acts by the degree-raising operator, and a
product of trees goes to the diamond product of their values. Every value
of degree n >= 1 lies in V_n, the words of length n that end in y, and
``_sigma_list`` keeps it as its coefficient list over V_n (the layout of
``words``). The leaf goes to [1] and grafting to ``words.r_list``; a
product leaf·u with u nonempty goes to y ◇ sigma(u) = T sigma(u), which
``words.t_list`` gives (its docstring proves T = · ◇ y); any other
product of trees goes to ``_diamond_dense`` on V_a × V_b.

The dense product. Write P = P_x x + P_y y and Q = Q_x x + Q_y y, with no
constant terms, and D = P_x - P_y. Summing the four rules over the terms
gives

    P ◇ Q = [P_x ◇ Q - (D y) ◇ Q_x] x + [P_y ◇ Q + (D x) ◇ Q_y] y.

Term by term: a state (u, w, s) stands for (u ◇ w)s. Emitting u's last
letter p leaves (u', w, ps); emitting w's last letter q leaves (u'q̄, w', qs),
with q̄ the other letter and sign + where p = q̄, - where p = q; 1 ◇ w = w and
u ◇ 1 = u end a path. For v in V_a and w in V_b every state has
|u| + |w| + |s| = a + b and is stored at the index of the word w·u·s in
V_(a+b): that word ends in y, since v and w do and the first move emits
one. Emitting a left letter keeps w·u·s, and so do both ends. So one list
per j = |w| carries over from i = |u| to i - 1 unchanged, the output is
the sum of the lists, and the only move that is not the identity on
indices is the right one: out[w' | u'q̄ | qs] += src[w'q | u'q̄ | s] -
src[w'q | u'q | s], col[j] from col[j + 1], for each i from a down to 1
and each j from b - 1 down to 0. For each q it is one
``words.add_difference`` over the box of the runs s, u' and w'. The moves
out of (a, b), v'y ◇ w'y = (v' ◇ w'y)y - (v'x ◇ w')y, are added into the
initial lists by two ``words.add_outer`` of v' and w'. That is a·b moves
of 2^(a+b-2) element pairs each. Memoless and dense, it takes and returns
coefficient lists.

The public ``diamond`` is the sparse word recursion, for any polynomial:
the action bridge's single words, some ending in x, and the reference of
the differential tests. The product is commutative, so word products are
cached once per unordered pair: ``_diamond_words`` answers the empty-word
cases and puts the longer word first, words of one length in string
order, and the recursion runs in ``_diamond_pair`` on that orientation.
(Plain string order would make the recursion reach more distinct pairs:
61k entries, not 49k, for the chain y ◇ ... ◇ y of 16 factors, and 243 MB
of peak memory, not 217 MB, for 18 factors.) ``_sigma_list`` caches forest
values as lists, and ``sigma_forest``, for callers that want one forest's
value, as ``Poly``, built once from the list. ``sigma`` of a combination
sums the lists of each degree by ``lincomb.sum_lists`` and turns each sum
into a ``Poly`` once, so it fills no ``sigma_forest`` entry, whatever its
coefficients. The caches are ``functools.cache`` (``cache_info()``,
``cache_clear()``). ``_diamond_pair`` appends its last letters through
the word tables of ``words``, and ``poly_from_list`` takes the words of
the V_n table, so every word in either memo is the one interned ``str``
for it. Every sum accumulates into fresh dicts or lists, ``sigma`` and
``diamond`` run on the int numerators of their input (``lincomb``), and
cached values, lists included, are never mutated.
"""
from __future__ import annotations

from functools import cache

from .hopf import HElem
from .lincomb import Scalar, add_into, numerators, over, sum_lists
from .trees import EMPTY_FOREST, Forest, LEAF
from .words import (APPEND_X, APPEND_Y, ONE, Poly, add_difference, add_outer, poly_from_list,
                    r_list, t_list)

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
    """Bilinear extension of the word-level diamond recursion, on the int
    numerators of each factor, divided once by their denominators."""
    left, lden = numerators(v.terms)
    right, rden = numerators(w.terms)
    acc: dict[str, Scalar] = {}
    for a, ca in left.items():
        for b, cb in right.items():
            add_into(acc, _diamond_words(a, b).terms, ca * cb)
    return Poly._wrap(over(acc, lden * rden))


def _diamond_dense(cv: list[Scalar], cw: list[Scalar]) -> list[Scalar]:
    """v ◇ w on the coefficient lists of v in V_a and w in V_b, a, b >= 1
    (see the module docstring)."""
    a, b = len(cv).bit_length(), len(cw).bit_length()
    m, h = a + b - 1, 1 << (a - 1)
    col = [[0] * (1 << m) for _ in range(b + 1)]
    # v'y ◇ w'y = (v' ◇ w'y)y - (v'x ◇ w')y: the states (a - 1, b) and (a, b - 1)
    add_outer(col[b], cv, cw, h, 0, 2 * h, h)
    add_outer(col[b - 1], [-e for e in cv], cw, 1, 2, 2 * h, 0)
    for i in range(a, 0, -1):
        # the row i = a starts at (a, b - 1), the rows below it at (i, b)
        for j in range(b - 1 - (i == a), -1, -1):
            # the runs s (t letters before its last y), u' and w', and the bit
            # of q in src; q = x, then q = y
            t = m - i - j - 1
            top = 1 << (t + i)
            axes = [(1 << t, 1, 1), (1 << (i - 1), 4 << t, 2 << t), (1 << j, 2 * top, 2 * top)]
            add_difference(col[j], col[j + 1], 2 << t, 1 << t, 0, axes)
            add_difference(col[j], col[j + 1], 1 << t, top, top + (1 << t), axes)
    return list(map(sum, zip(*col)))


@cache
def _sigma_list(f: Forest) -> list[Scalar]:
    """The coefficient list of a nonempty forest's value over V_(deg f)."""
    if len(f.trees) == 1:
        t = f.trees[0]
        return [1] if t is LEAF else r_list(_sigma_list(t.child_forest()))
    if f.trees[0] is LEAF:
        # sigma(leaf·u) = y <> sigma(u) = T sigma(u)
        return t_list(_sigma_list(Forest(f.trees[1:])))
    *init, last = f.trees
    return _diamond_dense(_sigma_list(Forest(init)), _sigma_list(last.as_forest()))


@cache
def sigma_forest(f: Forest) -> Poly:
    """The polynomial value of a single forest (diamond product of tree values)."""
    return poly_from_list(_sigma_list(f)) if f.trees else ONE


def sigma(a: HElem) -> Poly:
    """Linear extension of the forest-to-polynomial homomorphism: the
    forest lists of each degree summed by ``sum_lists`` on the int
    numerators of the coefficients, divided once by their denominators."""
    coeffs, den = numerators(a.terms)
    acc = {"": coeffs[EMPTY_FOREST]} if EMPTY_FOREST in coeffs else {}
    sums = sum_lists((f.degree, _sigma_list(f), c) for f, c in coeffs.items() if f.trees)
    for col in sums.values():
        acc.update(poly_from_list(col).terms)
    return Poly._wrap(over(acc, den))
