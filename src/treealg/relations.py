"""The two-ladder relation family and its verification.

``build_fmn(m, n)`` assembles the degree-(m+n) combination

    ladder(m) ladder(n)
      - sum over 0<=i<m, 0<=j<n of chain^(m-i+n-j-2)( leaf * bplus(ladder(i) ladder(j)) )
      + sum over the same range, (i, j) != (0, 0), of
            chain^(m-i+n-j-1)( leaf * ladder(i) * ladder(j) )

where chain^k wraps a forest in k successive graftings, ``ladder(k, f)``.
The two forests that the (i, j) terms wrap, leaf * bplus(ladder(i)
ladder(j)) and leaf * ladder(i) * ladder(j), depend only on the unordered
pair {i, j}: they are built once, from the product ladder(i) ladder(j),
and cached with ``functools.cache`` on ``_pair_forests``, called with
(min, max) as ``_pieces`` below is. Every (m, n) of a sweep shares them,
and each (i, j) term costs two cached ``ladder`` lookups and two dict
updates.

Both the polynomial image and the value on x of the result vanish, and the
same statement can be checked purely inside the word algebra via
``verify_r_identity``: with L_k = R^(k-1)(y) the value of ladder(k), the
product L_m <> L_n equals the image of the sum above, term by term. Its
right-hand side groups the terms by their power of R, summed as lists by
``lincomb.sum_lists``, and applies R by Horner. L_k lies in V_k, the
words of length k that end in y, and every step runs on coefficient
lists over V_n (the layout of ``words``): y <> a is T a
(``words.t_list``), R is ``words.r_list``, and the two sides are compared
as lists. L_i <> L_j, i <= j, is ``diamond._sigma_list`` of the forest
ladder(i) ladder(j), whose first tree is the shorter ladder: the dense
product on V_i x V_j for i >= 2, T L_j for i = 1 and L_j for i = 0. So
the left-hand side, the pieces and the sigma route of f_{m,n} (which
reaches that forest inside each of its terms) read one cached list per
pair. The two pieces of each unordered pair (``_pieces``) are cached
with ``functools.cache`` and shared by every (m, n); ``cache_info()``
reports their entries, hits and misses. The word route takes sigma of
no other forest: it applies T and R to these lists itself.
"""
from __future__ import annotations

from functools import cache
from operator import add
from typing import NamedTuple

from .diamond import _sigma_list, sigma
from .hopf import HElem
from .lincomb import Scalar, sum_lists
from .rtm import rho_is_zero_on_x
from .trees import Forest, LEAF, bplus, forest_product, ladder
from .words import r_list, t_list


def build_fmn(m: int, n: int) -> HElem:
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    acc: dict[Forest, Scalar] = {forest_product(ladder(m), ladder(n)): 1}
    for i in range(m):
        for j in range(n):
            grafted, bare = _pair_forests(min(i, j), max(i, j))
            k = ladder(m - i + n - j - 2, grafted)
            acc[k] = acc.get(k, 0) - 1
            if (i, j) != (0, 0):
                k = ladder(m - i + n - j - 1, bare)
                acc[k] = acc.get(k, 0) + 1
    # drop the terms that cancel; the keys are forests, so none is checked
    return HElem._wrap({f: c for f, c in acc.items() if c})


@cache
def _pair_forests(i: int, j: int) -> tuple[Forest, Forest]:
    """(leaf * bplus(ladder(i) ladder(j)), leaf * ladder(i) * ladder(j)):
    the forests that the (i, j) and (j, i) terms of every f_{m,n} wrap in
    ladders. The product of forests commutes, so it is called with i <= j."""
    pair = forest_product(ladder(i), ladder(j))
    leaf = LEAF.as_forest()
    return forest_product(leaf, bplus(pair).as_forest()), forest_product(leaf, pair)


@cache
def _pieces(i: int, j: int) -> tuple[list[Scalar], list[Scalar]]:
    """(y <> r(L_i <> L_j), y <> (L_i <> L_j)) as lists, where r is R
    extended to send the unit to y; called with i <= j, as the pieces
    depend only on {i, j}."""
    if not j:
        return t_list([1]), [1]
    inner = _sigma_list(forest_product(ladder(i), ladder(j)))
    return t_list(r_list(inner)), t_list(inner)


def _r_identity_rhs(m: int, n: int) -> list[Scalar]:
    """The right-hand side of the word identity, as a list over V_(m+n),

        sum over 0<=i<m, 0<=j<n of R^(m-i+n-j-2)(y <> r(L_i <> L_j))
          - sum over the same range, (i, j) != (0, 0), of R^(m-i+n-j-1)(y <> (L_i <> L_j)).

    Terms are grouped by their power k of R, A_k, a list over V_(m+n-k):
    ``sum_lists`` keys each group by its length, shorter for larger k, and
    R is applied by Horner over the lengths, shortest first:
    A_0 + R(A_1 + R(A_2 + ...))."""
    pieces = [_pieces(min(i, j), max(i, j)) for i in range(m) for j in range(n)]
    # the first pair is (0, 0), the one whose second piece is not subtracted
    groups = sum_lists(
        [(len(g), g, 1) for g, _ in pieces] + [(len(b), b, -1) for _, b in pieces[1:]]
    )
    acc = [0]  # R(0) = 0 before the shortest group, of length 2
    for length in sorted(groups):
        acc = list(map(add, r_list(acc), groups[length]))
    return acc


def verify_r_identity(m: int, n: int) -> bool:
    """Check the word-algebra form of the vanishing statement for (m, n):
    L_m <> L_n, read from sigma's list memo, equals ``_r_identity_rhs(m, n)``
    term by term, as coefficient lists."""
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    return _sigma_list(forest_product(ladder(m), ladder(n))) == _r_identity_rhs(m, n)


class RelationReport(NamedTuple):
    """Verification outcome for one (m, n) relation instance."""

    m: int
    n: int
    relation: HElem
    sigma_is_zero: bool
    rho_x_is_zero: bool
    r_identity_holds: bool

    @property
    def all_ok(self) -> bool:
        return self.sigma_is_zero and self.rho_x_is_zero and self.r_identity_holds


def verify_fmn(m: int, n: int) -> RelationReport:
    rel = build_fmn(m, n)
    return RelationReport(
        m=m,
        n=n,
        relation=rel,
        sigma_is_zero=sigma(rel).is_zero(),
        rho_x_is_zero=rho_is_zero_on_x(rel),
        r_identity_holds=verify_r_identity(m, n),
    )
