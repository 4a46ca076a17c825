"""The two-ladder relation family and its verification.

``build_fmn(m, n)`` assembles the degree-(m+n) combination

    ladder(m) ladder(n)
      - sum over 0<=i<m, 0<=j<n of chain^(m-i+n-j-2)( leaf * bplus(ladder(i) ladder(j)) )
      + sum over the same range, (i, j) != (0, 0), of
            chain^(m-i+n-j-1)( leaf * ladder(i) * ladder(j) )

where chain^k wraps a forest in k successive graftings, ``ladder(k, f)``.
Both the polynomial image and the value on x of the result vanish, and the
same statement can be checked purely inside the word algebra via
``verify_r_identity``: with L_k = R^(k-1)(y) the value of ladder(k), the
product L_m <> L_n equals the image of the sum above, term by term. Its
right-hand side groups the terms by their power of R and applies R by
Horner. L_k lies in V_k, the words of length k that end in y, so
L_i <> L_j for i, j >= 1 is the dense product on V_i x V_j
(``diamond._diamond_dense``), and y <> a is T a on coefficient lists
(``words.op_Y_dense``). The ladder values (``_ladder_poly``, by k), the
products L_i <> L_j of each unordered pair (``_ladder_product``, by
(min, max)), which the left-hand side and the pieces share, and the two
pieces of each pair (``_pieces``) are cached with ``functools.cache`` and
shared by every (m, n); ``cache_info()`` reports their entries, hits and
misses.
"""
from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .diamond import _diamond_dense, sigma
from .hopf import HElem
from .lincomb import Scalar, add_into
from .rtm import rho_is_zero_on_x
from .trees import Forest, LEAF, bplus, forest_product, ladder
from .words import ONE, Poly, Y, op_R, op_Y_dense


def build_fmn(m: int, n: int) -> HElem:
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    acc: dict[Forest, Scalar] = {forest_product(ladder(m), ladder(n)): 1}
    for i in range(m):
        for j in range(n):
            inner = forest_product(
                LEAF.as_forest(), bplus(forest_product(ladder(i), ladder(j))).as_forest()
            )
            k = ladder(m - i + n - j - 2, inner)
            acc[k] = acc.get(k, 0) - 1
            if (i, j) != (0, 0):
                bare = forest_product(
                    LEAF.as_forest(), forest_product(ladder(i), ladder(j))
                )
                k = ladder(m - i + n - j - 1, bare)
                acc[k] = acc.get(k, 0) + 1
    # the pruning constructor drops the terms that cancel
    return HElem(acc)


@cache
def _ladder_poly(k: int) -> Poly:
    """Polynomial value of ladder(k): 1 for k = 0, else R^(k-1)(y)."""
    return ONE if k == 0 else Y if k == 1 else op_R(_ladder_poly(k - 1))


@cache
def _ladder_product(i: int, j: int) -> Poly:
    """L_i <> L_j on coefficient lists, called with i <= j."""
    return _ladder_poly(j) if i == 0 else _diamond_dense(_ladder_poly(i), i, _ladder_poly(j), j)


@cache
def _pieces(i: int, j: int) -> tuple[Poly, Poly]:
    """(y <> r(L_i <> L_j), y <> (L_i <> L_j)), where r is R extended to send
    the unit to y, by T = . <> y on V_(i+j+1) and V_(i+j); called with
    i <= j, as the pieces depend only on {i, j}."""
    inner, d = _ladder_product(i, j), i + j
    if not d:
        return op_Y_dense(Y, 1), Y
    return op_Y_dense(op_R(inner), d + 1), op_Y_dense(inner, d)


def _r_identity_rhs(m: int, n: int) -> Poly:
    """The right-hand side of the word identity,

        sum over 0<=i<m, 0<=j<n of R^(m-i+n-j-2)(y <> r(L_i <> L_j))
          - sum over the same range, (i, j) != (0, 0), of R^(m-i+n-j-1)(y <> (L_i <> L_j)).

    Terms are grouped by their power k of R, A_k, and R is applied by Horner:
    A_0 + R(A_1 + R(A_2 + ...)), m+n-1 passes of R in all."""
    top = m + n - 2
    groups: list[dict[str, Scalar]] = [{} for _ in range(top + 1)]
    for i in range(m):
        for j in range(n):
            grafted, bare = _pieces(min(i, j), max(i, j))
            add_into(groups[top - i - j], grafted.terms)
            if i or j:
                add_into(groups[top + 1 - i - j], bare.terms, -1)
    acc: dict[str, Scalar] = {}
    for group in reversed(groups):
        acc = op_R(Poly._wrap(acc)).terms
        add_into(acc, group)
    return Poly._wrap(acc)


def verify_r_identity(m: int, n: int) -> bool:
    """Check the word-algebra form of the vanishing statement for (m, n):
    L_m <> L_n, computed on its own, equals ``_r_identity_rhs(m, n)`` term
    by term."""
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    lhs = _ladder_product(min(m, n), max(m, n))
    return lhs.terms == _r_identity_rhs(m, n).terms


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
        rho_x_is_zero=rho_is_zero_on_x(rel) if not rel.is_zero() else True,
        r_identity_holds=verify_r_identity(m, n),
    )
