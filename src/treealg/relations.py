"""The two-ladder relation family and its verification.

``build_fmn(m, n)`` assembles the degree-(m+n) combination

    ladder(m) ladder(n)
      - sum over 0<=i<m, 0<=j<n of chain^(m-i+n-j-2)( leaf * bplus(ladder(i) ladder(j)) )
      + sum over the same range, (i, j) != (0, 0), of
            chain^(m-i+n-j-1)( leaf * ladder(i) * ladder(j) )

where chain^k wraps a forest in k successive graftings. Both the
polynomial image and the value on x of the result vanish, and the same
statement can be checked purely inside the word algebra via
``verify_r_identity``.
"""
from __future__ import annotations

from dataclasses import dataclass

from .diamond import diamond, sigma
from .hopf import HElem
from .lincomb import Scalar, add_into
from .rtm import rho_is_zero_on_x
from .trees import Forest, LEAF, bplus, forest_product, ladder
from .words import ONE, Poly, Y, op_R, op_R_pow


def chain_wrap(k: int, f: Forest) -> Forest:
    """Wrap a forest in k successive graftings (k = 0 leaves it as is)."""
    for _ in range(k):
        f = bplus(f).as_forest()
    return f


def build_fmn(m: int, n: int) -> HElem:
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    acc: dict[Forest, Scalar] = {forest_product(ladder(m), ladder(n)): 1}
    for i in range(m):
        for j in range(n):
            inner = forest_product(
                LEAF.as_forest(), bplus(forest_product(ladder(i), ladder(j))).as_forest()
            )
            add_into(acc, {chain_wrap(m - i + n - j - 2, inner): 1}, -1)
            if (i, j) != (0, 0):
                bare = forest_product(
                    LEAF.as_forest(), forest_product(ladder(i), ladder(j))
                )
                add_into(acc, {chain_wrap(m - i + n - j - 1, bare): 1})
    return HElem._wrap(acc)


def _ladder_poly(k: int) -> Poly:
    """Polynomial value of ladder(k): 1 for k = 0, else R^(k-1)(y)."""
    return ONE if k == 0 else op_R_pow(k - 1, Y)


def _r_hat(p: Poly) -> Poly:
    """The degree-raising operator, extended to send the unit to y."""
    return Y if p == ONE else op_R(p)


def verify_r_identity(m: int, n: int) -> bool:
    """Check the word-algebra form of the vanishing statement for (m, n)."""
    if m < 1 or n < 1:
        raise ValueError("both ladder lengths must be >= 1")
    lhs = diamond(_ladder_poly(m), _ladder_poly(n))
    rhs: dict[str, Scalar] = {}
    for i in range(m):
        for j in range(n):
            li, lj = _ladder_poly(i), _ladder_poly(j)
            term = op_R_pow(m - i + n - j - 2, diamond(Y, _r_hat(diamond(li, lj))))
            add_into(rhs, term.terms)
            if (i, j) != (0, 0):
                term = op_R_pow(m - i + n - j - 1, diamond(Y, diamond(li, lj)))
                add_into(rhs, term.terms, -1)
    return lhs.terms == rhs


@dataclass(frozen=True)
class RelationReport:
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
