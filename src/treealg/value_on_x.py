"""The values on x of nonempty forests on coefficient lists, for
``rtm.rho_is_zero_on_x``, which imports this module on first use.

The derivation and the list layout are in the ``rtm`` docstring: ``_on_x``
keeps f(x) = xw as w's coefficient list over V_(deg f), ``_tree_on`` runs
the backward pass for a product t·rest, ``_groups_on_x`` sums the groups
H_g[f1] per left factor f1, and ``_vanishes_on_x`` sums the lists of a
combination per degree, both by ``lincomb.sum_lists``. The strided moves
of the pass are the two kernels of ``words``. All three caches (``_on_x``,
``_groups_on_x``, ``_vanishes_on_x``) are ``functools.cache``.
"""
from __future__ import annotations

from functools import cache
from operator import attrgetter

from .hopf import _forest_coproduct
from .lincomb import Scalar, sum_lists
from .trees import EMPTY_FOREST, Forest, LEAF
from .words import add_difference, add_outer, r_list


@cache
def _on_x(f: Forest) -> list[Scalar]:
    """f(x) = xw for a nonempty forest f: w's coefficients over V_(deg f)."""
    if len(f.trees) > 1:
        rest = Forest(f.trees[1:])
        return _tree_on(f.trees[0].as_forest(), _on_x(rest), rest.degree + 1)
    return [1] if f.trees[0] is LEAF else r_list(_on_x(f.trees[0].child_forest()))


@cache
def _groups_on_x(g: Forest) -> list[tuple[Forest, list[Scalar]]]:
    """The nonzero groups (f1, H_g[f1]) of g's coproduct, each H as the
    list of its words xhy over V_(deg g - deg f1)."""
    groups = sum_lists(
        (f1, _on_x(f2), c) for (f1, f2), c in _forest_coproduct(g).terms.items() if f2.trees
    )
    return [(f1, h) for f1, h in groups.items() if any(h)]


def _tree_on(t: Forest, p: list[Scalar], n: int) -> list[Scalar]:
    """t(xw) for w in V_(n - 1) with coefficient list p, n >= 2, as a list
    over V_(n - 1 + deg t), by the backward pass of the ``rtm`` docstring."""
    # every left factor of a left factor of t is one of t's (coassociativity,
    # and the coproduct of a forest has no negative coefficient)
    left = sorted({f1 for f1, _ in _forest_coproduct(t).terms}, key=attrgetter("degree"))
    lists = {g: [0] * (1 << (n + t.degree - g.degree - 2)) for g in left}
    lists[t] = list(p)
    # the moves out of the last letter y: states (f1, u', h) with -c_h P[u'y]
    neg = [-c for c in p]
    for f1, h in _groups_on_x(t):
        add_outer(lists[f1], neg, h, 1, 2 * len(h), 1, 0)
    for i in range(n - 1, 0, -1):
        for g, src in lists.items():
            groups = _groups_on_x(g)
            if not groups or not any(src):
                continue
            # d[u's] = src[u'xs] - src[u'ys], with |u'| = i - 1 and ns words s;
            # at i = 1, u' is empty and every state word starts with x
            ns = len(src) >> (i - 1)
            d = src
            if i > 1:
                d = [0] * (len(src) // 2)
                add_difference(d, src, 0, 0, ns, [(len(d) // ns, ns, 2 * ns), (ns, 1, 1)])
            for f1, h in groups:
                add_outer(lists[f1], d, h, ns, 4 * len(h) * ns, 2 * ns, ns)
    return lists[EMPTY_FOREST]


@cache
def _vanishes_on_x(key: frozenset) -> bool:
    """Whether the combination ``key`` of nonempty forests is zero on x:
    its values summed per degree by ``sum_lists``."""
    sums = sum_lists((f.degree, _on_x(f), c) for f, c in key)
    return not any(map(any, sums.values()))
