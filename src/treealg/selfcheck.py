"""Built-in verification suite behind the ``selfcheck`` CLI subcommand.

Each check is a generator: it yields ``(case, got, want)`` for every
comparison it makes, where ``case`` names the input (a degree, a forest, a
word pair) and the comparison holds when ``got == want``. A check returns no
verdict of its own; ``run_selfcheck`` judges each one, stopping at its first
mismatch, so a failing check draws and computes no more than it must, and
reports that mismatch as the check's witness.
Degree-parametrized checks are capped by the requested maximum degree and by
a bound of their own. The suite mirrors the library's exact invariants, so a
single failure indicates a real defect.
"""
from __future__ import annotations

import random
from itertools import product
from typing import Callable, Iterator

from .diamond import diamond, sigma, sigma_forest
from .hopf import HElem, coproduct, print_tensor
from .lincomb import add_into
from .linalg import basis_forests, basis_matrix, check_mod2_invertible, sigma_kernel
from .relations import verify_fmn
from .rtm import rtm_apply
from .trees import enumerate_forests, enumerate_trees, parse_forest
from .words import Poly, X, Z, parse_poly

TREE_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286, 719)

Cases = Iterator[tuple[object, object, object]]


def _all_words(max_len: int) -> list[str]:
    return [""] + [
        "".join(p) for n in range(1, max_len + 1) for p in product("xy", repeat=n)
    ]


def _check_tree_counts(max_degree: int) -> Cases:
    top = min(max(max_degree, 1), len(TREE_COUNTS))
    for n in range(1, top + 1):
        yield n, len(enumerate_trees(n)), TREE_COUNTS[n - 1]


def _check_coproduct_goldens(max_degree: int) -> Cases:
    cases = {
        "1": "(1 (x) 1)",
        "[]": "([] (x) 1) + (1 (x) [])",
        "[[]]": "([[]] (x) 1) + ([] (x) []) + (1 (x) [[]])",
        "[] []": "([] [] (x) 1) + 2*([] (x) []) + (1 (x) [] [])",
        "[[][]]": "([[][]] (x) 1) + ([] [] (x) []) + 2*([] (x) [[]]) + (1 (x) [[][]])",
    }
    for f, expected in cases.items():
        yield f, print_tensor(coproduct(HElem.from_forest(parse_forest(f)))), expected


def _check_coassociativity(max_degree: int) -> Cases:
    for d in range(min(max_degree, 5) + 1):
        for f in enumerate_forests(d):
            left: dict = {}
            right: dict = {}
            for (f1, f2), c in coproduct(HElem.from_forest(f)).terms.items():
                lifted = coproduct(HElem.from_forest(f2)).terms.items()
                add_into(left, {(f1, g1, g2): e for (g1, g2), e in lifted}, c)
                lifted = coproduct(HElem.from_forest(f1)).terms.items()
                add_into(right, {(g1, g2, f2): e for (g1, g2), e in lifted}, c)
            yield f, left, right


def _check_rtm_goldens(max_degree: int) -> Cases:
    for f, expected in (("[] []", "xyy - xxy"), ("[[][]]", "-xxxy - 2xxyy + xyxy + 2xyyy")):
        yield f, rtm_apply(HElem.from_forest(parse_forest(f)), X), parse_poly(expected)


def _check_bridge(max_degree: int) -> Cases:
    words = _all_words(4)
    for d in range(min(max_degree, 5) + 1):
        for f in enumerate_forests(d):
            elem = HElem.from_forest(f)
            value = sigma_forest(f)
            for w in words:
                lhs = rtm_apply(elem, Poly.from_word("x" + w))
                yield (f, w), lhs, X * diamond(value, Poly.from_word(w))


def _check_relations(max_degree: int) -> Cases:
    # m + n <= 9, the range the acceptance tests check (criterion 5). Cost
    # is not the limit: all three routes over m + n <= 14 take under 2 s and
    # 70 MB in one process
    total = min(max(max_degree, 2), 9)
    for m in range(1, total):
        for n in range(1, total - m + 1):
            yield (m, n), verify_fmn(m, n).all_ok, True


def _check_basis(max_degree: int) -> Cases:
    for d in range(1, min(max(max_degree, 1), 8) + 1):
        yield d, len(basis_forests(d)), 2 ** (d - 1)
        yield d, basis_matrix(d).rank(), 2 ** (d - 1)
        yield d, check_mod2_invertible(d), True


def _check_kernel_dims(max_degree: int) -> Cases:
    for d in range(1, min(max(max_degree, 1), 6) + 1):
        yield d, len(sigma_kernel(d)), len(enumerate_forests(d)) - 2 ** (d - 1)


def _check_diamond_laws(max_degree: int) -> Cases:
    rng = random.Random(20240824)
    words = _all_words(min(4, max(1, max_degree)))[1:]
    for _ in range(200):
        a, b = rng.choice(words), rng.choice(words)
        pa, pb = Poly.from_word(a), Poly.from_word(b)
        yield (a, b), diamond(pa, pb), diamond(pb, pa)
        c = rng.choice(words)
        pc = Poly.from_word(c)
        yield (a, b, c), diamond(diamond(pa, pb), pc), diamond(pa, diamond(pb, pc))
        yield (a, b), diamond(pa * Z, pb), diamond(pa, pb) * Z


def _check_homomorphisms(max_degree: int) -> Cases:
    rng = random.Random(20240825)
    forests = [f for d in range(4) for f in enumerate_forests(d)]
    words = _all_words(3)
    for _ in range(60):
        f, g = rng.choice(forests), rng.choice(forests)
        a, b = HElem.from_forest(f), HElem.from_forest(g)
        yield (f, g), sigma(a * b), diamond(sigma(a), sigma(b))
        w = rng.choice(words)
        pw = Poly.from_word(w)
        yield (f, g, w), rtm_apply(a * b, pw), rtm_apply(a, rtm_apply(b, pw))


CHECKS: tuple[tuple[str, Callable[[int], Cases]], ...] = (
    ("tree-counts", _check_tree_counts),
    ("coproduct-goldens", _check_coproduct_goldens),
    ("coassociativity", _check_coassociativity),
    ("rtm-goldens", _check_rtm_goldens),
    ("sigma-diamond-bridge", _check_bridge),
    ("relation-family", _check_relations),
    ("basis-matrices", _check_basis),
    ("kernel-dimensions", _check_kernel_dims),
    ("diamond-laws", _check_diamond_laws),
    ("homomorphisms", _check_homomorphisms),
)


def run_selfcheck(max_degree: int = 5) -> Iterator[tuple[str, tuple | None]]:
    """Each check's name and its witness: the first ``(case, got, want)``
    with ``got != want``, or None when the check passes."""
    for name, check in CHECKS:
        cases = check(max_degree)
        yield name, next(((c, got, want) for c, got, want in cases if got != want), None)
