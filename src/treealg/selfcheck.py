"""Built-in verification suite behind the ``selfcheck`` CLI subcommand.

Each check is a named predicate; degree-parametrized checks are capped by
the requested maximum degree and by a bound of their own. The suite mirrors
the library's exact invariants, so a single failure indicates a real defect.
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


def _all_words(max_len: int) -> list[str]:
    return [""] + [
        "".join(p) for n in range(1, max_len + 1) for p in product("xy", repeat=n)
    ]


def _check_tree_counts(max_degree: int) -> bool:
    top = min(max(max_degree, 1), len(TREE_COUNTS))
    return all(
        len(enumerate_trees(n)) == TREE_COUNTS[n - 1] for n in range(1, top + 1)
    )


def _check_coproduct_goldens(max_degree: int) -> bool:
    cases = {
        "1": "(1 (x) 1)",
        "[]": "([] (x) 1) + (1 (x) [])",
        "[[]]": "([[]] (x) 1) + ([] (x) []) + (1 (x) [[]])",
        "[] []": "([] [] (x) 1) + 2*([] (x) []) + (1 (x) [] [])",
        "[[][]]": "([[][]] (x) 1) + ([] [] (x) []) + 2*([] (x) [[]]) + (1 (x) [[][]])",
    }
    return all(
        print_tensor(coproduct(HElem.from_forest(parse_forest(f)))) == expected
        for f, expected in cases.items()
    )


def _check_coassociativity(max_degree: int) -> bool:
    top = min(max_degree, 5)
    for d in range(top + 1):
        for f in enumerate_forests(d):
            left: dict = {}
            right: dict = {}
            delta = coproduct(HElem.from_forest(f))
            for (f1, f2), c in delta.terms.items():
                lifted = coproduct(HElem.from_forest(f2)).terms.items()
                add_into(left, {(f1, g1, g2): e for (g1, g2), e in lifted}, c)
                lifted = coproduct(HElem.from_forest(f1)).terms.items()
                add_into(right, {(g1, g2, f2): e for (g1, g2), e in lifted}, c)
            if left != right:
                return False
    return True


def _check_rtm_goldens(max_degree: int) -> bool:
    two_leaves = parse_forest("[] []")
    grafted = parse_forest("[[][]]")
    return (
        rtm_apply(HElem.from_forest(two_leaves), X) == parse_poly("xyy - xxy")
        and rtm_apply(HElem.from_forest(grafted), X)
        == parse_poly("-xxxy - 2xxyy + xyxy + 2xyyy")
    )


def _check_bridge(max_degree: int) -> bool:
    top = min(max_degree, 5)
    words = _all_words(4)
    for d in range(top + 1):
        for f in enumerate_forests(d):
            elem = HElem.from_forest(f)
            value = sigma_forest(f)
            for w in words:
                lhs = rtm_apply(elem, Poly.from_word("x" + w))
                rhs = X * diamond(value, Poly.from_word(w))
                if lhs != rhs:
                    return False
    return True


def _check_relations(max_degree: int) -> bool:
    # m + n <= 9, the range of the acceptance tests: time and memory grow
    # about threefold per step of m + n, so a larger bound runs out of memory
    total = min(max(max_degree, 2), 9)
    for m in range(1, total):
        for n in range(1, total - m + 1):
            if not verify_fmn(m, n).all_ok:
                return False
    return True


def _check_basis(max_degree: int) -> bool:
    top = min(max(max_degree, 1), 8)
    for d in range(1, top + 1):
        mat = basis_matrix(d)
        if len(basis_forests(d)) != 2 ** (d - 1):
            return False
        if mat.rank() != 2 ** (d - 1):
            return False
        if not check_mod2_invertible(d):
            return False
    return True


def _check_kernel_dims(max_degree: int) -> bool:
    top = min(max(max_degree, 1), 6)
    for d in range(1, top + 1):
        expected = len(enumerate_forests(d)) - 2 ** (d - 1)
        if len(sigma_kernel(d)) != expected:
            return False
    return True


def _check_diamond_laws(max_degree: int) -> bool:
    rng = random.Random(20240824)
    words = _all_words(min(4, max(1, max_degree)))[1:]
    for _ in range(200):
        a, b = rng.choice(words), rng.choice(words)
        pa, pb = Poly.from_word(a), Poly.from_word(b)
        if diamond(pa, pb) != diamond(pb, pa):
            return False
        c = Poly.from_word(rng.choice(words))
        if diamond(diamond(pa, pb), c) != diamond(pa, diamond(pb, c)):
            return False
        if diamond(pa * Z, pb) != diamond(pa, pb) * Z:
            return False
    return True


def _check_homomorphisms(max_degree: int) -> bool:
    rng = random.Random(20240825)
    forests = [f for d in range(4) for f in enumerate_forests(d)]
    words = _all_words(3)
    for _ in range(60):
        f, g = rng.choice(forests), rng.choice(forests)
        a, b = HElem.from_forest(f), HElem.from_forest(g)
        if sigma(a * b) != diamond(sigma(a), sigma(b)):
            return False
        w = Poly.from_word(rng.choice(words))
        if rtm_apply(a * b, w) != rtm_apply(a, rtm_apply(b, w)):
            return False
    return True


CHECKS: tuple[tuple[str, Callable[[int], bool]], ...] = (
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


def run_selfcheck(max_degree: int = 5) -> Iterator[tuple[str, bool]]:
    for name, fn in CHECKS:
        yield name, fn(max_degree)
