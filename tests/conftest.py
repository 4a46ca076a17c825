import itertools
import sys
from fractions import Fraction

import pytest

from treealg import HElem, enumerate_forests, hopf, parse_forest

# A mixed combination whose Fraction terms cancel at the word xxy before its
# int term adds to it: the plain fold drops the word and then meets it again,
# while a grouped sum of the three values meets it once. By the coefficient
# rule both leave an int there.
MIXED_CANCEL_FIRST = HElem(
    {parse_forest("[[[]]]"): Fraction(1, 2), parse_forest("[] [] []"): Fraction(-1, 2),
     parse_forest("[[][]]"): 1}
)


def follows_coefficient_rule(coeffs):
    """Whether every coefficient is an int, or a Fraction with denominator > 1."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator > 1) for c in coeffs)


def all_words(max_len, include_empty=True):
    words = [""] if include_empty else []
    for n in range(1, max_len + 1):
        words.extend("".join(p) for p in itertools.product("xy", repeat=n))
    return words


def treealg_modules():
    """The imported modules of treealg, the package among them."""
    return [
        module for name, module in list(sys.modules.items())
        if name == "treealg" or name.startswith("treealg.")
    ]


def treealg_caches():
    """Every cached function and word table in the imported treealg modules,
    found by its ``cache_clear`` attribute (a class that defines one is not
    a cache), once each (the package re-exports some)."""
    return list({
        id(obj): obj
        for module in treealg_modules()
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and not isinstance(obj, type)
    }.values())


def patch_every_binding(monkeypatch, obj, replacement):
    """Bind ``replacement`` for the test wherever a treealg module binds
    ``obj``: the package re-exports names, and a module that imported a
    function calls it by its own binding."""
    for module in treealg_modules():
        for attr, value in list(vars(module).items()):
            if value is obj:
                monkeypatch.setattr(module, attr, replacement)


def clear_caches():
    """Empty every memo of treealg: each cached function, each word table
    of ``words`` and the coproduct table ``hopf._FOREST_DELTA``, which its
    worklist fills directly. ``Tree._pool`` and ``Forest._pool`` hold
    identity and are never cleared."""
    for fn in treealg_caches():
        fn.cache_clear()
    hopf._FOREST_DELTA.clear()


def forests_up_to(max_degree, include_empty=True):
    lo = 0 if include_empty else 1
    return [f for d in range(lo, max_degree + 1) for f in enumerate_forests(d)]


@pytest.fixture(scope="session")
def small_forests():
    return forests_up_to(4)


@pytest.fixture(scope="session")
def small_words():
    return all_words(4)
