import itertools
import sys

import pytest

from treealg import enumerate_forests, hopf


def all_words(max_len, include_empty=True):
    words = [""] if include_empty else []
    for n in range(1, max_len + 1):
        words.extend("".join(p) for p in itertools.product("xy", repeat=n))
    return words


def treealg_caches():
    """Every cached function and word table in the imported treealg modules,
    found by its ``cache_clear`` attribute (a class that defines one is not
    a cache), once each (the package re-exports some)."""
    return list({
        id(obj): obj
        for name, module in list(sys.modules.items())
        if name == "treealg" or name.startswith("treealg.")
        for obj in vars(module).values()
        if hasattr(obj, "cache_clear") and not isinstance(obj, type)
    }.values())


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
