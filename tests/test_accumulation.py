"""Differential tests: the in-place accumulating sums against the plain fold.

The reference below is the original formulation, kept on plain dicts: every
sum is ``out = out + c * p``, where ``+`` copies the whole left operand and
prunes zeros after each step, and the memo-free recursions follow the
definitions line by line. The library's diamond, sigma, rtm_apply and
coproduct must agree with it on the value of every coefficient, must hold no
zero coefficient, must follow the coefficient rule (an integral coefficient
is an int, any other a Fraction), and must return an equal result when
called again, so that a memo entry changed through an aliased accumulator
shows up.
"""
import functools
import importlib
import operator
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from treealg import hopf, lincomb, rtm
from treealg import (
    EMPTY_FOREST,
    HElem,
    LEAF,
    Poly,
    basis_forests,
    bplus,
    build_fmn,
    coproduct,
    decompose,
    diamond,
    enumerate_forests,
    forest_product,
    parse_forest,
    parse_helem,
    parse_poly,
    rtm_apply,
    sigma,
    sigma_forest,
    sigma_kernel,
    verify_fmn,
)

from treealg.words import op_R, poly_from_list, word_index

from conftest import (
    MIXED_CANCEL_FIRST,
    all_words,
    clear_caches,
    follows_coefficient_rule,
    forests_up_to,
    treealg_caches,
)

# the package attribute treealg.diamond is the function, not the module
diamond_module = importlib.import_module("treealg.diamond")

# --- reference: the plain fold on dicts ------------------------------------


def _plus(a, b):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _scaled(s, a):
    return {k: s * c for k, c in a.items() if s * c}


def _product(a, b, combine):
    out = {}
    for u, x in a.items():
        for v, y in b.items():
            k = combine(u, v)
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def _tensor_combine(p, q):
    return (forest_product(p[0], q[0]), forest_product(p[1], q[1]))


def _append(p, letter):
    return {w + letter: c for w, c in p.items()}


_REF_DIAMOND = {}


def ref_diamond_words(a, b):
    if not a:
        return {b: 1}
    if not b:
        return {a: 1}
    if (a, b) not in _REF_DIAMOND:
        v, p = a[:-1], a[-1]
        w, q = b[:-1], b[-1]
        if p == "x" and q == "x":
            out = _plus(
                _append(ref_diamond_words(v, b), "x"),
                _scaled(-1, _append(ref_diamond_words(v + "y", w), "x")),
            )
        elif p == "x" and q == "y":
            out = _plus(
                _append(ref_diamond_words(v, b), "x"), _append(ref_diamond_words(a, w), "y")
            )
        elif p == "y" and q == "x":
            out = _plus(
                _append(ref_diamond_words(v, b), "y"), _append(ref_diamond_words(a, w), "x")
            )
        else:
            out = _plus(
                _append(ref_diamond_words(v, b), "y"),
                _scaled(-1, _append(ref_diamond_words(v + "x", w), "y")),
            )
        _REF_DIAMOND[(a, b)] = out
    return _REF_DIAMOND[(a, b)]


def ref_diamond(v, w):
    out = {}
    for a, ca in v.items():
        for b, cb in w.items():
            out = _plus(out, _scaled(ca * cb, ref_diamond_words(a, b)))
    return out


def ref_op_R(v):
    stripped = {}
    for w, c in v.items():
        assert w.endswith("y")
        stripped[w[:-1]] = c
    return _product(_product(stripped, {"x": 1, "y": 2}, operator.add), {"y": 1}, operator.add)


def ref_sigma_tree(t):
    return {"y": 1} if t is LEAF else ref_op_R(ref_sigma_forest(t.child_forest()))


def ref_sigma_forest(f):
    out = {"": 1}
    for t in f.trees:
        out = ref_diamond(out, ref_sigma_tree(t))
    return out


def ref_sigma(a):
    out = {}
    for f, c in a.items():
        out = _plus(out, _scaled(c, ref_sigma_forest(f)))
    return out


def ref_tree_coproduct(t):
    inner = ref_forest_coproduct(t.child_forest())
    lifted = {(f1, bplus(f2).as_forest()): c for (f1, f2), c in inner.items()}
    return _plus({(t.as_forest(), EMPTY_FOREST): 1}, lifted)


def ref_forest_coproduct(f):
    out = {(EMPTY_FOREST, EMPTY_FOREST): 1}
    for t in f.trees:
        out = _product(out, ref_tree_coproduct(t), _tensor_combine)
    return out


def ref_coproduct(a):
    out = {}
    for f, c in a.items():
        out = _plus(out, _scaled(c, ref_forest_coproduct(f)))
    return out


def ref_tree_on_x(t):
    return {"xy": 1} if t is LEAF else ref_op_R(ref_forest_on_word(t.child_forest(), "x"))


def ref_forest_on_word(f, w):
    if not f.trees:
        return {w: 1}
    if not w:
        return {}
    if len(w) == 1:
        if len(f.trees) == 1:
            on_x = ref_tree_on_x(f.trees[0])
            return on_x if w == "x" else _scaled(-1, on_x)
        head, rest = f.trees[0], type(f)(f.trees[1:])
        return ref_forest_on_poly(head.as_forest(), ref_forest_on_word(rest, w))
    out = {}
    for (f1, f2), c in ref_forest_coproduct(f).items():
        left = ref_forest_on_word(f1, w[:-1])
        right = ref_forest_on_word(f2, w[-1])
        if left and right:
            out = _plus(out, _scaled(c, _product(left, right, operator.add)))
    return out


def ref_forest_on_poly(f, p):
    out = {}
    for w, c in p.items():
        out = _plus(out, _scaled(c, ref_forest_on_word(f, w)))
    return out


def ref_rtm_apply(f, w):
    out = {}
    for forest, c in f.items():
        out = _plus(out, _scaled(c, ref_forest_on_poly(forest, w)))
    return out


# --- inputs ------------------------------------------------------------------

# Integers and fractions, including a Fraction with denominator 1, which the
# coefficient rule makes an int.
COEFFS = st.sampled_from([-2, -1, 1, 2, 3, Fraction(1, 2), Fraction(-1, 2), Fraction(2)])
WORDS = st.sampled_from(all_words(3))
FORESTS = st.sampled_from(forests_up_to(4))


def _cancelling(keys, extra):
    """Combinations p - q (+ extra terms) and q + p: their products
    contain p*q - q*p, which cancels exactly for a commutative product."""
    return st.tuples(keys, keys, COEFFS, st.dictionaries(keys, COEFFS, max_size=extra)).map(
        lambda t: ({t[0]: t[2], t[1]: -t[2], **t[3]}, {t[1]: t[2], t[0]: t[2]})
    )


LONG_WORDS = st.sampled_from(all_words(5, include_empty=False))


def polys(extra=3):
    return st.dictionaries(WORDS, COEFFS, max_size=extra).map(Poly)


long_polys = st.dictionaries(LONG_WORDS, COEFFS, min_size=1, max_size=3).map(Poly)


def helems(extra=3):
    return st.dictionaries(FORESTS, COEFFS, max_size=extra).map(HElem)


def _assert_matches(compute, args, expected):
    """compute(*args) against the plain fold ``expected``: equal values, no
    zero coefficient, the coefficient rule, and an equal result again."""
    result = compute(*args)
    assert result.terms == expected
    assert all(result.terms.values())
    assert follows_coefficient_rule(result.terms.values())
    again = compute(*args)
    assert again == result
    assert follows_coefficient_rule(again.terms.values())


RELATIONS = [build_fmn(m, n) for m, n in [(1, 1), (1, 2), (2, 2), (1, 3)]]

# Fraction inputs, summed as int numerators over one common denominator:
# Fraction(2), which the constructor makes the int 2, mixed denominators 1/2,
# 1/3 and 5/6, and the relation f_{2,2} scaled by 1/3, whose sigma and value
# on x cancel exactly.
LEAF_F = LEAF.as_forest()
TWO_LEAVES = forest_product(LEAF_F, LEAF_F)
LADDER_TWO = bplus(LEAF_F).as_forest()
MIXED_DENOMINATORS = HElem(
    {LEAF_F: Fraction(2), TWO_LEAVES: Fraction(1, 2), LADDER_TWO: Fraction(-1, 3),
     bplus(LADDER_TWO).as_forest(): Fraction(5, 6)}
)
THIRD_OF_RELATION = HElem(
    {LEAF_F: Fraction(5, 6), **{f: Fraction(c, 3) for f, c in build_fmn(2, 2).terms.items()}}
)


class TestAgainstFold:
    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.tuples(polys(), polys()), _cancelling(WORDS, 2).map(
        lambda vw: (Poly(vw[0]), Poly(vw[1]))
    )))
    @example((Poly({"x": 1, "y": -1}), Poly({"x": 1, "y": 1})))
    @example((Poly({"xy": Fraction(1, 2), "yx": Fraction(-1, 2)}), Poly({"yx": 2, "xy": 2})))
    @example((Poly({"x": Fraction(2), "yx": Fraction(1, 3)}),
              Poly({"xy": Fraction(5, 6), "y": Fraction(1, 2)})))
    @example((Poly({"x": Fraction(1, 3), "y": Fraction(-1, 3), "xy": Fraction(5, 6)}),
              Poly({"y": Fraction(1, 3), "x": Fraction(1, 3)})))
    @example((Poly({"x": Fraction(1, 3)}), Poly({"y": 1, "xy": Fraction(1, 2)})))
    @example((Poly({"yx": 2, "x": -1}), Poly({"xx": Fraction(2), "y": Fraction(5, 6)})))
    def test_diamond(self, vw):
        v, w = vw
        _assert_matches(diamond, (v, w), ref_diamond(v.terms, w.terms))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(helems(), st.sampled_from(RELATIONS + sigma_kernel(4))))
    @example(HElem({forest_product(LEAF.as_forest(), LEAF.as_forest()): 1}))
    @example(MIXED_DENOMINATORS)
    @example(THIRD_OF_RELATION)
    @example(HElem({TWO_LEAVES: Fraction(2), LADDER_TWO: Fraction(-1)}))
    @example(MIXED_CANCEL_FIRST)
    def test_sigma(self, a):
        _assert_matches(sigma, (a,), ref_sigma(a.terms))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(helems(2), st.sampled_from(RELATIONS)), polys(2))
    @example(MIXED_DENOMINATORS, Poly({"x": 1, "yx": Fraction(5, 6)}))
    @example(THIRD_OF_RELATION, Poly({"x": Fraction(2), "xy": Fraction(1, 2)}))
    @example(HElem({f: Fraction(c, 2) for f, c in build_fmn(2, 2).terms.items()}), Poly({"x": 1}))
    @example(HElem({bplus(LADDER_TWO).as_forest(): -2, forest_product(TWO_LEAVES, LEAF_F): -2}),
             Poly({"xx": Fraction(1, 2), "xy": -2}))
    def test_rtm_apply(self, f, w):
        _assert_matches(rtm_apply, (f, w), ref_rtm_apply(f.terms, w.terms))

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(helems(), st.sampled_from(RELATIONS)))
    @example(
        HElem({forest_product(LEAF.as_forest(), LEAF.as_forest()): 1,
               bplus(LEAF.as_forest()).as_forest(): -2})
    )
    @example(MIXED_DENOMINATORS)
    @example(THIRD_OF_RELATION)
    @example(HElem({TWO_LEAVES: Fraction(1, 2), LADDER_TWO: Fraction(-1), LEAF_F: Fraction(1, 3)}))
    def test_coproduct(self, a):
        _assert_matches(coproduct, (a,), ref_coproduct(a.terms))

    def test_cancellations_occur(self):
        # the inputs above do reach exact cancellation
        assert sigma(build_fmn(2, 2)).is_zero()
        assert ref_sigma(build_fmn(2, 2).terms) == {}
        both = HElem({forest_product(LEAF.as_forest(), LEAF.as_forest()): 1,
                      bplus(LEAF.as_forest()).as_forest(): -2})
        assert (LEAF.as_forest(), LEAF.as_forest()) not in coproduct(both).terms
        assert diamond(Poly({"x": 1, "y": -1}), Poly({"x": 1, "y": 1})) == diamond(
            Poly.from_word("x"), Poly.from_word("x")
        ) - diamond(Poly.from_word("y"), Poly.from_word("y"))


# --- the coefficient rule on the results the fold tests do not reach --------

HALF = Fraction(1, 2)

# Each result could hold an integral Fraction; its expected terms, keys as text.
RULE_CASES = {
    "plus": (lambda: Poly({"x": HALF, "y": 1}) + Poly({"x": HALF}), {"x": 1, "y": 1}),
    "minus": (lambda: Poly({"x": Fraction(3, 2)}) - Poly({"x": HALF, "y": HALF}),
              {"x": 1, "y": -HALF}),
    "scalar": (lambda: Fraction(2, 3) * Poly({"x": Fraction(3, 2), "y": HALF}),
               {"x": 1, "y": Fraction(1, 3)}),
    "poly_times_poly": (lambda: Poly({"x": HALF}) * Poly({"y": 2, "x": HALF}),
                        {"xy": 1, "xx": Fraction(1, 4)}),
    "op_R": (lambda: op_R(Poly({"y": HALF})), {"xy": HALF, "yy": 1}),
    "poly_from_list": (lambda: poly_from_list([Fraction(2), HALF]), {"xy": 2, "yy": HALF}),
    "parse_poly": (lambda: parse_poly("1/2 x + 1/2 x - 1/3 y"), {"x": 1, "y": Fraction(-1, 3)}),
    "parse_helem": (lambda: parse_helem("1/2*[] + 1/2*[] + 1/3*[[]]"),
                    {"[]": 1, "[[]]": Fraction(1, 3)}),
    "decompose": (lambda: decompose(parse_helem("[] [[]] - 1/2*[[[]]] + 1/2*[[][]]"), 3),
                  {"[[[]]]": -HALF, "[[][]]": HALF, "[] [[]]": 1, "[] [] []": 0}),
    "sigma_kernel": (lambda: sigma_kernel(4)[0],
                     {"[[[][]]]": -1, "[[][[]]]": 2, "[[][][]]": -1, "[[]] [[]]": -1,
                      "[] [[][]]": 1}),
}


@pytest.mark.parametrize("name", RULE_CASES)
def test_coefficient_rule(name):
    compute, want = RULE_CASES[name]
    result = compute()
    terms = getattr(result, "terms", result)
    assert {getattr(k, "encoding", k): c for k, c in terms.items()} == want
    assert follows_coefficient_rule(terms.values())


# --- the z-identity behind the rtm letter step -------------------------------

Z_TERMS = {"x": 1, "y": 1}
NONEMPTY_FORESTS = st.sampled_from(forests_up_to(4, include_empty=False))


class TestZIdentity:
    """f(wz) = f(w)z and f(zw) = zf(w) for z = x + y and a nonempty forest f,
    checked on the memo-free reference alone. The rtm letter step computes
    f(vy) as f(v)z - f(vx), which is the first identity."""

    @settings(max_examples=40, deadline=None)
    @given(NONEMPTY_FORESTS, st.sampled_from(all_words(4)))
    def test_right_factor(self, f, w):
        assert ref_forest_on_poly(f, Z_TERMS) == {}  # f(z) = 0
        assert ref_forest_on_poly(f, {w + "x": 1, w + "y": 1}) == _product(
            ref_forest_on_word(f, w), Z_TERMS, operator.add
        )

    @settings(max_examples=40, deadline=None)
    @given(NONEMPTY_FORESTS, st.sampled_from(all_words(4)))
    def test_left_factor(self, f, w):
        assert ref_forest_on_poly(f, {"x" + w: 1, "y" + w: 1}) == _product(
            Z_TERMS, ref_forest_on_word(f, w), operator.add
        )


class TestColdAndWarm:
    """rtm_apply, sigma and coproduct against the reference from empty memo
    tables, then again from the tables the first call filled: an entry that
    is wrong, stored before it is complete or changed after it is stored
    shows up in one of the two."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(helems(2), st.sampled_from(RELATIONS)),
        st.dictionaries(st.sampled_from(all_words(5)), COEFFS, max_size=2).map(Poly),
    )
    @example(HElem({bplus(LEAF.as_forest()).as_forest(): 1}), Poly({"xyxyy": 1}))
    def test_rtm_apply(self, f, w):
        expected = ref_rtm_apply(f.terms, w.terms)
        clear_caches()
        # the first call runs cold, the second from the filled tables
        _assert_matches(rtm_apply, (f, w), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.tuples(long_polys, long_polys), _cancelling(LONG_WORDS, 2).map(
        lambda vw: (Poly(vw[0]), Poly(vw[1]))
    )))
    @example((Poly({"xyx": 1}), Poly({"yxy": -2})))
    @example((Poly({"yxxy": 1, "xy": 3}), Poly({"xyyx": 1, "yx": Fraction(1, 2)})))
    def test_diamond_both_orders(self, vw):
        v, w = vw
        expected, flipped = ref_diamond(v.terms, w.terms), ref_diamond(w.terms, v.terms)
        assert flipped == expected
        clear_caches()
        _assert_matches(diamond, (v, w), expected)
        _assert_matches(diamond, (w, v), flipped)

    def test_clear_caches_empties_every_memo(self):
        verify_fmn(2, 3)
        rtm_apply(build_fmn(2, 2), Poly.from_word("xyx"))
        basis_forests(4)
        enumerate_forests(3)
        decompose(HElem.from_forest(parse_forest("[] [[]]")), 3)
        diamond(Poly.from_word("xy"), Poly.from_word("yx"))
        # sigma of a combination fills no sigma_forest entry, and decompose
        # no word_index entry: call them themselves
        sigma_forest(LADDER_TWO)
        word_index(2)
        names = {fn.__name__: fn for fn in treealg_caches()}
        assert set(names) >= {
            "_diamond_pair", "sigma_forest", "_on_word", "_right_factors", "_on_x",
            "_groups_on_x", "_vanishes_on_x", "_sigma_list", "_pieces",
            "ladder", "enumerate_trees", "enumerate_forests", "basis_forests", "_k_system",
            "APPEND_X", "APPEND_Y", "_R_XY", "_R_YY", "words_ending_in_y", "word_index",
        }
        assert all(fn.cache_info().currsize for fn in names.values())
        assert hopf._FOREST_DELTA
        clear_caches()
        assert all(fn.cache_info().currsize == 0 for fn in treealg_caches())
        assert not hopf._FOREST_DELTA
        # the pools of interned trees and forests are kept
        assert parse_forest("[]").trees[0] is LEAF

    def test_one_diamond_memo_entry_per_unordered_pair(self):
        # every pair of nonempty words up to length 4 in one order: the
        # recursion stays inside the pool, so each unordered pair is one entry
        clear_caches()
        pool = all_words(4, include_empty=False)
        pairs = [(a, b) for i, a in enumerate(pool) for b in pool[i:]]
        for a, b in pairs:
            diamond(Poly.from_word(a), Poly.from_word(b))
        info = diamond_module._diamond_pair.cache_info()
        assert info.currsize == len(pairs)
        # the reverse-order calls add no entry and no miss
        for a, b in pairs:
            diamond(Poly.from_word(b), Poly.from_word(a))
        after = diamond_module._diamond_pair.cache_info()
        assert (after.currsize, after.misses) == (info.currsize, info.misses)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(helems(), st.sampled_from(RELATIONS + sigma_kernel(4))))
    @example(HElem({bplus(forest_product(LEAF.as_forest(), LEAF.as_forest())).as_forest(): 1}))
    def test_sigma(self, a):
        expected = ref_sigma(a.terms)
        clear_caches()
        _assert_matches(sigma, (a,), expected)

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(helems(), st.sampled_from(RELATIONS)))
    @example(HElem({forest_product(LEAF.as_forest(), bplus(LEAF.as_forest()).as_forest()): 1}))
    def test_coproduct(self, a):
        expected = ref_coproduct(a.terms)
        clear_caches()
        _assert_matches(coproduct, (a,), expected)


# --- a combination as one map against the sum over its forests --------------

INT_COEFFS = st.sampled_from([-2, -1, 1, 2, 3])
FRACTION_COEFFS = st.sampled_from(
    [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-5, 6), Fraction(1, 3)]
)
# all int; Fraction (Fraction(2) becomes an int); mixed
ALL_COEFFS = (INT_COEFFS, FRACTION_COEFFS, COEFFS)


def _combinations(coeffs):
    """Two or more forests; or a relation or kernel vector, scaled, which
    cancels in the coproduct; or, from ``_cancelling``, p - q + extra
    terms, which cancels in the combination itself when p = q."""
    return st.one_of(
        st.dictionaries(FORESTS, coeffs, min_size=2, max_size=4).map(HElem),
        st.tuples(st.sampled_from(RELATIONS + sigma_kernel(4)), coeffs).map(
            lambda t: t[1] * t[0]
        ),
        _cancelling(FORESTS, 2).map(lambda pq: HElem(pq[0])),
    )


def _polys(coeffs):
    return st.dictionaries(st.sampled_from(all_words(4)), coeffs, max_size=3).map(Poly)


def per_forest_sum(f, w):
    """sum of c * rtm_apply(forest, w) over the terms c * forest of f,
    folded forest by forest as the plain fold does."""
    out = {}
    for forest, c in f.terms.items():
        out = _plus(out, _scaled(c, rtm_apply(HElem({forest: 1}), w).terms))
    return out


class TestCombinationAsOneMap:
    """rtm_apply of a combination of forests, evaluated as one map whatever
    its coefficients, against the sum of its forests' values: equal values
    and the coefficient rule, cold and then warm."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(*map(_combinations, ALL_COEFFS)),
        st.one_of(*map(_polys, ALL_COEFFS)),
    )
    @example(HElem({bplus(LADDER_TWO).as_forest(): -2, forest_product(TWO_LEAVES, LEAF_F): -2}),
             Poly({"xx": Fraction(1, 2), "xy": -2}))
    @example(THIRD_OF_RELATION, Poly({"xyx": 1, "y": Fraction(1, 2)}))
    @example(3 * build_fmn(2, 2), Poly({"xxy": 2, "yx": -1}))
    @example(HElem({**build_fmn(1, 3).terms, LEAF_F: Fraction(1, 2)}), Poly({"xx": 1}))
    @example(MIXED_CANCEL_FIRST, Poly({"xy": 2, "y": Fraction(1, 3)}))
    def test_cold_then_warm(self, f, w):
        expected = per_forest_sum(f, w)
        clear_caches()
        _assert_matches(rtm_apply, (f, w), expected)
        if len(f.terms) > 1:
            # the one map, keyed by the int numerators, holds every word of w
            key = frozenset(lincomb.numerators(f.terms)[0].items())
            misses = rtm._on_word.cache_info().misses
            for u in w.terms:
                rtm._on_word(key, u)
            assert rtm._on_word.cache_info().misses == misses


# --- lincomb.sum_lists against the plain fold --------------------------------


def _triples(coeffs):
    """Up to eight (key, v, c) triples; the lists of key k have 2^k entries."""
    return st.lists(
        st.tuples(st.integers(0, 2), st.lists(st.integers(-3, 3), min_size=4, max_size=4), coeffs),
        max_size=8,
    ).map(lambda ts: [(k, v[:1 << k], c) for k, v, c in ts])


SHARED = [1, -2, 0, 3]


class TestSumLists:
    """``sum_lists`` against the plain fold of c * v, entry by entry, with
    zero sums dropped: equal values, equal types for int coefficients, and
    the input lists, which may be memo values, left as they were."""

    @settings(max_examples=100, deadline=None)
    @given(st.one_of(*map(_triples, ALL_COEFFS)))
    @example([(2, SHARED, 1), (2, SHARED, 1), (2, SHARED, -2)])
    @example([(1, [1, 2], Fraction(1, 2)), (1, [-1, 0], Fraction(1, 2)), (1, [0, 1], -1)])
    @example([(0, [1], 2), (0, [1], Fraction(2)), (0, [1], -4)])
    def test_against_fold(self, triples):
        before = [list(v) for _, v, _ in triples]
        expected = {}
        for k, v, c in triples:
            expected = _plus(expected, _scaled(c, {(k, i): e for i, e in enumerate(v) if e}))
        sums = lincomb.sum_lists(triples)
        got = {(k, i): e for k, col in sums.items() for i, e in enumerate(col) if e}
        assert got == expected
        if all(type(c) is int for _, _, c in triples):
            assert {k: type(e) for k, e in got.items()} == {
                k: type(e) for k, e in expected.items()
            }
        assert set(sums) == {k for k, _, _ in triples}
        assert all(len(col) == 1 << k for k, col in sums.items())
        assert [v for _, v, _ in triples] == before
        assert not any(col is v for col in sums.values() for _, v, _ in triples)


# --- one interned str per word in every memo ----------------------------------


def _fresh(w):
    """An equal str that is a new object (one-letter words are shared)."""
    return (w + ".")[:-1]


def _words_in(value):
    if isinstance(value, Poly):
        yield from value.terms
    elif isinstance(value, dict):
        yield from (k for k in value if type(k) is str)
    elif isinstance(value, (tuple, list)):
        for v in value:
            yield from _words_in(v)


class TestInternedWords:
    def test_every_memo_word_is_the_interned_str(self, monkeypatch):
        # each functools.cache of treealg is swapped, under every name that
        # binds it, for a cache that also keeps its values; the bodies call
        # their memos by module name, so the recursion fills the new caches
        clear_caches()
        values = []

        def recording(body):
            def record(*args):
                out = body(*args)
                values.append(out)
                return out
            return functools.cache(record)

        memos = {id(fn): recording(fn.__wrapped__)
                 for fn in treealg_caches() if hasattr(fn, "__wrapped__")}
        for name, module in list(sys.modules.items()):
            if name == "treealg" or name.startswith("treealg."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in memos:
                        monkeypatch.setattr(module, attr, memos[id(obj)])
        for m in range(1, 6):
            for n in range(1, 7 - m):
                assert verify_fmn(m, n).all_ok
        for f in forests_up_to(5):
            sigma(HElem.from_forest(f))
        words = Poly({_fresh(w): 1 for w in all_words(4)})
        for f in forests_up_to(3):
            rtm_apply(HElem.from_forest(f), words)
        mixed = HElem({EMPTY_FOREST: 1, LEAF_F: Fraction(1, 2), LADDER_TWO: Fraction(-1, 3)})
        rtm_apply(mixed, words)
        diamond(Poly.from_word(_fresh("xyxy")), Poly({_fresh("yxy"): 1, "": 2}))
        seen = {}
        for w in _words_in(values):
            assert seen.setdefault(w, w) is w
            assert sys.intern(_fresh(w)) is w
        assert len(seen) > 200
