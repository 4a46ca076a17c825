import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from treealg import (
    HElem,
    build_fmn,
    diamond,
    enumerate_forests,
    enumerate_trees,
    parse_forest,
    parse_poly,
    rho_is_zero_on_x,
    rtm_apply,
    sigma_forest,
    sigma_kernel,
)
from treealg import rtm, value_on_x
from treealg.words import Poly, X, Y, Z, words_ending_in_y

from conftest import all_words, clear_caches, forests_up_to


def on(forest_text, poly_text):
    return rtm_apply(
        HElem.from_forest(parse_forest(forest_text)), parse_poly(poly_text)
    )


def on_x(f):
    return rtm_apply(HElem.from_forest(f), X).terms


class TestLetterValues:
    def test_leaf(self):
        assert on("[]", "x") == parse_poly("xy")
        assert on("[]", "y") == parse_poly("-xy")

    def test_two_leaves_on_x(self):
        assert on("[] []", "x") == parse_poly("xyy - xxy")

    def test_grafted_two_leaves_on_x(self):
        assert on("[[][]]", "x") == parse_poly("-xxxy - 2xxyy + xyxy + 2xyyy")

    def test_tree_on_letter_values(self):
        assert on("[]", "x") == parse_poly("xy")
        assert on("[[]]", "x") == parse_poly("xxy + 2xyy")
        assert on("[[][]]", "y") == parse_poly("xxxy + 2xxyy - xyxy - 2xyyy")


class TestStructure:
    def test_empty_forest_is_identity(self):
        w = parse_poly("xyx - 2y + 1")
        assert rtm_apply(HElem.one(), w) == w

    def test_nonempty_kills_constants(self):
        for d in range(1, 5):
            for f in enumerate_forests(d):
                assert rtm_apply(HElem.from_forest(f), Poly.one()).is_zero()

    def test_sign_symmetry(self):
        # every nonempty forest annihilates x + y
        for f in forests_up_to(5, include_empty=False):
            assert rtm_apply(HElem.from_forest(f), Z).is_zero()

    def test_linear_in_both_arguments(self):
        a = HElem.from_forest(parse_forest("[]"))
        b = HElem.from_forest(parse_forest("[[]]"))
        w = parse_poly("xy - y")
        assert rtm_apply(a + 2 * b, w) == rtm_apply(a, w) + 2 * rtm_apply(b, w)
        v = parse_poly("x + 3yx")
        assert rtm_apply(a, v + w) == rtm_apply(a, v) + rtm_apply(a, w)

    def test_grading(self):
        rng = random.Random(31)
        pool = forests_up_to(4, include_empty=False)
        words = all_words(3, include_empty=False)
        for _ in range(100):
            f = rng.choice(pool)
            w = rng.choice(words)
            out = rtm_apply(HElem.from_forest(f), Poly.from_word(w))
            if not out.is_zero():
                assert out.homogeneous_degree() == f.degree + len(w)

    def test_homomorphism(self):
        rng = random.Random(37)
        pool = forests_up_to(3)
        words = all_words(3)
        for _ in range(200):
            f, g = rng.choice(pool), rng.choice(pool)
            w = Poly.from_word(rng.choice(words))
            a, b = HElem.from_forest(f), HElem.from_forest(g)
            assert rtm_apply(a * b, w) == rtm_apply(a, rtm_apply(b, w))

    def test_decomposition_independence(self):
        # a three-leaf forest splits as leaf * (two leaves) either way round
        f3 = parse_forest("[] [] []")
        one_leaf = HElem.from_forest(parse_forest("[]"))
        two_leaves = HElem.from_forest(parse_forest("[] []"))
        for w in all_words(3):
            p = Poly.from_word(w)
            direct = rtm_apply(HElem.from_forest(f3), p)
            assert direct == rtm_apply(one_leaf, rtm_apply(two_leaves, p))
            assert direct == rtm_apply(two_leaves, rtm_apply(one_leaf, p))


class TestDerivedIdentities:
    def test_bridge_small(self):
        # f(xw) = x (sigma(f) <> w)
        for f in forests_up_to(4):
            elem = HElem.from_forest(f)
            value = sigma_forest(f)
            for w in all_words(3):
                p = Poly.from_word(w)
                assert rtm_apply(elem, X * p) == X * diamond(value, p)

    def test_recurrences(self):
        # f(yw) = (x+y) f(w) - f(xw);  f(wx) = f(w)(x+y) - f(wy)
        rng = random.Random(41)
        pool = forests_up_to(4, include_empty=False)
        words = all_words(3)
        for _ in range(200):
            f = HElem.from_forest(rng.choice(pool))
            w = Poly.from_word(rng.choice(words))
            assert rtm_apply(f, Y * w) == Z * rtm_apply(f, w) - rtm_apply(f, X * w)
            assert rtm_apply(f, w * X) == rtm_apply(f, w) * Z - rtm_apply(f, w * Y)


class TestZeroCertificate:
    def test_leaf_not_zero(self):
        assert not rho_is_zero_on_x(HElem.from_forest(parse_forest("[]")))

    def test_zero_element(self):
        f = HElem.from_forest(parse_forest("[] []"))
        assert rho_is_zero_on_x(f - f)

    def test_rejects_degree_zero_component(self):
        with pytest.raises(ValueError):
            rho_is_zero_on_x(HElem.one())
        with pytest.raises(ValueError, match="degree-0"):
            rho_is_zero_on_x(build_fmn(2, 2) + HElem.one())


class TestDenseOnX:
    def test_equals_rtm_apply_up_to_degree_8(self):
        # f(x) = xw, w in V_(deg f), on its coefficient list
        for f in forests_up_to(8, include_empty=False):
            words = ["x" + w for w in words_ending_in_y(f.degree)]
            dense = dict(zip(words, value_on_x._on_x(f)))
            assert {w: c for w, c in dense.items() if c} == on_x(f), f

    def test_one_lookup_per_relation_when_warm(self):
        rel = build_fmn(3, 4)
        assert rho_is_zero_on_x(rel)
        before = value_on_x._vanishes_on_x.cache_info()
        assert rho_is_zero_on_x(build_fmn(3, 4))
        after = value_on_x._vanishes_on_x.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# Forests of mixed degrees; combinations that vanish on x: relations and the
# kernel of sigma in degree 5 (f(x) = x sigma(f)); int, Fraction and mixed
# coefficients.
FORESTS = st.sampled_from(forests_up_to(5, include_empty=False))
RELATIONS = [build_fmn(m, t - m) for t in range(2, 8) for m in range(1, t)]
VANISHING = [f for f in RELATIONS if not f.is_zero()] + sigma_kernel(5)
INTS = st.sampled_from([-3, -1, 1, 2])
FRACTIONS = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(4), Fraction(-5, 6)])


@st.composite
def combinations(draw):
    coeffs = draw(st.sampled_from([INTS, FRACTIONS, st.one_of(INTS, FRACTIONS)]))
    acc = HElem.zero()
    for v in draw(st.lists(st.sampled_from(VANISHING), min_size=1, max_size=3)):
        acc = acc + draw(coeffs) * v
    extra = draw(st.dictionaries(FORESTS, coeffs, min_size=1, max_size=2))
    return acc + HElem(extra) if draw(st.booleans()) else acc


class TestZeroOnXAgainstRtmApply:
    @settings(max_examples=150, deadline=None)
    @given(combinations())
    @example(HElem.zero())
    @example(build_fmn(1, 2) + Fraction(1, 2) * build_fmn(2, 3))
    @example(Fraction(1, 3) * build_fmn(2, 3) + HElem.from_forest(parse_forest("[[]] []")))
    def test_agrees(self, f):
        assert rho_is_zero_on_x(f) == rtm_apply(f, X).is_zero()


class TestRelationsAsOneMap:
    def test_relations_vanish_on_short_words(self):
        for total in range(2, 8):
            for m in range(1, total):
                f = build_fmn(m, total - m)
                for w in all_words(3):
                    assert rtm_apply(f, Poly.from_word(w)).is_zero(), (m, total - m, w)

    def test_proper_cuts_of_f22_cancel(self):
        # every group of the coproduct of f_{2,2} with a nonempty right
        # factor sums to zero on x, so F(vx) = F(v)x
        f = build_fmn(2, 2)
        assert rtm_apply(f, Poly.from_word("xyx")).is_zero()
        assert rtm._right_factors(frozenset(f.terms.items())) == []


class TestLongWords:
    def test_word_of_length_800(self):
        # the leaf on x^n is the sum of x^k y x^(n-k) over 1 <= k <= n; the
        # recursion on the word nests deeper than the cache wrappers allow
        # unless long prefixes are filled first, which adds no entry: the
        # leaf on x^k for 1 <= k <= n, the empty forest for 1 <= k < n
        n = 800
        expected = {"x" * k + "y" + "x" * (n - k): 1 for k in range(1, n + 1)}
        clear_caches()
        try:
            assert on("[]", "x" * n).terms == expected
            assert rtm._on_word.cache_info().currsize == 2 * n - 1
        finally:
            clear_caches()
