import random

import pytest

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
)
from treealg import rtm
from treealg.words import Poly, X, Y, Z

from conftest import all_words, forests_up_to


def on(forest_text, poly_text):
    return rtm_apply(
        HElem.from_forest(parse_forest(forest_text)), parse_poly(poly_text)
    )


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
        assert rtm._RIGHT_FACTORS[frozenset(f.terms.items())] == []
