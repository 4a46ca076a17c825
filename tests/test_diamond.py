import importlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from treealg import (
    Forest,
    HElem,
    LEAF,
    build_fmn,
    diamond,
    enumerate_forests,
    ladder,
    parse_forest,
    parse_poly,
    print_poly,
    sigma,
    sigma_forest,
    sigma_kernel,
)
from treealg.words import (
    Poly,
    Y,
    Z,
    coefficient_list,
    op_R,
    poly_from_list,
    words_ending_in_y,
)

from conftest import all_words, clear_caches

# the package attribute treealg.diamond is the function, not the module
diamond_module = importlib.import_module("treealg.diamond")


def word(w):
    return Poly.from_word(w)


class TestDiamondProduct:
    def test_unit(self):
        w = parse_poly("xy - 2yx")
        assert diamond(Poly.one(), w) == w
        assert diamond(w, Poly.one()) == w

    def test_one_step_recursions(self):
        assert diamond(word("y"), word("y")) == parse_poly("yy - xy")
        assert diamond(word("x"), word("y")) == parse_poly("yx + xy")

    def test_commutative(self):
        rng = random.Random(11)
        pool = all_words(4, include_empty=False)
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            assert diamond(word(a), word(b)) == diamond(word(b), word(a))

    def test_associative(self):
        rng = random.Random(13)
        pool = all_words(3, include_empty=False)
        for _ in range(200):
            a, b, c = (word(rng.choice(pool)) for _ in range(3))
            assert diamond(diamond(a, b), c) == diamond(a, diamond(b, c))

    def test_z_slides_through(self):
        # vz <> w = v <> wz = (v <> w)z
        rng = random.Random(17)
        pool = all_words(3)
        for _ in range(200):
            v, w = word(rng.choice(pool)), word(rng.choice(pool))
            left = diamond(v * Z, w)
            mid = diamond(v, w * Z)
            right = diamond(v, w) * Z
            assert left == mid == right

    def test_three_term_expansion(self):
        # (v z^(k-1) y) <> (w z^(l-1) y)
        #   = (v <> w z^(l-1) y) z^(k-1) y + (v z^(k-1) y <> w) z^(l-1) y
        #     - (v <> w) z^(k+l-1) y
        rng = random.Random(19)
        pool = all_words(2)
        for k in (1, 2, 3):
            for l in (1, 2, 3):
                for _ in range(25):
                    v, w = word(rng.choice(pool)), word(rng.choice(pool))
                    zk = Poly.one()
                    for _ in range(k - 1):
                        zk = zk * Z
                    zl = Poly.one()
                    for _ in range(l - 1):
                        zl = zl * Z
                    a = v * zk * Y
                    b = w * zl * Y
                    lhs = diamond(a, b)
                    rhs = (
                        diamond(v, b) * zk * Y
                        + diamond(a, w) * zl * Y
                        - diamond(v, w) * zk * zl * Z * Y
                    )
                    assert lhs == rhs

    def test_subalgebra_closure(self):
        rng = random.Random(23)
        pool = [w for w in all_words(4) if not w or w.endswith("y")]
        for _ in range(200):
            a, b = rng.choice(pool), rng.choice(pool)
            out = diamond(word(a), word(b))
            assert all(not w or w.endswith("y") for w in out.terms)

    def test_bilinearity(self):
        a = parse_poly("xy - y")
        b = parse_poly("2y + x")
        expected = (
            2 * diamond(word("xy"), word("y"))
            + diamond(word("xy"), word("x"))
            - 2 * diamond(word("y"), word("y"))
            - diamond(word("y"), word("x"))
        )
        assert diamond(a, b) == expected


class TestLongWords:
    def test_word_of_length_800(self):
        # x^n <> x = x^(n+1) - sum of x^k y x^(n-k) over 0 <= k < n; the
        # recursion on the long word nests deeper than the cache wrappers
        # allow unless long prefixes are filled first, which adds no entry:
        # one per pair (x^k, x), 1 <= k <= n
        n = 800
        expected = {"x" * k + "y" + "x" * (n - k): -1 for k in range(n)}
        expected["x" * (n + 1)] = 1
        clear_caches()
        try:
            assert diamond(word("x" * n), word("x")).terms == expected
            assert diamond(word("x"), word("x" * n)).terms == expected
            assert diamond_module._diamond_pair.cache_info().currsize == n
        finally:
            clear_caches()


class TestSigma:
    def test_leaf(self):
        assert sigma(HElem.from_forest(parse_forest("[]"))) == word("y")

    def test_two_chain(self):
        assert sigma_forest(ladder(2)) == parse_poly("xy + 2yy")

    def test_grafted_two_leaves(self):
        value = sigma_forest(parse_forest("[[][]]"))
        assert value == parse_poly("-xxy - 2xyy + yxy + 2yyy")
        # prefixing with x recovers the value of the tree's map on x
        assert print_poly(Poly.from_word("x") * value) == (
            "-xxxy - 2xxyy + xyxy + 2xyyy"
        )

    def test_unit_and_linearity(self):
        assert sigma(HElem.one()) == Poly.one()
        a = HElem.from_forest(parse_forest("[[]]"))
        b = HElem.from_forest(parse_forest("[] []"))
        assert sigma(a - 3 * b) == sigma(a) - 3 * sigma(b)

    def test_image_is_homogeneous_and_ends_in_y(self):
        for d in range(1, 6):
            for f in enumerate_forests(d):
                value = sigma_forest(f)
                assert value.homogeneous_degree() == d
                assert all(w.endswith("y") for w in value.terms)

    def test_homomorphism(self):
        rng = random.Random(29)
        pool = [f for d in range(1, 5) for f in enumerate_forests(d)]
        for _ in range(200):
            f, g = rng.choice(pool), rng.choice(pool)
            a, b = HElem.from_forest(f), HElem.from_forest(g)
            assert sigma(a * b) == diamond(sigma(a), sigma(b))


def reference_sigma(f, memo):
    """sigma by grafting (``op_R``) and the diamond product alone: a product
    of trees is the diamond product of the value of all its trees but the
    last with the value of the last, with no closed form for a leaf factor."""
    if f not in memo:
        if not f.trees:
            memo[f] = Poly.one()
        elif len(f.trees) == 1:
            t = f.trees[0]
            memo[f] = Y if t is LEAF else op_R(reference_sigma(t.child_forest(), memo))
        else:
            *init, last = f.trees
            memo[f] = diamond(
                reference_sigma(Forest(init), memo), reference_sigma(last.as_forest(), memo)
            )
    return memo[f]


class TestLeafRule:
    def test_against_grafting_and_diamond_alone(self):
        # sigma_forest takes sigma(leaf·u) = T sigma(u) by t_list and
        # other products by the dense product; the reference chains the
        # sparse diamond over the tree values
        memo = {}
        for d in range(9):
            for f in enumerate_forests(d):
                assert sigma_forest(f) == reference_sigma(f, memo), f

    def test_sigma_fills_no_diamond_memo(self):
        # leaf factors take T and other products the dense diamond product,
        # so the sparse word-pair memo stays empty
        clear_caches()
        try:
            for d in range(9):
                for f in enumerate_forests(d):
                    sigma_forest(f)
            assert sigma_forest.cache_info().currsize > 400
            assert diamond_module._diamond_pair.cache_info().currsize == 0
        finally:
            clear_caches()

    def test_sigma_of_a_combination_fills_no_poly_memo(self):
        # sigma sums the forest lists, so only _sigma_list is filled
        clear_caches()
        try:
            for total in range(2, 9):
                for m in range(1, total):
                    assert sigma(build_fmn(m, total - m)).is_zero()
            for vec in sigma_kernel(5):
                assert sigma(vec).is_zero()
            assert diamond_module._sigma_list.cache_info().currsize > 0
            assert sigma_forest.cache_info().currsize == 0
        finally:
            clear_caches()


@st.composite
def _in_V(draw, n):
    """v in V_n with int coefficients: a few words, or every word, plus pairs
    p·x·r, p·y·r of opposite coefficients, or of equal ones, whose
    contributions to some words of a product cancel."""
    vn = words_ending_in_y(n)
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        terms = {w: rng.choice([-3, -1, 1, 2, 5]) for w in vn}
    else:
        terms = draw(st.dictionaries(st.sampled_from(vn), st.integers(-3, 3), max_size=5))
    if n >= 2:
        pairs = st.tuples(st.integers(0, len(vn) - 1), st.integers(0, n - 2),
                          st.integers(-2, 2), st.booleans())
        for u, s, c, flip in draw(st.lists(pairs, max_size=3)):
            terms[vn[u & ~(1 << s)]] = c
            terms[vn[u | 1 << s]] = -c if flip else c
    return Poly(terms)


@st.composite
def dense_pairs(draw):
    """(a, v, b, w) with v in V_a, w in V_b and a + b <= 9."""
    a = draw(st.integers(1, 8))
    b = draw(st.integers(1, 9 - a))
    return a, draw(_in_V(a)), b, draw(_in_V(b))


class TestDenseDiamond:
    """``_diamond_dense`` against the sparse word recursion of ``diamond``."""

    @settings(max_examples=300, deadline=None)
    @given(dense_pairs())
    @example((1, Y, 1, Y))
    @example((2, Poly({"xy": 1, "yy": 1}), 3, Poly({"xxy": 2, "yxy": -2, "xyy": 1})))
    @example((4, Poly({}), 2, Poly({"xy": 1})))
    def test_equals_sparse_on_V(self, avbw):
        a, v, b, w = avbw
        out = diamond_module._diamond_dense(coefficient_list(v, a), coefficient_list(w, b))
        assert len(out) == 2 ** (a + b - 1)
        out, want = poly_from_list(out), diamond(v, w)
        assert out.terms == want.terms
        assert all(type(c) is int for c in out.terms.values())
        table = set(map(id, words_ending_in_y(a + b)))
        assert all(id(u) in table for u in out.terms)

    def test_ladder_products(self):
        for m in range(1, 10):
            for n in range(1, 11 - m):
                lm, ln = sigma_forest(ladder(m)), sigma_forest(ladder(n))
                out = diamond_module._diamond_dense(
                    coefficient_list(lm, m), coefficient_list(ln, n)
                )
                assert poly_from_list(out).terms == diamond(lm, ln).terms, (m, n)

    @pytest.mark.parametrize("v,a,w,b", [
        ("x", 1, "y", 1), ("xy + yx", 2, "y", 1), ("y", 1, "xyx", 3),
        ("y", 2, "y", 1), ("xy", 1, "y", 1), ("1", 1, "y", 1), ("y", 1, "xy", 3),
    ])
    def test_word_outside_V(self, v, a, w, b):
        # the lists are taken through coefficient_list, which refuses the word
        with pytest.raises(KeyError):
            diamond_module._diamond_dense(
                coefficient_list(parse_poly(v), a), coefficient_list(parse_poly(w), b)
            )

    def test_degree_zero(self):
        # an empty list has no degree n >= 1
        with pytest.raises(ValueError):
            diamond_module._diamond_dense([], [1])
