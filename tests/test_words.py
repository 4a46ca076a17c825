import itertools
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import all_words, clear_caches, follows_coefficient_rule

from treealg import words as words_module
from treealg.words import (
    APPEND_X,
    APPEND_Y,
    Y,
    _R_XY,
    _R_YY,
    add_difference,
    add_outer,
    coefficient_list,
    poly_from_list,
    r_list,
    t_list,
    words_ending_in_y,
)
from treealg import (
    Poly,
    PolySyntaxError,
    diamond,
    enumerate_forests,
    op_R,
    parse_poly,
    print_poly,
    sigma_forest,
)

words = st.text(alphabet="xy", max_size=5)
polys = st.dictionaries(words, st.integers(-4, 4), max_size=4).map(Poly)


class TestConcat:
    def test_unit(self):
        w = parse_poly("xy + 2yy")
        assert Poly.one() * w == w
        assert w * Poly.one() == w

    def test_words(self):
        assert parse_poly("xy") * parse_poly("y") == parse_poly("xyy")

    def test_bilinearity(self):
        assert parse_poly("x - y") * parse_poly("y") == parse_poly("xy - yy")

    @given(polys, polys, polys)
    def test_associative(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    @given(polys, polys, st.integers(0, 5))
    def test_against_the_plain_sum(self, a, b, n):
        # a has words of mixed lengths; its length-n part takes the product
        # built in one comprehension
        for left in (a, Poly({u: c for u, c in a.terms.items() if len(u) == n})):
            expected = {}
            for u, s in left.terms.items():
                for v, t in b.terms.items():
                    expected[u + v] = expected.get(u + v, 0) + s * t
            assert (left * b).terms == {w: c for w, c in expected.items() if c}

    def test_products_that_collide_or_cancel(self):
        # mixed left lengths: x.xx and xx.x are one word
        assert parse_poly("x + xx") * parse_poly("xx + x") == parse_poly("xx + 2xxx + xxxx")
        assert (parse_poly("x - xx") * parse_poly("xx + x")).terms == {"xx": 1, "xxxx": -1}


class TestRightOperators:
    def test_right_mul(self):
        assert parse_poly("x") * parse_poly("y") == parse_poly("xy")
        assert parse_poly("y") * parse_poly("x + 2y") == parse_poly(
            "yx + 2yy"
        )
        assert Poly.one() * parse_poly("xy") == parse_poly("xy")

    def test_op_R_examples(self):
        assert op_R(parse_poly("y")) == parse_poly("xy + 2yy")
        assert op_R(parse_poly("yy - xy")) == parse_poly(
            "-xxy - 2xyy + yxy + 2yyy"
        )

    def test_op_R_iterate_is_power(self):
        # R^m(y) = (x+2y)^m y, multiplying on the left at each step
        for m in range(5):
            expected = Poly.one()
            for _ in range(m):
                expected = expected * parse_poly("x + 2y")
            expected = expected * parse_poly("y")
            v = parse_poly("y")
            for _ in range(m):
                v = op_R(v)
            assert v == expected

    @given(
        st.dictionaries(
            st.text(alphabet="xy", max_size=4).map(lambda u: u + "y"),
            st.one_of(
                st.integers(-4, 4),
                st.fractions(max_denominator=4).filter(bool),
                st.sampled_from([Fraction(2), Fraction(-1)]),
            ),
            max_size=5,
        ).map(Poly)
    )
    def test_op_R_is_the_product_form(self, v):
        # the direct loop against R_y R_{x+2y} R_y^{-1} as two products
        x_plus_2y = Poly.from_word("x") + 2 * Poly.from_word("y")
        stripped = Poly({w[:-1]: c for w, c in v.terms.items()})
        expected = stripped * x_plus_2y * Poly.from_word("y")
        out = op_R(v)
        assert out.terms == expected.terms
        assert follows_coefficient_rule(out.terms.values())

    def test_op_R_rejects_term_not_ending_in_y(self):
        with pytest.raises(ValueError, match="does not end in y"):
            op_R(parse_poly("xy + yx"))
        with pytest.raises(ValueError, match="'1' does not end in y"):
            op_R(parse_poly("y + 1"))

    def test_op_R_preserves_y_ending_and_degree(self):
        rng = random.Random(3)
        pool = ["y", "xy", "yy", "xxy", "yxy", "xyy", "yyy"]
        for _ in range(50):
            w = rng.choice(pool)
            out = op_R(Poly.from_word(w))
            assert all(u.endswith("y") for u in out.terms)
            assert out.homogeneous_degree() == len(w) + 1


V_COEFFS = st.one_of(
    st.integers(-3, 3).filter(bool), st.fractions(-2, 2, max_denominator=3).filter(bool)
)


@st.composite
def v_polys(draw):
    """(n, v) with v in V_n, n <= 9: a few words, or every word of V_n, plus
    pairs p·x·r, p·y·r with equal coefficients, whose images cancel at p·xy·r."""
    n = draw(st.integers(1, 9))
    vn = words_ending_in_y(n)
    if draw(st.booleans()):
        rng = draw(st.randoms(use_true_random=False))
        terms = {w: rng.choice([-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3)]) for w in vn}
    else:
        terms = draw(st.dictionaries(st.sampled_from(vn), V_COEFFS, max_size=6))
    if n >= 2:
        pairs = st.tuples(st.integers(0, len(vn) - 1), st.integers(0, n - 2), V_COEFFS)
        for u, s, c in draw(st.lists(pairs, max_size=3)):
            terms[vn[u & ~(1 << s)]] = terms[vn[u | 1 << s]] = c
    return n, Poly(terms)


def _t_on(v, n):
    """T(v) for v in V_n by ``t_list``, back as a ``Poly``."""
    out = t_list(coefficient_list(v, n))
    assert len(out) == 2 ** n
    return poly_from_list(out)


class TestDenseT:
    # T on any polynomial is · ◇ y by definition: the sparse word recursion
    # of ``diamond`` is the reference
    def test_equals_diamond_with_y_on_sigma_values(self):
        for d in range(1, 9):
            for f in enumerate_forests(d):
                v = sigma_forest(f)
                out, want = _t_on(v, d), diamond(v, Y)
                assert out.terms == want.terms, f
                assert follows_coefficient_rule(out.terms.values())

    @settings(max_examples=300, deadline=None)
    @given(v_polys())
    def test_equals_diamond_with_y_on_V(self, nv):
        n, v = nv
        out, want = _t_on(v, n), diamond(v, Y)
        assert out.terms == want.terms
        assert follows_coefficient_rule(out.terms.values())
        assert follows_coefficient_rule(want.terms.values())
        table = set(map(id, words_ending_in_y(n + 1)))
        assert all(id(w) in table for w in out.terms)

    def test_cancelling_images(self):
        # T(xy) = yxy + xyy - xxy and T(yy) = yyy - xyy - yxy
        v = parse_poly("xy + yy")
        assert _t_on(v, 2).terms == diamond(v, Y).terms == {"xxy": -1, "yyy": 1}
        assert t_list([1, 1]) == [-1, 0, 0, 1]

    def test_fewer_of_blocks_and_strides(self, monkeypatch):
        # position i (s = n - 2 - i letters after it) takes min(2^i, 2^s)
        # steps of two map calls; the last letter takes one
        calls = []

        def counting_map(*args):
            calls.append(None)
            return map(*args)

        monkeypatch.setattr(words_module, "map", counting_map, raising=False)
        for n in range(1, 13):
            calls.clear()
            t_list([1] * 2 ** (n - 1))
            assert len(calls) == 1 + 2 * sum(min(2 ** (n - 2 - s), 2 ** s) for s in range(n - 1)), n


class TestLists:
    """The list forms against the sparse ``Poly`` forms, on V_n."""

    @pytest.mark.parametrize("scale", [1, Fraction(2, 3)])
    def test_r_list_is_op_R_on_every_word(self, scale):
        for n in range(1, 9):
            for i, w in enumerate(words_ending_in_y(n)):
                c = [0] * 2 ** (n - 1)
                c[i] = 3 * scale
                out, want = r_list(c), op_R(Poly.from_word(w, 3 * scale))
                assert out == coefficient_list(want, n + 1), w
                assert follows_coefficient_rule(poly_from_list(out).terms.values())
                assert follows_coefficient_rule(want.terms.values())

    def test_r_list_leaves_its_input(self):
        c = [1, -2]
        assert r_list(c) == [1, 2, -2, -4] and c == [1, -2]

    def test_round_trip(self):
        for n in range(1, 7):
            for f in enumerate_forests(n):
                v = sigma_forest(f)
                assert poly_from_list(coefficient_list(v, n)) == v

    def test_word_outside_V_n(self):
        for v, n in (("x", 1), ("yx", 2), ("xy", 3), ("1", 1)):
            with pytest.raises(KeyError):
                coefficient_list(parse_poly(v), n)


def _kernel_list(draw, size):
    """A list of ``size`` to ``size + 3`` coefficients in -3..3, zeros included."""
    rng = draw(st.randoms(use_true_random=False))
    return [rng.randint(-3, 3) for _ in range(size + draw(st.integers(0, 3)))]


@st.composite
def difference_boxes(draw):
    """(out, src, o, p, q, axes) for ``add_difference``: 1-3 axes (n, a, b)
    of up to 8 points, all of one length half of the time, strides 1-8."""
    k = draw(st.integers(1, 3))
    lengths = st.just(draw(st.integers(1, 8))) if draw(st.booleans()) else st.integers(1, 8)
    axes = [(draw(lengths), draw(st.integers(1, 8)), draw(st.integers(1, 8))) for _ in range(k)]
    o, p, q = (draw(st.integers(0, 8)) for _ in range(3))
    out = _kernel_list(draw, o + sum((n - 1) * a for n, a, _ in axes) + 1)
    src = _kernel_list(draw, max(p, q) + sum((n - 1) * b for n, _, b in axes) + 1)
    return out, src, o, p, q, axes


@st.composite
def outer_boxes(draw):
    """(out, d, h, ns, su, sh, off) for ``add_outer``: nu·ns entries of d,
    nh of h, each up to 8, strides su, sh of 1-8, zeros in both factors."""
    nu, nh, ns = (draw(st.integers(1, 8)) for _ in range(3))
    su, sh, off = draw(st.integers(1, 8)), draw(st.integers(1, 8)), draw(st.integers(0, 8))
    d = draw(st.lists(st.integers(-3, 3), min_size=nu * ns, max_size=nu * ns))
    h = draw(st.lists(st.integers(-3, 3), min_size=nh, max_size=nh))
    out = _kernel_list(draw, off + (nu - 1) * su + (nh - 1) * sh + ns)
    return out, d, h, ns, su, sh, off


class TestKernels:
    """The two strided kernels against a per-index loop over their box."""

    @settings(max_examples=200, deadline=None)
    @given(difference_boxes())
    @example(([0] * 64, list(range(64)), 1, 0, 1, [(4, 16, 8), (4, 1, 1)]))  # t_list, n = 6
    @example(([0] * 73, list(range(73)), 0, 0, 0, [(4, 1, 1), (4, 4, 2), (4, 16, 16)]))  # equal
    @example(([5], [1, 2], 0, 1, 0, [(1, 1, 1), (1, 2, 3), (1, 4, 5)]))  # one point
    def test_add_difference(self, box):
        out, src, o, p, q, axes = box
        want, before = list(out), list(src)
        for ks in itertools.product(*(range(n) for n, _, _ in axes)):
            oa = sum(k * a for k, (_, a, _) in zip(ks, axes))
            ob = sum(k * b for k, (_, _, b) in zip(ks, axes))
            want[o + oa] += src[p + ob] - src[q + ob]
        calls = []

        def counting_map(*args):
            calls.append(None)
            return map(*args)

        words_module.map = counting_map
        try:
            add_difference(out, src, o, p, q, axes)
        finally:
            del words_module.map
        assert out == want and src == before
        # one run, of two map calls, for each point of the shorter axes
        lengths = [n for n, _, _ in axes]
        assert len(calls) == 2 * math.prod(lengths) // max(lengths)

    @settings(max_examples=200, deadline=None)
    @given(outer_boxes())
    @example(([7], [2], [3], 1, 1, 1, 0))  # one point
    @example(([0] * 13, [0, 2, 0, -1], [3, 0, 0], 2, 6, 2, 1))  # zeros in d and h
    @example(([0] * 12, [0, 0], [0, 0, 0], 1, 4, 1, 0))  # all zero
    def test_add_outer(self, box):
        out, d, h, ns, su, sh, off = box
        want, before = list(out), (list(d), list(h))
        for u in range(len(d) // ns):
            for k in range(len(h)):
                for r in range(ns):
                    want[off + u * su + k * sh + r] += d[u * ns + r] * h[k]
        add_outer(out, d, h, ns, su, sh, off)
        assert out == want and (d, h) == before


class TestDegrees:
    def test_homogeneous_degree(self):
        assert parse_poly("xy - 2yx").homogeneous_degree() == 2
        assert parse_poly("xy + y").homogeneous_degree() is None
        assert parse_poly("3").homogeneous_degree() == 0
        assert Poly.zero().homogeneous_degree() == 0

    def test_max_degree(self):
        assert parse_poly("xy + 2 - yyx").max_degree() == 3
        assert Poly.zero().max_degree() == 0


class TestWordCounts:
    def test_y_ending_words(self):
        for d in range(1, 8):
            count = sum(
                1
                for p in itertools.product("xy", repeat=d)
                if p[-1] == "y"
            )
            assert count == 2 ** (d - 1)


class TestTextForm:
    def test_parse_simple(self):
        p = parse_poly("xyy - xxy")
        assert p.terms == {"xyy": 1, "xxy": -1}

    def test_parse_unit(self):
        assert parse_poly("1") == Poly.one()

    def test_canonical_print(self):
        assert print_poly(parse_poly("- x y y + 2*xy")) == "2xy - xyy"

    def test_print_orders_by_degree_then_lex(self):
        p = parse_poly("yy + xy + y + xx")
        assert print_poly(p) == "y + xx + xy + yy"

    def test_fractions(self):
        p = parse_poly("1/2 xy - 3/2")
        assert p.terms == {"xy": Fraction(1, 2), "": Fraction(-3, 2)}
        assert print_poly(p) == "-3/2 + 1/2xy"

    def test_round_trip(self):
        for text in ["0", "1", "-xy", "2xy - xyy", "x + y", "-1 + y"]:
            assert print_poly(parse_poly(print_poly(parse_poly(text)))) == print_poly(
                parse_poly(text)
            )

    @pytest.mark.parametrize("bad", ["", "  ", "x +", "*x", "xz", "x x +", "2/"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PolySyntaxError):
            parse_poly(bad)

    @pytest.mark.parametrize("bad", ["z", "xz", "x y", "X", "1"])
    def test_from_word_rejects_other_letters(self, bad):
        with pytest.raises(ValueError):
            Poly.from_word(bad)

    def test_from_word_accepts_words_over_x_y(self):
        assert Poly.from_word("").terms == {"": 1}
        assert Poly.from_word("xyx", -2).terms == {"xyx": -2}

    @pytest.mark.parametrize("bad", ["xz", "1", " x", b"xy", 3, None, ("x",)])
    def test_constructor_rejects_a_key_that_is_not_a_word(self, bad):
        # every key is checked, a zero coefficient's too
        for terms in ({bad: 1}, {"xy": 1, bad: 0}):
            with pytest.raises(ValueError, match="is not a word in x and y"):
                Poly(terms)

    def test_constructor_accepts_words_over_x_y(self):
        assert Poly({"": 1, "xy": 0, "yx": Fraction(4, 2)}).terms == {"": 1, "yx": 2}


class TestWordTables:
    def test_tables_are_concatenation(self):
        clear_caches()
        for _ in range(2):  # filled, then hit
            for u in all_words(8):
                for table, image in ((APPEND_X, u + "x"), (APPEND_Y, u + "y")):
                    assert table[u] == image
                    assert table[u] is sys.intern(image)
                uy = u + "y"
                assert (_R_XY[uy], _R_YY[uy]) == (u + "xy", u + "yy")
                assert _R_XY[uy] is sys.intern(u + "xy")
        assert APPEND_X.cache_info().currsize == len(all_words(8))
        clear_caches()
        assert all(t.cache_info().currsize == 0 for t in (APPEND_X, APPEND_Y, _R_XY, _R_YY))

    def test_r_tables_reject_a_word_not_ending_in_y(self):
        for table in (_R_XY, _R_YY):
            for w in ("", "x", "yx"):
                with pytest.raises(ValueError, match="does not end in y"):
                    table[w]
                assert w not in table
