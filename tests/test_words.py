import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from treealg import (
    Poly,
    PolySyntaxError,
    op_R,
    op_R_pow,
    parse_poly,
    print_poly,
    strip_y,
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


class TestRightOperators:
    def test_right_mul(self):
        assert parse_poly("x") * parse_poly("y") == parse_poly("xy")
        assert parse_poly("y") * parse_poly("x + 2y") == parse_poly(
            "yx + 2yy"
        )
        assert Poly.one() * parse_poly("xy") == parse_poly("xy")

    def test_strip_y(self):
        assert strip_y(parse_poly("xyy - xxy")) == parse_poly("xy - xx")
        assert strip_y(parse_poly("y")) == Poly.one()

    @pytest.mark.parametrize("bad", ["x", "1", "xy + x"])
    def test_strip_y_domain_error(self, bad):
        with pytest.raises(ValueError, match="does not end in y"):
            strip_y(parse_poly(bad))

    @given(polys)
    def test_strip_y_inverts_append(self, v):
        assert strip_y(v * parse_poly("y")) == v

    def test_append_inverts_strip(self):
        for n in range(1, 5):
            for w in itertools.product("xy", repeat=n - 1):
                v = Poly.from_word("".join(w) + "y")
                assert strip_y(v) * parse_poly("y") == v

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
            assert op_R_pow(m, parse_poly("y")) == expected

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
        expected = strip_y(v) * x_plus_2y * Poly.from_word("y")
        out = op_R(v)
        assert out.terms == expected.terms
        assert {w: type(c) for w, c in out.terms.items()} == {
            w: type(c) for w, c in expected.terms.items()
        }

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
