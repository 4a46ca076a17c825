import random

from treealg import (
    HElem,
    diamond,
    enumerate_forests,
    ladder,
    parse_forest,
    parse_poly,
    print_poly,
    sigma,
    sigma_forest,
)
from treealg.words import Poly, Y, Z

from conftest import all_words


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
