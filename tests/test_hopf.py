import random
from fractions import Fraction

import pytest

from treealg import (
    EMPTY_FOREST,
    Forest,
    HElem,
    TensorElem,
    bplus,
    coproduct,
    enumerate_forests,
    ladder,
    parse_forest,
    parse_helem,
    print_helem,
    print_tensor,
)


def helem(text):
    return parse_helem(text)


class TestAlgebra:
    def test_unit(self):
        a = helem("3*[[][]] + [] []")
        assert HElem.one() * a == a

    def test_bilinearity(self):
        a = helem("3*[[][]]")
        b = helem("[]")
        assert a * b == helem("3*[[][]] []")

    def test_additive_inverse(self):
        a = helem("[[]] - 2*[] []")
        assert (a + (-1) * a).is_zero()

    def test_scaling(self):
        a = helem("[[]]")
        assert Fraction(1, 2) * (2 * a) == a

    def test_homogeneous_degree(self):
        assert helem("[[]] + [] []").homogeneous_degree() == 2
        assert helem("[[]] + []").homogeneous_degree() is None
        assert HElem.zero().homogeneous_degree() == 0

    def test_max_degree(self):
        assert helem("[[]] + [] [] [] - 1").max_degree() == 3
        assert HElem.zero().max_degree() == 0

    # a tree is not a forest: its forest is bplus(...).as_forest()
    @pytest.mark.parametrize("bad", ["junk", "[]", bplus(EMPTY_FOREST), None, 1])
    def test_constructor_rejects_a_key_that_is_not_a_forest(self, bad):
        makers = [
            lambda: HElem({bad: 1}),
            lambda: HElem({EMPTY_FOREST: 1, bad: 0}),
            lambda: HElem.from_forest(bad),
        ]
        for make in makers:
            with pytest.raises(ValueError, match="HElem key .* is not a Forest"):
                make()

    def test_print_of_a_checked_element(self):
        # the junk key used to build, and then failed to print
        with pytest.raises(ValueError):
            print_helem(HElem({"junk": 1}))
        assert print_helem(HElem({parse_forest("[]"): 1, EMPTY_FOREST: 0})) == "[]"


class TestTextForm:
    def test_parse_print_round_trip(self):
        # input component order is free; printing is canonical
        text = "3*[[][]] + 8*[[][]] []"
        canonical = "3*[[][]] + 8*[] [[][]]"
        assert print_helem(parse_helem(text)) == canonical
        assert print_helem(parse_helem(canonical)) == canonical

    def test_signs_and_units(self):
        assert print_helem(helem("- [[]] + 2*[]")) == "2*[] - [[]]"
        assert print_helem(HElem.zero()) == "0"
        assert print_helem(helem("0")) == "0"

    def test_constant_term(self):
        e = helem("3")
        assert e.terms == {EMPTY_FOREST: 3}

    def test_fraction_coefficient(self):
        e = helem("1/2*[]")
        assert e.terms[parse_forest("[]")] == Fraction(1, 2)


class TestCoproduct:
    @pytest.mark.parametrize(
        "forest,expected",
        [
            ("1", "(1 (x) 1)"),
            ("[]", "([] (x) 1) + (1 (x) [])"),
            ("[[]]", "([[]] (x) 1) + ([] (x) []) + (1 (x) [[]])"),
            ("[] []", "([] [] (x) 1) + 2*([] (x) []) + (1 (x) [] [])"),
            (
                "[[][]]",
                "([[][]] (x) 1) + ([] [] (x) []) + 2*([] (x) [[]]) + (1 (x) [[][]])",
            ),
        ],
    )
    def test_small_goldens(self, forest, expected):
        assert print_tensor(coproduct(helem(forest))) == expected

    def test_linear(self):
        a, b = helem("[[]]"), helem("[] []")
        assert coproduct(a + 3 * b) == coproduct(a) + 3 * coproduct(b)

    def test_grading(self):
        for d in range(6):
            for f in enumerate_forests(d):
                for (f1, f2), c in coproduct(HElem.from_forest(f)).terms.items():
                    assert f1.degree + f2.degree == f.degree

    def test_not_cocommutative(self):
        delta = coproduct(helem("[[][]]"))
        assert delta != TensorElem({(b, a): c for (a, b), c in delta.terms.items()})

    def test_multiplicative(self):
        rng = random.Random(7)
        pool = [f for d in range(5) for f in enumerate_forests(d)]
        for _ in range(50):
            f, g = rng.choice(pool), rng.choice(pool)
            a, b = HElem.from_forest(f), HElem.from_forest(g)
            assert coproduct(a * b) == coproduct(a) * coproduct(b)

    def test_deep_ladder(self):
        # one stack frame per grafting level: depth 600 stays under the
        # interpreter's default recursion limit of 1000
        delta = coproduct(HElem.from_forest(ladder(600)))
        assert len(delta.terms) == 601
        assert delta.terms[(ladder(200), ladder(400))] == 1

    def test_values_and_term_order_match_the_recursion(self):
        # the memo is filled from a worklist; each value must equal the
        # recursive definition's, term order included
        for d in range(7):
            for f in enumerate_forests(d):
                got = coproduct(HElem.from_forest(f)).terms
                assert list(got.items()) == list(_recursive_delta(f).items())

    def test_coassociative_small(self):
        for d in range(6):
            for f in enumerate_forests(d):
                assert _triple_left(f) == _triple_right(f)


def _recursive_delta(f):
    if not f.trees:
        return {(EMPTY_FOREST, EMPTY_FOREST): 1}
    if len(f.trees) == 1:
        out = {(f, EMPTY_FOREST): 1}
        for (f1, f2), c in _recursive_delta(f.trees[0].child_forest()).items():
            out[(f1, bplus(f2).as_forest())] = c
        return out
    *init, last = f.trees
    left = TensorElem(_recursive_delta(Forest(init)))
    return (left * TensorElem(_recursive_delta(last.as_forest()))).terms


def _triple_left(f):
    out = {}
    for (f1, f2), c in coproduct(HElem.from_forest(f)).terms.items():
        for (g1, g2), e in coproduct(HElem.from_forest(f2)).terms.items():
            key = (f1, g1, g2)
            out[key] = out.get(key, 0) + c * e
    return {k: v for k, v in out.items() if v}


def _triple_right(f):
    out = {}
    for (f1, f2), c in coproduct(HElem.from_forest(f)).terms.items():
        for (g1, g2), e in coproduct(HElem.from_forest(f1)).terms.items():
            key = (g1, g2, f2)
            out[key] = out.get(key, 0) + c * e
    return {k: v for k, v in out.items() if v}


class TestTensorAlgebra:
    def test_unit(self):
        unit = TensorElem({(EMPTY_FOREST, EMPTY_FOREST): 1})
        u = coproduct(helem("[[]]"))
        assert unit * u == u

    def test_square_of_primitive_sum(self):
        u = coproduct(helem("[]"))
        assert u * u == coproduct(helem("[] []"))

    def test_componentwise(self):
        a = TensorElem({(parse_forest("[]"), parse_forest("[[]]")): 1})
        b = TensorElem({(parse_forest("[[]]"), parse_forest("[]")): 1})
        expected = TensorElem(
            {(parse_forest("[] [[]]"), parse_forest("[] [[]]")): 1}
        )
        assert a * b == expected
