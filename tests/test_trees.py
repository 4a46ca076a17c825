import copy
import pickle

import pytest
from hypothesis import given, strategies as st

from treealg import (
    EMPTY_FOREST,
    Forest,
    ForestSyntaxError,
    LEAF,
    bplus,
    count_forests,
    count_trees,
    enumerate_forests,
    enumerate_trees,
    forest_product,
    ladder,
    parse_forest,
)

TREE_COUNTS = [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def trees_strategy(max_depth=4):
    return st.recursive(
        st.just(LEAF),
        lambda kids: st.lists(kids, max_size=3).map(lambda ks: bplus(Forest(ks))),
        max_leaves=6,
    )


class TestParsing:
    def test_empty_forest_token(self):
        assert parse_forest("1") is not None
        assert parse_forest("1") == EMPTY_FOREST

    def test_degree_four_tree(self):
        f = parse_forest("[[][[]]]")
        assert f.degree == 4
        (t,) = f.trees
        assert [c.degree for c in t.children] == [1, 2]

    def test_child_order_insensitive(self):
        assert parse_forest("[[[]][]]") == parse_forest("[[][[]]]")

    def test_tree_order_insensitive(self):
        assert parse_forest("[[]] []") == parse_forest("[] [[]]")
        assert parse_forest("[[]] []").encoding == "[] [[]]"

    @pytest.mark.parametrize("bad", ["", "  ", "[", "]", "[]]", "[a]", "1 []", "[] 1"])
    def test_syntax_errors(self, bad):
        with pytest.raises(ForestSyntaxError):
            parse_forest(bad)

    def test_error_carries_position(self):
        with pytest.raises(ForestSyntaxError) as exc:
            parse_forest("[] x")
        assert exc.value.position == 3

    @pytest.mark.parametrize(
        "bad, message, position",
        [
            ("[[]", "unbalanced '['", 0),
            ("[] [[[]", "unbalanced '['", 4),
            ("[" * 1200, "unbalanced '['", 1199),
            ("[[] x", "unexpected character 'x'", 4),
            ("[]]", "unexpected character ']'", 2),
        ],
        ids=["nested", "second-tree", "deep", "character", "extra-close"],
    )
    def test_error_message_and_position(self, bad, message, position):
        with pytest.raises(ForestSyntaxError) as exc:
            parse_forest(bad)
        assert (exc.value.message, exc.value.position) == (message, position)

    def test_deep_nesting_does_not_recurse(self):
        assert parse_forest("[" * 1200 + "]" * 1200) is ladder(1200)

    def test_round_trip_small_degrees(self):
        for d in range(9):
            for f in enumerate_forests(d):
                assert parse_forest(f.encoding) == f

    @given(trees_strategy())
    def test_round_trip_random(self, t):
        f = t.as_forest()
        assert parse_forest(f.encoding) == f


class TestConstruction:
    def test_bplus_of_empty(self):
        assert bplus(EMPTY_FOREST) is LEAF

    def test_bplus_two_leaves(self):
        f = Forest((LEAF, LEAF))
        assert bplus(f).encoding == "[[][]]"
        assert bplus(f).degree == 3

    def test_bplus_mixed(self):
        f = forest_product(LEAF.as_forest(), ladder(2))
        assert bplus(f).encoding == "[[][[]]]"

    def test_bplus_injective(self):
        for d in range(6):
            images = {bplus(f).encoding for f in enumerate_forests(d)}
            assert len(images) == len(enumerate_forests(d))

    def test_product_unit_and_commutativity(self):
        a = parse_forest("[[]]")
        assert forest_product(a, EMPTY_FOREST) == a
        b = parse_forest("[]")
        assert forest_product(a, b) == forest_product(b, a)
        assert forest_product(a, b).encoding == "[] [[]]"

    def test_degrees(self):
        assert EMPTY_FOREST.degree == 0
        assert LEAF.as_forest().degree == 1
        assert parse_forest("[[][]] []").degree == 4

    @pytest.mark.parametrize(
        "n,expected", [(0, "1"), (1, "[]"), (2, "[[]]"), (4, "[[[[]]]]")]
    )
    def test_ladder(self, n, expected):
        assert ladder(n).encoding == expected

    def test_ladder_is_chain(self):
        t = ladder(5).trees[0]
        while t.children:
            assert len(t.children) == 1
            t = t.children[0]


class TestInterning:
    """Equal forests are the identical object, as equal trees are."""

    def test_parse_order_insensitive(self):
        assert parse_forest("[[]] []") is parse_forest("[] [[]]")

    def test_product_commutes_to_one_object(self):
        a, b = parse_forest("[[]]"), parse_forest("[] [[][]]")
        assert forest_product(a, b) is forest_product(b, a)
        assert forest_product(a, EMPTY_FOREST) is a

    def test_every_small_forest_is_interned(self):
        for d in range(9):
            for f in enumerate_forests(d):
                assert parse_forest(f.encoding) is f
                assert Forest(reversed(f.trees)) is f

    def test_copies_are_the_interned_objects(self):
        f = parse_forest("[] [[]] [[][[]]]")
        for copied in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
            assert copied is f
        (t,) = ladder(2).trees
        assert copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
        # the pool entries the copies went through are unchanged
        assert LEAF.encoding == "[]" and EMPTY_FOREST.encoding == "1"


class TestEnumeration:
    def test_tree_counts(self):
        for n, count in enumerate(TREE_COUNTS, start=1):
            assert len(enumerate_trees(n)) == count

    def test_forest_counts_shifted(self):
        for n in range(9):
            assert len(enumerate_forests(n)) == len(enumerate_trees(n + 1))

    def test_trees_unique_and_sorted(self):
        for n in range(1, 8):
            encs = [t.encoding for t in enumerate_trees(n)]
            assert encs == sorted(encs)
            assert len(set(encs)) == len(encs)

    def test_all_forests_have_requested_degree(self):
        for n in range(7):
            assert all(f.degree == n for f in enumerate_forests(n))

    def test_degree_three_forests(self):
        assert [f.encoding for f in enumerate_forests(3)] == [
            "[[[]]]",
            "[[][]]",
            "[] [[]]",
            "[] [] []",
        ]


class TestCounts:
    def test_counts_match_enumeration(self):
        for n in range(1, 11):
            assert count_trees(n) == len(enumerate_trees(n)) == TREE_COUNTS[n - 1]
        for n in range(13):
            assert count_forests(n) == len(enumerate_forests(n)) == count_trees(n + 1)

    def test_far_beyond_enumeration(self):
        # OEIS A000081
        assert count_trees(20) == 12826228
        assert count_trees(30) == 354426847597

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="tree degree must be >= 1"):
            count_trees(0)
        with pytest.raises(ValueError, match="forest degree must be >= 0"):
            count_forests(-1)
