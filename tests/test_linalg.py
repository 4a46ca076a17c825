import itertools
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from treealg import linalg
from treealg import (
    BitMatrix,
    HElem,
    RationalMatrix,
    basis_forests,
    basis_matrix,
    build_fmn,
    check_mod2_invertible,
    decompose,
    diamond,
    enumerate_forests,
    ladder,
    parse_forest,
    sigma,
    sigma_forest,
    sigma_kernel,
    words_ending_in_y,
)
from treealg.words import Poly, Y, word_index

from conftest import clear_caches, follows_coefficient_rule


class TestRationalMatrix:
    def test_rank_and_rref(self):
        m = RationalMatrix([[1, 2], [2, 4]])
        assert m.rank() == 1
        red, pivots = echelon_rref(m)
        assert pivots == [0]
        assert red[0] == [Fraction(1), Fraction(2)]

    def test_nullspace(self):
        m = RationalMatrix([[1, 1, 0], [0, 0, 1]])
        (v,) = m.nullspace()
        assert v == [Fraction(-1), Fraction(1), Fraction(0)]

    def test_entries_kept_as_given(self):
        m = RationalMatrix([[1, Fraction(1, 2)], [Fraction(4, 2), -3]])
        assert m.entries == [[1, Fraction(1, 2)], [2, -3]]
        assert [type(e) for e in m.entries[0]] == [int, Fraction]
        assert RationalMatrix([[3, Fraction(4, 2)], [0, -3]]).mod2().row_bits == [1, 2]

    def test_mod2_requires_integers(self):
        with pytest.raises(ValueError):
            RationalMatrix([[Fraction(1, 2)]]).mod2()


def reference_rref(rows, cols):
    """Plain Fraction Gauss-Jordan elimination, the reference that the
    fraction-free elimination must reproduce exactly."""
    m = [[Fraction(e) for e in row] for row in rows]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [e / m[r][c] for e in m[r]]
        for i in range(len(m)):
            factor = m[i][c]
            if i != r and factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


small_rationals = st.one_of(
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
)


small_ints = st.integers(-4, 4)


@st.composite
def matrices(draw, entries=small_rationals, cols=8):
    """0-8 rows by 1-``cols`` columns (wide and tall; with ``cols`` past 8,
    often more free columns than pivots). Rows past the first few
    independent draws are combinations of earlier rows or all-zero rows,
    which makes many of the matrices rank-deficient. Entries mix ints and
    Fractions unless ``entries`` draws ints only."""
    cols = draw(st.integers(1, cols))
    n = draw(st.integers(0, 8))
    rows = draw(
        st.lists(
            st.lists(entries, min_size=cols, max_size=cols),
            max_size=n,
        )
    )
    while len(rows) < n:
        if rows and draw(st.booleans()):
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            x, y = draw(entries), draw(entries)
            rows.append([x * u + y * v for u, v in zip(a, b)])
        else:
            rows.append([0] * cols)
    return RationalMatrix(draw(st.permutations(rows)))


def times(m, v):
    """m v, with int entries where m and v hold only ints."""
    return [sum(a * b for a, b in zip(row, v)) for row in m.entries]


def doubled(m):
    """2m: every entry even, so the GF(2) rank is 0 and any nonzero rank
    over Q must come from Bareiss elimination."""
    return RationalMatrix([[2 * e for e in row] for row in m.entries])


def gf2_rank(m):
    """The rank of m's parities, its rows scaled to integers first."""
    return linalg._parities(linalg._integer_rows(m.entries), m.cols).rank()


def echelon_rref(m):
    """The reduced row-echelon form read off the Bareiss echelon: each
    column back-substituted on the pivot rows and divided by the last
    pivot, then zero rows. This is the elimination that nullspace() and
    the fallback of rank() rely on."""
    e, pivots, d = linalg._echelon(m.entries)
    columns = [linalg._back_substitute(e, pivots, d, c) for c in range(m.cols)]
    red = [[Fraction(x, d) for x in row] for row in zip(*columns)]
    red += [[Fraction(0)] * m.cols for _ in range(m.rows - len(pivots))]
    return red, pivots


def check_rref(m):
    """The Bareiss echelon against the reference RREF: the same entries
    and pivots, every entry a Fraction."""
    red, pivots = echelon_rref(m)
    assert (red, pivots) == reference_rref(m.entries, m.cols)
    assert all(type(e) is Fraction for row in red for e in row)


def check_nullspace(m):
    """m.nullspace() against the kernel read off the reference RREF: one
    vector per free column, free entry 1, every entry a Fraction."""
    red, pivots = reference_rref(m.entries, m.cols)
    expected = []
    for fc in (c for c in range(m.cols) if c not in pivots):
        v = [Fraction(0)] * m.cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        expected.append(v)
    basis = m.nullspace()
    assert basis == expected
    assert all(type(e) is Fraction for v in basis for e in v)
    assert all(not any(times(m, v)) for v in basis)


class TestEliminationAgainstReference:
    @given(matrices())
    def test_rank(self, m):
        assert m.rank() == len(reference_rref(m.entries, m.cols)[1])

    @given(matrices(entries=small_ints))
    def test_rank_all_int(self, m):
        assert m.rank() == len(reference_rref(m.entries, m.cols)[1])

    @given(matrices(entries=small_ints).map(doubled))
    def test_rank_doubled(self, m):
        rank = len(reference_rref(m.entries, m.cols)[1])
        assert m.rank() == rank
        assert gf2_rank(m) == 0

    @given(matrices(cols=12))
    def test_rref(self, m):
        check_rref(m)

    @given(matrices(entries=small_ints, cols=12))
    def test_rref_all_int(self, m):
        check_rref(m)

    @given(matrices(cols=12))
    def test_nullspace(self, m):
        check_nullspace(m)

    @given(matrices(entries=small_ints, cols=12))
    def test_nullspace_all_int(self, m):
        check_nullspace(m)

    # each falls short of full rank over GF(2), so Bareiss gives the rank
    @pytest.mark.parametrize(
        "rows",
        [
            [[2]],
            [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
            [[1, 1], [1, -1]],
            [[Fraction(1, 2)] * 3, [1, -1, 1], [2, 0, 0]],
            [[2, 4, 6], [4, 8, 12], [0, 2, -4]],
        ],
    )
    def test_rank_past_the_gf2_certificate(self, rows):
        m = RationalMatrix(rows)
        rank = len(reference_rref(m.entries, m.cols)[1])
        assert m.rank() == rank
        assert gf2_rank(m) < rank

    @pytest.mark.parametrize("rows", [[], [[], []]])
    def test_rank_of_an_empty_matrix(self, rows):
        assert RationalMatrix(rows).rank() == len(reference_rref(rows, 0)[1]) == 0


class TestBitMatrix:
    def test_rank(self):
        # rows 11, 01 over GF(2)
        m = BitMatrix([0b11, 0b10], 2)
        assert m.rank() == 2
        assert m.is_invertible()

    def test_singular(self):
        m = BitMatrix([0b11, 0b11], 2)
        assert m.rank() == 1
        assert not m.is_invertible()


class TestBasisFamily:
    def test_degree_one(self):
        assert [f.encoding for f in basis_forests(1)] == ["[]"]

    def test_degree_two(self):
        assert [f.encoding for f in basis_forests(2)] == ["[[]]", "[] []"]

    def test_degree_three_exhausts_forests(self):
        assert basis_forests(3) == enumerate_forests(3)

    def test_sizes_and_degrees(self):
        for d in range(1, 9):
            fam = basis_forests(d)
            assert len(fam) == 2 ** (d - 1)
            assert all(f.degree == d for f in fam)


class TestBasisMatrix:
    def test_degree_one(self):
        assert basis_matrix(1).entries == [[Fraction(1)]]

    def test_degree_two(self):
        assert basis_matrix(2).entries == [
            [Fraction(1), Fraction(2)],
            [Fraction(-1), Fraction(1)],
        ]

    def test_degree_three_full_rank(self):
        m = basis_matrix(3)
        assert (m.rows, m.cols) == (4, 4)
        assert m.rank() == 4

    def test_full_rank_up_to_eight(self):
        for d in range(1, 9):
            assert basis_matrix(d).rank() == 2 ** (d - 1)

    def test_bareiss_pivots_up_to_seven(self):
        # a route over Q that does not pass through the GF(2) certificate
        for d in range(1, 8):
            assert len(linalg._echelon(basis_matrix(d).entries)[1]) == 2 ** (d - 1)

    def test_mod2_invertible_up_to_eight(self):
        for d in range(1, 9):
            assert check_mod2_invertible(d)

    def test_word_basis_order(self):
        assert words_ending_in_y(3) == ("xxy", "xyy", "yxy", "yyy")


class TestWordTables:
    def test_against_the_product_definition(self):
        for d in range(1, 13):
            want = tuple("".join(p) + "y" for p in itertools.product("xy", repeat=d - 1))
            got = words_ending_in_y(d)
            assert type(got) is tuple and got == want
            assert words_ending_in_y(d) is got
            assert word_index(d) == {w: i for i, w in enumerate(want)}
        for d in (0, -1):
            with pytest.raises(ValueError, match="degree must be >= 1"):
                words_ending_in_y(d)

    def test_t_rows_are_the_rows_of_diamond_with_y(self):
        for d in range(2, 11):
            index = word_index(d)
            want = [
                {(index[w], c) for w, c in diamond(Poly.from_word(vy), Y).terms.items()}
                for vy in words_ending_in_y(d - 1)
            ]
            assert [set(linalg._t_row(v, d)) for v in range(2 ** (d - 2))] == want, d


class TestMod2Certificate:
    def test_parities_match_the_dense_matrix(self):
        # check_mod2_invertible packs parities from the sigma lists, not from
        # the matrix; both pack rows by _parities, checked against the bit sum
        for d in range(1, 10):
            rows = [linalg._sigma_list(u) for u in basis_forests(d)]
            bits = [sum(1 << c for c, e in enumerate(row) if e & 1) for row in rows]
            dense = basis_matrix(d).mod2()
            assert linalg._parities(rows, 2 ** (d - 1)).row_bits == bits
            assert dense.row_bits == bits
            assert check_mod2_invertible(d) == dense.is_invertible()

    def test_fill_no_poly_memo(self):
        # both read the sigma lists, never sigma_forest
        clear_caches()
        try:
            for d in range(1, 9):
                assert check_mod2_invertible(d)
                assert basis_matrix(d).rows == 2 ** (d - 1)
            assert sigma_forest.cache_info().currsize == 0
        finally:
            clear_caches()

    def test_rows_equal_mod_2_fail(self, monkeypatch):
        # sigma of the second basis forest moved to sigma(first) + 2 sigma(second)
        d = 5
        first, second = basis_forests(d)[:2]
        real = linalg._sigma_list
        monkeypatch.setattr(
            linalg, "_sigma_list",
            lambda f: [a + 2 * b for a, b in zip(real(first), real(second))]
            if f is second else real(f),
        )
        rows = linalg._parities([linalg._sigma_list(u) for u in basis_forests(d)], 16).row_bits
        assert rows[0] == rows[1] != 0
        assert not check_mod2_invertible(d)
        assert not basis_matrix(d).mod2().is_invertible()


class TestDecompose:
    def test_basis_element_is_indicator(self):
        for d in (2, 3, 4):
            for u in basis_forests(d):
                coeffs = decompose(HElem.from_forest(u), d)
                assert coeffs[u] == 1
                assert all(c == 0 for v, c in coeffs.items() if v != u)

    def test_reproduces_sigma(self):
        target = HElem.from_forest(parse_forest("[[][]]"))
        coeffs = decompose(target, 3)
        recombined = sum(
            (c * sigma_forest(u) for u, c in coeffs.items()),
            start=sigma(HElem.zero()),
        )
        assert recombined == sigma(target)

    def test_round_trip_at_seven(self):
        forests = enumerate_forests(7)
        target = HElem({forests[3]: 2, forests[40]: Fraction(-3, 2), forests[100]: 1})
        coeffs = decompose(target, 7)
        assert sigma(HElem(coeffs)) == sigma(target)

    def test_relation_decomposes_to_zero(self):
        coeffs = decompose(build_fmn(2, 2), 4)
        assert all(c == 0 for c in coeffs.values())

    def test_rejects_mixed_degrees(self):
        mixed = HElem.from_forest(parse_forest("[]")) + HElem.from_forest(
            parse_forest("[[]]")
        )
        with pytest.raises(ValueError):
            decompose(mixed, 2)


@cache
def _dense_inverse(d):
    """The inverse of the transposed basis matrix, read off the reference
    RREF of that matrix augmented by the identity."""
    n = 2 ** (d - 1)
    augmented = [
        list(col) + [int(i == j) for j in range(n)]
        for i, col in enumerate(zip(*basis_matrix(d).entries))
    ]
    red, pivots = reference_rref(augmented, 2 * n)
    assert pivots == list(range(n))
    return [row[n:] for row in red]


def dense_solve(d, t):
    """The coordinates over ``basis_forests(d)`` of the word vector t."""
    return [sum(a * b for a, b in zip(row, t)) for row in _dense_inverse(d)]


def dense_decompose(f, d):
    """The dense reference: the transposed basis matrix solved for sigma(f)."""
    target = sigma(f).terms
    rhs = [target.get(w, 0) for w in words_ending_in_y(d)]
    return dict(zip(basis_forests(d), dense_solve(d, rhs)))


@st.composite
def homogeneous_combinations(draw, max_degree=8):
    """(f, d): up to four degree-d forests with int, Fraction or mixed
    coefficients."""
    d = draw(st.integers(1, max_degree))
    coeff = draw(st.sampled_from([small_ints, st.fractions(max_denominator=6), small_rationals]))
    pool = enumerate_forests(d)
    terms = draw(st.lists(st.tuples(st.sampled_from(pool), coeff), max_size=4))
    return HElem(dict(terms)), d


class TestDecomposeAgainstDense:
    # the reference inverse takes about 2 s at d = 7 and 14 s at d = 8
    @settings(max_examples=40, deadline=None)
    @given(homogeneous_combinations(max_degree=6))
    def test_equal_fractions_in_basis_order(self, case):
        f, d = case
        coeffs = decompose(f, d)
        expected = dense_decompose(f, d)
        assert list(coeffs.items()) == list(expected.items())
        assert follows_coefficient_rule(coeffs.values())

    # the sigma values of the basis family are independent (TestBasisMatrix),
    # so the coefficients that reproduce sigma(f) are the unique solution
    @settings(max_examples=40, deadline=None)
    @given(homogeneous_combinations())
    def test_round_trip(self, case):
        f, d = case
        coeffs = decompose(f, d)
        assert list(coeffs) == list(basis_forests(d))
        assert sigma(HElem(coeffs)) == sigma(f)

    def test_zero_relation(self):
        coeffs = decompose(build_fmn(2, 2), 4)
        assert list(coeffs.items()) == list(dense_decompose(build_fmn(2, 2), 4).items())

    def test_round_trip_at_ten(self):
        forests = enumerate_forests(10)
        target = HElem({forests[5]: 3, forests[200]: Fraction(-1, 2), forests[700]: 1})
        coeffs = decompose(target, 10)
        assert list(coeffs) == list(basis_forests(10))
        assert sigma(HElem(coeffs)) == sigma(target)

    def test_rational_coordinates_of_a_word_vector(self):
        # xy is not sigma of an integer combination: 3 xy = sigma([[]] - 2 [] [])
        assert linalg._coords([1, 0], 2) == ([1, -2], 3)
        rng = random.Random(5)
        for d in range(2, 7):
            t = [rng.randint(-3, 3) for _ in range(2 ** (d - 1))]
            coords, den = linalg._coords(t, d)
            expected = dense_solve(d, t)
            assert [Fraction(c, den) for c in coords] == expected

    def test_reconstructed_solution_is_checked(self, monkeypatch):
        # K_2 = (3), so q = -2/3 comes from rational reconstruction
        monkeypatch.setattr(linalg, "_reconstruct", lambda a, m, bound: Fraction(0))
        with pytest.raises(ArithmeticError, match="no solution of the K_2 system"):
            linalg._coords([1, 0], 2)

    def test_singular_mod_2_raises(self, monkeypatch):
        # doubling T makes every entry of K_d even
        t_row = linalg._t_row
        monkeypatch.setattr(linalg, "_t_row", lambda v, d: [(i, 2 * c) for i, c in t_row(v, d)])
        linalg._k_system.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="K_3 is not unit triangular mod 2"):
                decompose(HElem.from_forest(ladder(3)), 3)
        finally:
            linalg._k_system.cache_clear()

    def test_odd_entry_out_of_order_raises(self, monkeypatch):
        # with no word given a trailing y, the odd entry of K_3 at (row yy,
        # column x) is no longer below the diagonal in the trailing-y order
        monkeypatch.setattr(linalg, "_trailing_ys", lambda u: 0)
        linalg._k_system.cache_clear()
        try:
            with pytest.raises(ArithmeticError, match="K_3 is not unit triangular mod 2"):
                decompose(HElem.from_forest(ladder(3)), 3)
        finally:
            linalg._k_system.cache_clear()

    def test_every_level_is_checked(self, monkeypatch):
        # q = 0 is wrong for leaf * [[]]: T(sigma([[]])) is not in the image of R
        monkeypatch.setattr(linalg, "_solve_k", lambda d, b: ([0] * len(b), 1))
        with pytest.raises(ArithmeticError, match="degree 3: R"):
            decompose(HElem.from_forest(parse_forest("[] [[]]")), 3)


class TestKernel:
    def test_dimensions(self):
        expected = {1: 0, 2: 0, 3: 0, 4: 1, 5: 4, 6: 16}
        for d, dim in expected.items():
            assert len(sigma_kernel(d)) == dim

    def test_kernel_elements_vanish(self):
        for d in range(1, 8):
            vectors = sigma_kernel(d)
            assert all(follows_coefficient_rule(k.terms.values()) for k in vectors)
            for k in vectors:
                assert sigma(k).is_zero()

    def test_kernel_kills_x_too(self):
        from treealg import rtm_apply
        from treealg.words import X

        for d in range(1, 7):
            for k in sigma_kernel(d):
                assert rtm_apply(k, X).is_zero()

    def test_deterministic(self):
        first = [k.terms for k in sigma_kernel(5)]
        second = [k.terms for k in sigma_kernel(5)]
        assert first == second
