"""Exact linear algebra and the degree-graded basis analysis.

``RationalMatrix`` is a dense exact matrix over Q that keeps its entries
as given: an ``int`` stays an ``int``, anything else becomes a
``Fraction``. Every method reads its result off one echelon form, found by
fraction-free elimination over the integers (Bareiss), through one
fraction-free back-substitution; every result is exact, in ``Fraction``
entries. ``BitMatrix`` packs rows into Python ints for elimination over
GF(2). On top of these sit the basis family (grown from the empty forest
by grafting and by multiplying with the leaf), the change-of-basis matrix
to the y-ending word basis, and per-degree kernel computation.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import lcm

from .diamond import sigma, sigma_forest
from .hopf import HElem
from .trees import EMPTY_FOREST, Forest, LEAF, bplus, enumerate_forests, forest_product
from .words import Poly


def _echelon(entries: list[list[Fraction | int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination (Bareiss) over the integers.

    An all-int row is taken as is; any other row is scaled by the lcm of its
    denominators, which changes neither the rank, the pivots nor the
    solutions. Each row below a pivot becomes
    ``(p·row − row[c]·pivot_row) // prev``, exact by Sylvester's identity.
    Returns the integer rows, the pivot columns and the last pivot D (D = 1
    when there is no pivot).
    """
    m = []
    for row in entries:
        if not all(type(e) is int for e in row):
            scale = lcm(*(e.denominator for e in row))
            row = [e.numerator * (scale // e.denominator) for e in row]
        m.append(row)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(len(m[0]) if m else 0):
        if r == len(m):
            break
        pivot_row = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            row = m[i]
            a = row[c]
            if a:
                m[i] = [(p * x - a * y) // prev for x, y in zip(row, top)]
            else:
                m[i] = [p * x // prev for x in row]
        prev = p
        pivots.append(c)
        r += 1
    return m, pivots, prev


def _back_substitute(m: list[list[int]], pivots: list[int], d: int, col: int) -> list[int]:
    """D·x, where x solves the pivot rows of ``m`` on the pivot columns for
    column ``col``; x[r] belongs to column ``pivots[r]``. D·x is integral by
    Cramer's rule (D is the determinant of that system), so each step
    divides exactly."""
    scaled = [0] * len(pivots)
    for r in reversed(range(len(pivots))):
        row = m[r]
        rest = sum(row[pivots[s]] * scaled[s] for s in range(r + 1, len(pivots)))
        scaled[r] = (d * row[col] - rest) // row[pivots[r]]
    return scaled


class RationalMatrix:
    """A dense exact matrix over Q."""

    def __init__(self, entries: list[list[Fraction | int]]):
        if entries:
            width = len(entries[0])
            if any(len(row) != width for row in entries):
                raise ValueError("ragged rows")
        self.entries = [[e if type(e) is int else Fraction(e) for e in row] for row in entries]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix([list(col) for col in zip(*self.entries)] if self.entries else [])

    def rref(self) -> tuple["RationalMatrix", list[int]]:
        """Reduced row-echelon form and the pivot column indices."""
        m, pivots, d = _echelon(self.entries)
        columns = [_back_substitute(m, pivots, d, c) for c in range(self.cols)]
        rows = [[Fraction(x, d) for x in row] for row in zip(*columns)]
        rows += [[Fraction(0)] * self.cols for _ in range(self.rows - len(pivots))]
        return RationalMatrix(rows), pivots

    def rank(self) -> int:
        return len(_echelon(self.entries)[1])

    def solve(self, rhs: list[Fraction | int]) -> list[Fraction]:
        """Solve A v = rhs; requires a unique solution.

        The augmented system is brought to echelon form, and its last
        column is back-substituted to D·v."""
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length mismatch")
        n = self.cols
        augmented = RationalMatrix([row + [b] for row, b in zip(self.entries, rhs)])
        m, pivots, d = _echelon(augmented.entries)
        if n in pivots:
            raise ValueError("inconsistent system")
        if len(pivots) != n:
            raise ValueError("system is underdetermined")
        return [Fraction(v, d) for v in _back_substitute(m, pivots, d, n)]

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column, in
        ascending free-column order; free entries normalized to 1."""
        m, pivots, d = _echelon(self.entries)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for pc, x in zip(pivots, _back_substitute(m, pivots, d, fc)):
                v[pc] = Fraction(-x, d)
            basis.append(v)
        return basis

    def mod2(self) -> "BitMatrix":
        rows = []
        for row in self.entries:
            if any(e.denominator != 1 for e in row):
                raise ValueError("entry is not an integer")
            rows.append(sum(1 << c for c, e in enumerate(row) if e.numerator % 2))
        return BitMatrix(rows, self.cols)


class BitMatrix:
    """A matrix over GF(2) with bit-packed rows."""

    def __init__(self, rows: list[int], cols: int):
        self.row_bits = list(rows)
        self.cols = cols

    @property
    def rows(self) -> int:
        return len(self.row_bits)

    def rank(self) -> int:
        rows = [r for r in self.row_bits if r]
        rank = 0
        for c in range(self.cols):
            mask = 1 << c
            pivot = next((i for i, r in enumerate(rows) if r & mask), None)
            if pivot is None:
                continue
            pivot_row = rows.pop(pivot)
            rows = [r ^ pivot_row if r & mask else r for r in rows]
            rank += 1
        return rank

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.cols


@cache
def basis_forests(d: int) -> tuple[Forest, ...]:
    """The degree-d basis family, grown by grafting and leaf-multiplication."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    if d == 0:
        return (EMPTY_FOREST,)
    prev = basis_forests(d - 1)
    grown = {bplus(u).as_forest() for u in prev}
    grown |= {forest_product(LEAF.as_forest(), u) for u in prev}
    return tuple(sorted(grown, key=lambda f: f.encoding))


def words_ending_in_y(d: int) -> tuple[str, ...]:
    """All degree-d words ending in y, lexicographic with x < y."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return tuple("".join(p) + "y" for p in product("xy", repeat=d - 1))


def _word_coeffs(p: Poly, basis: tuple[str, ...]) -> list[Fraction | int]:
    index = {w: i for i, w in enumerate(basis)}
    coeffs: list[Fraction | int] = [0] * len(basis)
    for w, c in p.terms.items():
        coeffs[index[w]] = c
    return coeffs


def basis_matrix(d: int) -> RationalMatrix:
    """Rows: polynomial values of the degree-d basis family, expressed over
    the y-ending word basis (lexicographic columns)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    wbasis = words_ending_in_y(d)
    return RationalMatrix(
        [_word_coeffs(sigma_forest(u), wbasis) for u in basis_forests(d)]
    )


def check_mod2_invertible(d: int) -> bool:
    """True if the integer basis matrix is invertible over GF(2).

    This implies full rank over Q: the determinant is an integer that is
    odd, hence nonzero."""
    return basis_matrix(d).mod2().is_invertible()


def decompose(f: HElem, d: int) -> dict[Forest, Fraction]:
    """Coefficients expressing f's polynomial value over the degree-d basis
    family's values. Input must be d-homogeneous."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    deg = f.homogeneous_degree()
    if deg is None or (not f.is_zero() and deg != d):
        raise ValueError(f"input is not {d}-homogeneous")
    wbasis = words_ending_in_y(d)
    sol = basis_matrix(d).transpose().solve(_word_coeffs(sigma(f), wbasis))
    return dict(zip(basis_forests(d), sol))


def sigma_kernel(d: int) -> list[HElem]:
    """Basis of the degree-d relations: combinations of degree-d forests
    whose polynomial value vanishes. Deterministic reduced-echelon output,
    free columns in canonical forest order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    forests = enumerate_forests(d)
    wbasis = words_ending_in_y(d)
    # columns indexed by forests, rows by word basis
    columns = [_word_coeffs(sigma_forest(f), wbasis) for f in forests]
    mat = RationalMatrix([list(row) for row in zip(*columns)])
    return [
        HElem({f: c for f, c in zip(forests, vec) if c})
        for vec in mat.nullspace()
    ]
