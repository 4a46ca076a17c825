"""Exact linear algebra and the degree-graded basis analysis.

``RationalMatrix`` is a dense exact matrix over Q that keeps its entries
as given: an ``int`` stays an ``int``, anything else becomes a
``Fraction``. Its rows are scaled to integers by the lcm of their
denominators. ``rank`` first takes the rank of their parities over GF(2):
that is never above the rank over Q, and when it is full some maximal
minor is odd, hence nonzero, so it is the rank over Q. Otherwise ``rank``
counts the pivots of one echelon form, found by fraction-free elimination
over the integers (Bareiss). ``nullspace`` goes through GF(2) first too:
the leading-bit XOR basis of the columns' parities, taken in column order,
gives the GF(2)-greedy pivot set P and, by tracking the pivot columns that
each basis row sums, a solver of A_P y = r mod 2. Each free column j is
lifted 2-adically, A_P x = A_j, by the lifter of the K_d solve below. The
result is the reduced-echelon kernel when every lift stops with an exact
zero residual within the Hadamard bound, so that x is integral, and no
digit of x falls on a pivot after j. For then the columns of P,
independent mod 2, are independent over Q, and each free column lies in
the span of the pivots before it: P is the greedy pivot set over Q, and
e_j - Σ x_p e_p is the kernel vector of j. (An integral x has |x_p| at
most a numerator of Cramer's rule on an odd, hence nonzero, maximal minor
of A_P, below ∏ |A_p| · |A_j|.) Otherwise, for an all-even matrix, a
rational solution or a pivot set that differs over Q, the kernel is
back-substituted from the Bareiss echelon. Either way it comes out exact,
in ``Fraction`` entries. ``BitMatrix`` packs rows into Python
ints, bit c for column c, and takes their rank over GF(2) by a leading-bit
XOR basis: one basis row per highest set bit; a row is XORed with the
basis row of its top bit until that bit is free, where it joins the
basis, or it is 0, and so dependent. That is at most rank XORs a row and
no column sweep. A row with a bit at or above ``cols``, which a sweep of
the columns would never see, is refused. On top of these sit the basis family
(grown from the empty forest by grafting and by multiplying with the
leaf), the change-of-basis matrix to the y-ending word basis, and
per-degree kernel computation. ``check_mod2_invertible`` builds no
``RationalMatrix``: it packs the odd sigma coefficients of each basis
forest into a bit row over the y-ending words, by ``_parities``, the one
packer, which ``rank`` and ``mod2`` use too, and takes one GF(2) rank.
Type tests on entries are made once per row, not once per entry.

``decompose`` builds no matrix of sigma values: its target is the sum of
the sigma lists of its input (``lincomb.sum_lists``). V_d is spanned by the
words of length d that end in y; R (``op_R``) and T = · ◇ y
(``words.t_list``) map V_(d-1) into V_d.

- Lemma A. The degree-d basis family is {B+u} and {leaf·u} over u in the
  degree-(d-1) family, with sigma(B+u) = R sigma(u) and sigma(leaf·u) =
  y ◇ sigma(u) = T sigma(u). The docstring of ``words.t_list`` proves
  its closed form of T = · ◇ y on every word, and ``diamond._sigma_list``
  takes both rules in closed form, so sigma of the whole family needs no
  diamond product. So t = sigma(f) is R(p) + T(q) for p, q in V_(d-1):
  f's coefficients on B+u are those of p one degree down, and on leaf·u
  those of q. At d = 1 the family is the leaf, and sigma of it y.
- Lemma B. R(p) has p_uy at uxy and 2 p_uy at uyy, so q solves
  K_dᵀ q = (t_uyy - 2 t_uxy)_u, where row v of K_d is
  T(vy)_uyy - 2 T(vy)_uxy over the words u of length d-2; it has at most d
  nonzeros. Then p_uy = t_uxy - T(q)_uxy.
- Lemma C. Mod 2, T(w) = yw + Σ_i w_<i xy w_>i (on word indices, the
  index map of ``words.t_list``), so the row of K_d for v = v'x is the
  unit vector at v, and the row for v = v'y restricted to the columns
  ending in y is row v' of K_(d-1). Hence, with words ordered by their
  number of trailing y's, K_d is unit triangular mod 2, and det K_d is
  odd. ``_k_system`` checks this for every degree it builds and raises
  ArithmeticError otherwise.

Each K_d system is solved exactly by 2-adic (Dixon) lifting, in
``lifting.lift``, which ``nullspace`` shares. Start from x = 0 and r = b.
At step k, y solves K_dᵀ y = r mod 2, by substitution in the trailing-y
order. Since b - K_dᵀ(x - 2^k y) = 2^k (r + K_dᵀ y), the symmetric
residue x - 2^k y is the exact solution once r + K_dᵀ y = 0; otherwise
x += 2^k y and r = (r - K_dᵀ y)/2. Small integer solutions, the usual
case, stop within a few steps. If none is found within the Hadamard
bound, the entries are rationals with odd denominators, which rational
reconstruction recovers and an exact product checks. Every level checks
R(p) + T(q) = t term by term. The input runs on its int numerators
(``lincomb.numerators``), and the coordinates are divided once at the end
by ``lincomb.over``, so an integral coordinate is an int.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from operator import add

from .diamond import _sigma_list
from .hopf import HElem
from .lincomb import Scalar, numerators, over, sum_lists
from .trees import EMPTY_FOREST, Forest, LEAF, bplus, enumerate_forests, forest_product
from .words import r_list, t_list

_INT = {int}


def _integer_rows(entries: list[list[Fraction | int]]) -> list[list[int]]:
    """An all-int row as is; any other row scaled by the lcm of its
    denominators, which changes neither the rank, the pivots nor the
    kernel."""
    out = []
    for row in entries:
        if set(map(type, row)) - _INT:
            scale = lcm(*(e.denominator for e in row))
            row = [e.numerator * (scale // e.denominator) for e in row]
        out.append(row)
    return out


def _bits(row: list[int]) -> int:
    """The integer row mod 2: bit c is set where entry c is odd. The row is
    parsed as one binary numeral, last entry first (48 is b"0"), which is
    faster than summing its bits one big int at a time; a zero-width row,
    whose empty numeral ``int`` would refuse, reads b"0"."""
    return int(bytes([48 + (e & 1) for e in reversed(row)]) or b"0", 2)


def _parities(rows: list[list[int]], cols: int) -> "BitMatrix":
    """The integer rows mod 2, packed by ``_bits``."""
    return BitMatrix(list(map(_bits, rows)), cols)


def _echelon(entries: list[list[Fraction | int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free forward elimination (Bareiss) over the integers, of
    ``entries`` scaled to ``_integer_rows``.

    Each row below a pivot becomes ``(p·row − row[c]·pivot_row) // prev``,
    exact by Sylvester's identity. Returns the integer rows, the pivot
    columns and the last pivot D (D = 1 when there is no pivot).
    """
    m = _integer_rows(entries)
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
        self.entries = [
            [e if type(e) is int else Fraction(e) for e in row]
            if set(map(type, row)) - _INT else list(row)
            for row in entries
        ]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def rank(self) -> int:
        """The rank over Q: certified by a full rank of the parities over
        GF(2) when it is one, else the number of Bareiss pivots."""
        rows = _integer_rows(self.entries)
        full = min(self.rows, self.cols)
        if _parities(rows, self.cols).rank() == full:
            return full
        return len(_echelon(rows)[1])

    def nullspace(self) -> list[list[Fraction]]:
        """Basis of the right kernel, one vector per free column, in
        ascending free-column order; free entries normalized to 1. Lifted
        over the GF(2) pivots where that is certified, else back-substituted
        from the Bareiss echelon (module docstring); the two agree."""
        from .lifting import lifted_kernel

        rows = _integer_rows(self.entries)
        basis = lifted_kernel(rows, self.cols)
        if basis is not None:
            return basis
        m, pivots, d = _echelon(rows)
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
        for row in self.entries:
            if set(map(type, row)) - _INT and any(e.denominator != 1 for e in row):
                raise ValueError("entry is not an integer")
        return _parities(_integer_rows(self.entries), self.cols)


class BitMatrix:
    """A matrix over GF(2) with bit-packed rows: bit c of a row is entry c.
    Raises ValueError for a negative row or a set bit at or above ``cols``."""

    def __init__(self, rows: list[int], cols: int):
        self.row_bits = list(rows)
        self.cols = cols
        if cols < 0 or self.row_bits and (min(self.row_bits) < 0 or max(self.row_bits) >> cols):
            raise ValueError(f"rows must lie in [0, 2^cols) and cols be >= 0; cols = {cols}")

    @property
    def rows(self) -> int:
        return len(self.row_bits)

    def rank(self) -> int:
        """The size of a leading-bit XOR basis: each row is reduced by the
        basis row of its highest set bit until that bit is free, where it
        joins the basis, or the row is 0, and so dependent. basis[k] is the
        row whose highest bit is bit k - 1, 0 while there is none."""
        basis = [0] * (self.cols + 1)
        for r in self.row_bits:
            while r:
                b = basis[top := r.bit_length()]
                if not b:
                    basis[top] = r
                    break
                r ^= b
        return len(basis) - basis.count(0)

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


def basis_matrix(d: int) -> RationalMatrix:
    """Rows: polynomial values of the degree-d basis family, expressed over
    the y-ending word basis (lexicographic columns)."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    return RationalMatrix([_sigma_list(u) for u in basis_forests(d)])


def check_mod2_invertible(d: int) -> bool:
    """True if the integer basis matrix is invertible over GF(2).

    This implies full rank over Q: the determinant is an integer that is
    odd, hence nonzero. ``RationalMatrix.rank`` certifies a full rank by
    the same argument. The parities are packed straight from the sigma
    values, which are integral, with no ``RationalMatrix`` built; by Lemma
    A those of the basis family come from R and T alone."""
    return _parities([_sigma_list(u) for u in basis_forests(d)], 1 << (d - 1)).is_invertible()


def _trailing_ys(u: int) -> int:
    """The number of y's at the end of the word with index u (low bits)."""
    return (u ^ (u + 1)).bit_length() - 1


def _t_row(v: int, d: int) -> list[tuple[int, int]]:
    """T(vy) for the v-th word vy of V_(d-1), d >= 2, as (index in V_d,
    coefficient) pairs, by the index map of ``words.t_list``."""
    top = 1 << (d - 2)
    return [(top | v, 1), (v << 1, -1)] + [
        (((v >> (s + 1)) << (s + 2)) | (1 << s) | (v & ((1 << s) - 1)), -1 if v >> s & 1 else 1)
        for s in range(d - 2)
    ]


@cache
def _k_system(d: int):
    """K_d, d >= 2, as (rows, odd, order, bits). Row v holds the nonzero
    (u, entry) pairs of T(vy)_uyy - 2 T(vy)_uxy and odd[v] the columns u != v
    of its odd entries; order lists the rows by trailing y's, most first;
    the Hadamard bound of K_d is below 2^(bits/2). Raises ArithmeticError
    unless K_d mod 2 is unit triangular in that order (Lemma C)."""
    rows, odd, hadamard = [], [], 1
    for v in range(1 << (d - 2)):
        entries: dict[int, int] = {}
        # the i-th word of V_d is uxy for even i and uyy for odd i, u the
        # (i >> 1)-th word of length d - 2: word order is binary order
        for i, c in _t_row(v, d):
            entries[i >> 1] = entries.get(i >> 1, 0) + (c if i & 1 else -2 * c)
        rows.append([(u, e) for u, e in entries.items() if e])
        odd.append([u for u, e in entries.items() if e & 1 and u != v])
        hadamard *= sum(e * e for e in entries.values())
        if not entries.get(v, 0) & 1 or any(
            _trailing_ys(u) >= _trailing_ys(v) for u in odd[v]
        ):
            raise ArithmeticError(f"K_{d} is not unit triangular mod 2")
    order = sorted(range(len(rows)), key=_trailing_ys, reverse=True)
    return rows, odd, order, hadamard.bit_length()


@cache
def _slots(d: int) -> list[tuple[int, int]]:
    """The positions of B+u and of leaf·u in ``basis_forests(d)``, d >= 2,
    for each u in ``basis_forests(d - 1)`` (Lemma A)."""
    pos = {f: i for i, f in enumerate(basis_forests(d))}
    return [
        (pos[bplus(u).as_forest()], pos[forest_product(LEAF.as_forest(), u)])
        for u in basis_forests(d - 1)
    ]


def _combine(rows: list, coeffs: list[int], size: int) -> list[int]:
    """Σ_v coeffs[v]·rows[v] as a dense vector, for sparse rows of
    (index, entry) pairs."""
    out = [0] * size
    for row, c in zip(rows, coeffs):
        if c:
            for i, e in row:
                out[i] += c * e
    return out


def _reconstruct(a: int, m: int, bound: int) -> Fraction:
    """The fraction n/q ≡ a (mod m) with |n| <= bound, by the extended
    Euclidean algorithm (rational reconstruction)."""
    r0, r1, s0, s1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    return Fraction(r1, s1)


def _solve_k(d: int, b: list[int]) -> tuple[list[int], int]:
    """(x, D) with K_dᵀ (x/D) = b exactly, by 2-adic lifting."""
    from .lifting import lift

    k_rows, odd, order, hbits = _k_system(d)
    n = len(b)
    # |det K_d| < 2^dbits, and each numerator of Cramer's rule is below
    # 2^dbits |b| < 2^nbits, where |b| <= sqrt(n) max|b_u|
    dbits = (hbits + 1) // 2
    nbits = dbits + (n.bit_length() + 1) // 2 + max(map(abs, b)).bit_length()
    steps = nbits + dbits + 2

    def solve2(r: list[int]) -> list[int]:
        # y = (K_dᵀ)⁻¹ r mod 2, by substitution in the trailing-y order
        y, ys = [c & 1 for c in r], []
        for v in order:
            if y[v]:
                ys.append(v)
                for u in odd[v]:
                    y[u] ^= 1
        return ys

    def times(ys: list[int]) -> list[int]:
        return _combine([k_rows[v] for v in ys], [1] * len(ys), n)

    x, done = lift(b, n, solve2, times, steps)
    if done:
        return x, 1
    # no integral solution within the bound: the entries are rationals
    # with odd denominators below 2^dbits
    sol = [_reconstruct(c, 1 << steps, 1 << nbits) for c in x]
    den = lcm(*(c.denominator for c in sol))
    x = [c.numerator * (den // c.denominator) for c in sol]
    if _combine(k_rows, x, n) != [den * c for c in b]:
        raise ArithmeticError(f"no solution of the K_{d} system was found")
    return x, den


def _coords(t: list[int], d: int) -> tuple[list[int], int]:
    """(c, D): the coordinates of t in V_d, an int vector over
    ``words_ending_in_y(d)``, over ``basis_forests(d)`` are c/D."""
    if d == 1 or not any(t):
        return t, 1
    q, den = _solve_k(d, [t[i + 1] - 2 * t[i] for i in range(0, len(t), 2)])
    tq = t_list(q)
    p = [den * t[i] - tq[i] for i in range(0, len(t), 2)]
    if list(map(add, tq, r_list(p))) != [den * c for c in t]:
        raise ArithmeticError(f"degree {d}: R(p) + T(q) is not the target")
    (a, da), (b, db) = _coords(p, d - 1), _coords(q, d - 1)
    scale = lcm(da, db)
    out = [0] * len(t)
    for (graft, leaf), ca, cb in zip(_slots(d), a, b):
        out[graft] = ca * (scale // da)
        out[leaf] = cb * (scale // db)
    return out, scale * den


def decompose(f: HElem, d: int) -> dict[Forest, Scalar]:
    """Coefficients expressing f's polynomial value over the degree-d basis
    family's values, in ``basis_forests(d)`` order. Input must be
    d-homogeneous."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    deg = f.homogeneous_degree()
    if deg is None or (not f.is_zero() and deg != d):
        raise ValueError(f"input is not {d}-homogeneous")
    coeffs, den = numerators(f.terms)
    sums = sum_lists((d, _sigma_list(u), c) for u, c in coeffs.items())
    coords, scale = _coords(sums.get(d, [0] * (1 << (d - 1))), d)
    return over(dict(zip(basis_forests(d), coords)), den * scale)


def sigma_kernel(d: int) -> list[HElem]:
    """Basis of the degree-d relations: combinations of degree-d forests
    whose polynomial value vanishes. Deterministic reduced-echelon output,
    free columns in canonical forest order."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    forests = enumerate_forests(d)
    # columns indexed by forests, rows by word basis
    columns = [_sigma_list(f) for f in forests]
    mat = RationalMatrix([list(row) for row in zip(*columns)])
    return [
        HElem({f: c for f, c in zip(forests, vec) if c})
        for vec in mat.nullspace()
    ]
