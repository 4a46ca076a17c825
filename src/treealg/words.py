"""The noncommutative polynomial ring Q<x, y>.

Words are plain strings over the alphabet {x, y}; the empty string is the
unit word. ``Poly`` is a sparse map word -> rational on the shared
linear-combination core (``lincomb``), whose sums accumulate in place.
Canonical printing orders terms by word length, then lexicographically with
x < y.

V_n, n >= 1, is spanned by the words of length n that end in y, and every
value of the dense routes lies in one V_n. This module alone fixes how such
a value is laid out: as its coefficient list over ``words_ending_in_y(n)``,
lexicographic with x < y, so a word's index is its first n - 1 letters as
bits, x = 0, and n is read from the length 2^(n-1). ``r_list`` and
``t_list`` are R and T = · ◇ y on such lists, ``coefficient_list`` and
``poly_from_list`` convert between lists and ``Poly``, and the dense
routes of the other modules pass lists from step to step.

This module also owns the strided moves on that layout, as two kernels.
``add_difference`` adds the difference of two strided boxes of one list
into a strided box of another, and ``add_outer`` adds the outer product of
two lists. Each runs one ``map`` along the longest axis of its box for each
point of the others. ``t_list``, ``diamond._diamond_dense`` and
``value_on_x._tree_on`` make every strided move through them and choose no
run axis themselves, so a change of how the lists are stored (packing them
as ``array('q')``, say) rewrites these two kernels and no loop elsewhere.

The memos of ``diamond`` and ``rtm`` hold millions of terms but only 2^n
words of length n, so each word they store is the one interned ``str`` for
it, not a private copy. Their keys are built through word tables
(``APPEND_X``, ``APPEND_Y`` and ``op_R``'s two), which map a word to the
interned image on first lookup and return it from then on: a lookup is
cheaper than the concatenation it replaces. The tables are caches like the
``functools.cache`` memos (``cache_info().currsize``, ``cache_clear()``).
``Poly`` itself takes any ``str`` key. ``op_R`` is R on any ``Poly``, term
by term: ``rtm`` grafts through it, as a long sparse word's list would be
2^(n-1) long. T on any ``Poly`` is ``diamond(v, Y)`` by definition, and
``t_list``'s docstring proves its closed form.
"""
from __future__ import annotations

import sys
from functools import cache
from itertools import product, repeat
from operator import add, mul, sub
from typing import NamedTuple

from .lincomb import (
    LinComb,
    Scalar,
    format_terms,
    normalized,
    parse_terms,
    read_rational,
    skip_while,
)


class TableInfo(NamedTuple):
    """What ``cache_info()`` of a word table reports: its entry count."""

    currsize: int


class _WordTable(dict):
    """uz -> sys.intern(u + tail) for the words uz that end in ``ending``
    (any word if it is empty), stored on the first lookup; any other word
    raises ValueError."""

    def __init__(self, name: str, tail: str, ending: str = ""):
        super().__init__()
        self.__name__ = name
        self._tail, self._ending = tail, ending

    def __missing__(self, w: str) -> str:
        if not w.endswith(self._ending):
            raise ValueError(f"term {w or '1'!r} does not end in {self._ending}")
        out = self[w] = sys.intern(w[:len(w) - len(self._ending)] + self._tail)
        return out

    def cache_info(self) -> TableInfo:
        return TableInfo(len(self))

    cache_clear = dict.clear


APPEND_X = _WordTable("APPEND_X", "x")
APPEND_Y = _WordTable("APPEND_Y", "y")
# uy -> uxy and uyy, for op_R
_R_XY = _WordTable("_R_XY", "xy", "y")
_R_YY = _WordTable("_R_YY", "yy", "y")


class PolySyntaxError(ValueError):
    """Polynomial text that does not match the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class Poly(LinComb):
    """A finite Q-linear combination of words over {x, y}."""

    __slots__ = ()
    _degree = len

    @classmethod
    def from_word(cls, w: str, coeff: Scalar = 1) -> "Poly":
        """coeff * w; raises ValueError if w has a letter other than x, y."""
        if w.strip("xy"):
            raise ValueError(f"word {w!r} has a letter other than x and y")
        return cls({w: coeff})

    @classmethod
    def one(cls) -> "Poly":
        return cls._wrap({"": 1})

    def __mul__(self, other: "Poly") -> "Poly":
        """Concatenation product (noncommutative)."""
        if type(other) is Poly and self.homogeneous_degree() is not None:
            # left words of one length: u + v determines u and v, so every
            # product is its own term and none is zero
            right = other.terms.items()
            return Poly._wrap(
                normalized({u + v: a * b for u, a in self.terms.items() for v, b in right})
            )
        return self._product(other, add)

    def __repr__(self) -> str:
        return f"Poly({print_poly(self)!r})"


X = Poly._wrap({"x": 1})
Y = Poly._wrap({"y": 1})
ONE = Poly.one()
Z = X + Y


def op_R(v: Poly) -> Poly:
    """The degree-raising operator R_y R_{x+2y} R_y^{-1}: each term c*uy
    becomes c*uxy + 2c*uyy. The images of distinct terms are distinct."""
    out: dict[str, Scalar] = {}
    for w, c in v.terms.items():
        out[_R_XY[w]] = c
        out[_R_YY[w]] = 2 * c
    return Poly._wrap(normalized(out))


@cache
def words_ending_in_y(n: int) -> tuple[str, ...]:
    """V_n: the interned words of length n >= 1 that end in y, lexicographic
    with x < y: a word's index is its first n - 1 letters as bits, x = 0."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(sys.intern("".join(p) + "y") for p in product("xy", repeat=n - 1))


@cache
def word_index(n: int) -> dict[str, int]:
    """The index of each word of ``words_ending_in_y(n)``."""
    return {w: i for i, w in enumerate(words_ending_in_y(n))}


def coefficient_list(v: Poly, n: int) -> list[Scalar]:
    """v's coefficients over ``words_ending_in_y(n)``, 0 where v has none."""
    index = word_index(n)
    out: list[Scalar] = [0] * len(index)
    for w, c in v.terms.items():
        out[index[w]] = c
    return out


def poly_from_list(c: list[Scalar]) -> Poly:
    """The ``Poly`` whose coefficient list over V_n is c, n from len(c)."""
    words = words_ending_in_y(len(c).bit_length())
    return Poly._wrap(normalized({w: e for w, e in zip(words, c) if e}))


def r_list(c: list[Scalar]) -> list[Scalar]:
    """``op_R`` on the coefficient list of a value in V_n: uy goes to uxy,
    index 2u, and 2uyy, index 2u + 1."""
    out = c + c
    out[0::2], out[1::2] = c, [2 * e for e in c]
    return out


def add_difference(out: list, src: list, o: int, p: int, q: int, axes: list) -> None:
    """out[o + Σ k·a] += src[p + Σ k·b] - src[q + Σ k·b] over the box of
    the axes (n, a, b), 0 <= k < n, with strides a, b >= 1 and ``out`` not
    ``src``: one ``map`` along the longest axis for each point of the
    others (axes of one point add none)."""
    axes = sorted(axes)
    n, a, b = axes.pop()
    starts = [(o, p, q)]
    for m, sa, sb in axes:
        if m > 1:
            starts = [(i + k * sa, j + k * sb, l + k * sb) for i, j, l in starts for k in range(m)]
    na, nb = n * a, n * b
    for i, j, l in starts:
        out[i:i + na:a] = map(add, out[i:i + na:a], map(sub, src[j:j + nb:b], src[l:l + nb:b]))


def add_outer(out: list, d: list, h: list, ns: int, su: int, sh: int, off: int) -> None:
    """out[off + u su + k sh + r] += d[u ns + r] h[k] for r < ns: one ``map``
    along the longest of the runs u, k and r for each point of the other two."""
    nu, nh = len(d) // ns, len(h)
    if nh >= nu and nh >= ns:
        n, runs = nh, ((off + i // ns * su + i % ns, sh, h, e) for i, e in enumerate(d) if e)
    elif ns >= nu:
        n, runs = ns, ((off + u * su + k * sh, 1, d[u * ns:(u + 1) * ns], c)
                       for k, c in enumerate(h) if c for u in range(nu))
    else:
        n, runs = nu, ((off + k * sh + r, su, d[r::ns], c)
                       for k, c in enumerate(h) if c for r in range(ns))
    for o, step, v, c in runs:
        r = slice(o, o + n * step, step)
        out[r] = map(add, out[r], map(mul, v, repeat(c)))


def t_list(c: list[Scalar]) -> list[Scalar]:
    """T = · ◇ y on the coefficient list of a value in V_n, n >= 1.

    The closed form. T(w) = yw + Σ_i s_i w_<i xy w_>i for every word w,
    with s_i = 1 where w_i = x and -1 where w_i = y. Proof: take the right
    factor y = 1·y in the diamond rules: 1 ◇ y = y, vx ◇ y = (v ◇ y)x +
    (vx ◇ 1)y and vy ◇ y = (v ◇ y)y - (vx ◇ 1)y. So T(1) = y and T(vp) =
    T(v)p + s_p vxy. Induct on the length n of w = vp: if T(v) = yv +
    Σ_{i<n} s_i v_<i xy v_>i, then T(v)p appends p to every term, giving
    y(vp) and the terms for the letters i < n of vp, and s_p vxy =
    s_p (vp)_<n xy is the term for its last letter. The product is
    bilinear, so T on a polynomial is the sum over its terms.

    The index map. Let w = a_0 ... a_(n-2) y have index u (bits a_i). In
    T(w) = yw + Σ_i s_i w_<i xy w_>i, yw has index (1 << (n-1)) | u: y·V_n
    fills the top half. The last letter y gives -w_<(n-1) xy at u << 1.
    Position i < n - 1, with s = n - 2 - i letters after it, splits u into
    p·a_i·r; its term p·xy·r, sign -1 where a_i (bit s) is set, has index
    ((u >> (s+1)) << (s+2)) | (1 << s) | (u & ((1 << s) - 1)), so out[p·01·r]
    gains c[p·0·r] - c[p·1·r]: a box of 2^i blocks p by 2^s runs r, which
    ``add_difference`` walks in at most 2^((n-2)/2) ``map`` runs."""
    n = len(c).bit_length()
    out = [0] * len(c) + c
    out[0::2] = map(sub, out[0::2], c)
    for s in range(n - 1):
        lo = 1 << s
        add_difference(out, c, lo, 0, lo, [(len(c) >> (s + 1), 4 << s, 2 << s), (lo, 1, 1)])
    return out


def _poly_term(w: str, mag: Scalar) -> str:
    if not w:
        return str(mag)
    return w if mag == 1 else f"{mag}{w}"


def print_poly(p: Poly) -> str:
    return format_terms(p.terms, lambda w: (len(w), w), _poly_term)


def _read_poly_term(s: str, i: int, end: int) -> tuple[str, Scalar]:
    """The term ``[rational ["*"]] word`` at s[i:end]. Blanks may separate
    letters; the unit word is "1", or nothing after a rational."""
    coeff, i = read_rational(s, i, PolySyntaxError)
    i = skip_while(s, i)
    if coeff is not None and s.startswith("*", i):
        i = skip_while(s, i + 1)
        if not s.startswith(("x", "y", "1"), i):
            raise PolySyntaxError("expected a word after '*'", i)
    letters = ""
    if s.startswith("1", i):
        i = skip_while(s, i + 1)
    else:
        while s.startswith(("x", "y"), i):
            letters += s[i]
            i = skip_while(s, i + 1)
        if not letters and coeff is None:
            raise PolySyntaxError(f"unexpected character {s[i]!r}", i)
    if i < end:
        raise PolySyntaxError("expected '+' or '-' between terms", i)
    return letters, 1 if coeff is None else coeff


def parse_poly(text: str) -> Poly:
    """Parse polynomial text: signed terms ``[rational ["*"]] word``.

    Whitespace is insignificant; rationals are "p" or "p/q"; the unit word
    is "1"; "*" between coefficient and word is optional, but a "*" must be
    followed by a word.
    """
    return Poly._wrap(parse_terms(text, _read_poly_term, PolySyntaxError, "polynomial"))
