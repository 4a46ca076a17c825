"""2-adic (Dixon) lifting, for ``linalg``, which imports this module on
first use, so that importing ``treealg`` does not compile it.

``lift`` solves A x = b over a matrix A that is injective mod 2; the K_d
solve of ``decompose`` and ``lifted_kernel`` pass it their own mod-2 solve
and product. ``lifted_kernel`` is the first route of
``RationalMatrix.nullspace``; its certificate is in the ``linalg``
docstring.
"""
from __future__ import annotations

from fractions import Fraction
from math import prod
from operator import add, mul

from .linalg import _bits


def lift(b: list[int], size: int, solve2, times, steps: int) -> tuple[list[int], bool]:
    """(x, True) with A x = b exactly for an integral x, by 2-adic (Dixon)
    lifting, for a matrix A that is injective mod 2; else (x, False), x the
    solution mod 2^steps as far as it was lifted. ``solve2(r)`` lists the
    indices of y = 1, where A y = r mod 2, or gives None to stop;
    ``times(ys)`` is A y."""
    x, r = [0] * size, b
    for k in range(steps):
        ys = solve2(r)
        if ys is None:
            break
        ay = times(ys)
        # b - A(x - 2^k y) = 2^k (r + A y): the symmetric residue
        done = not any(map(add, r, ay))
        for v in ys:
            x[v] += -1 << k if done else 1 << k
        if done:
            return x, True
        r = [(a - c) >> 1 for a, c in zip(r, ay)]
    return x, False


def lifted_kernel(rows: list[list[int]], cols: int) -> list[list[Fraction]] | None:
    """The reduced-echelon kernel of the integer rows by GF(2) pivots and
    2-adic lifting, or None where its certificate fails (``linalg``
    docstring). basis[k] is the column XOR basis row of highest bit k - 1,
    and sums[k] the mask of the pivot columns it is the sum of, mod 2."""
    columns = list(zip(*rows))
    n = len(rows)
    basis, sums = [0] * (n + 1), [0] * (n + 1)

    def reduce(r: int) -> tuple[int, int]:
        mask = 0
        while r and basis[top := r.bit_length()]:
            r ^= basis[top]
            mask ^= sums[top]
        return r, mask

    pivots, free = [], []
    for j, col in enumerate(columns):
        r, mask = reduce(_bits(col))
        if r:
            basis[r.bit_length()], sums[r.bit_length()] = r, mask | 1 << j
            pivots.append(j)
        else:
            free.append(j)
    norms = [sum(map(mul, col, col)) for col in columns]
    hadamard = prod(norms[p] for p in pivots)

    def solve2(r: list[int]) -> list[int] | None:
        r, mask = reduce(_bits(r))
        # j is the free column being lifted; an odd digit on a pivot after
        # it means that entry of x is not 0
        return None if r or mask >> j else [p for p in pivots if mask >> p & 1]

    def times(ys: list[int]) -> list[int]:
        return list(map(sum, zip(*[columns[p] for p in ys]))) or [0] * n

    kernel, zero = [], Fraction(0)
    for j in free:
        # an integral solution has |x_p| <= the Hadamard bound of A_P and A_j
        steps = ((hadamard * norms[j]).bit_length() + 1) // 2 + 2
        x, done = lift(list(columns[j]), cols, solve2, times, steps)
        if not done:
            return None
        x[j] = -1
        kernel.append([Fraction(-c) if c else zero for c in x])
    return kernel
