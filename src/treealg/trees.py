"""Canonical non-planar rooted trees and forests.

A tree is written in bracket notation, ``tree := "[" tree* "]"``; a forest
is ``"1"`` (the empty forest) or a space-separated product of trees.
Children and forest components are kept sorted by their bracket encoding,
so structural equality coincides with encoding equality. Trees and forests
are interned, so equal means identical: each pool is keyed by the sorted
tuple of children or trees, whose members are interned and hash by
identity, so a pool hit costs the number of children, not the size of the
tree, and the encoding is built only on a miss. ``Tree._pool`` and
``Forest._pool`` hold that identity, not a cache, and must never be cleared.
"""
from __future__ import annotations

from functools import cache
from typing import Iterable, Iterator


class ForestSyntaxError(ValueError):
    """Bracket-grammar violation, with the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


def _tree_key(t: "Tree") -> tuple[int, str]:
    # total order on trees: degree first, then encoding; puts the leaf
    # before any larger tree, matching the canonical printed forms
    return (t.degree, t.encoding)


class Tree:
    """An unordered rooted tree, immutable and interned."""

    __slots__ = ("children", "encoding", "degree")

    _pool: dict[tuple["Tree", ...], "Tree"] = {}

    def __new__(cls, children: Iterable["Tree"] = ()) -> "Tree":
        kids = tuple(sorted(children, key=_tree_key))
        cached = cls._pool.get(kids)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.children = kids
        self.encoding = "[" + "".join(k.encoding for k in kids) + "]"
        self.degree = 1 + sum(k.degree for k in kids)
        cls._pool[kids] = self
        return self

    def __reduce__(self):
        # copies and unpickled objects are rebuilt through the pool
        return (Tree, (self.children,))

    def __repr__(self) -> str:
        return f"Tree({self.encoding!r})"

    def as_forest(self) -> "Forest":
        return Forest((self,))

    def child_forest(self) -> "Forest":
        """The unique forest f with self = bplus(f)."""
        return Forest(self.children)


class Forest:
    """A commutative multiset of rooted trees, immutable and interned; the
    empty forest is the unit."""

    __slots__ = ("trees", "encoding", "degree")

    _pool: dict[tuple[Tree, ...], "Forest"] = {}

    def __new__(cls, trees: Iterable[Tree] = ()) -> "Forest":
        ts = tuple(sorted(trees, key=_tree_key))
        cached = cls._pool.get(ts)
        if cached is not None:
            return cached
        self = object.__new__(cls)
        self.trees = ts
        self.encoding = " ".join(t.encoding for t in ts) if ts else "1"
        self.degree = sum(t.degree for t in ts)
        cls._pool[ts] = self
        return self

    def __reduce__(self):
        return (Forest, (self.trees,))

    def __repr__(self) -> str:
        return f"Forest({self.encoding!r})"


LEAF = Tree(())
EMPTY_FOREST = Forest(())


def bplus(f: Forest) -> Tree:
    """Graft every root of f onto one new common root; bplus(1) is the leaf."""
    return Tree(f.trees)


def forest_product(f: Forest, g: Forest) -> Forest:
    """Disjoint union of forests (commutative, unit EMPTY_FOREST)."""
    return Forest(f.trees + g.trees)


@cache
def ladder(n: int, f: Forest = EMPTY_FOREST) -> Forest:
    """f wrapped in n successive graftings: by default the chain with n
    vertices, as a forest; ladder(0, f) is f itself. Cached: the values are
    interned forests, so the cache holds only references."""
    if n < 0:
        raise ValueError("ladder length must be >= 0")
    for _ in range(n):
        f = bplus(f).as_forest()
    return f


def parse_forest(text: str) -> Forest:
    """Parse bracket notation; insensitive to child order and whitespace.

    Open brackets wait on an explicit stack of (position, children), so the
    nesting depth is not bounded by the Python stack."""
    if text.strip() == "1":
        return EMPTY_FOREST
    trees: list[Tree] = []
    stack: list[tuple[int, list[Tree]]] = []
    for i, c in enumerate(text):
        if c == "[":
            stack.append((i, []))
        elif c == "]" and stack:
            t = Tree(stack.pop()[1])
            (stack[-1][1] if stack else trees).append(t)
        elif not c.isspace():
            raise ForestSyntaxError(f"unexpected character {c!r}", i)
    if stack:
        raise ForestSyntaxError("unbalanced '['", stack[-1][0])
    if not trees:
        raise ForestSyntaxError("empty forest text", 0)
    return Forest(trees)


def count_trees(n: int) -> int:
    """The number of trees with n vertices (OEIS A000081), not enumerated:
    a(n+1) = (1/n) sum_{k=1..n} s(k) a(n+1-k), s(k) = sum_{e | k} e a(e)."""
    if n < 1:
        raise ValueError("tree degree must be >= 1")
    a, s = [0, 1], [0]
    for k in range(1, n):
        s.append(sum(e * a[e] for e in range(1, k + 1) if k % e == 0))
        a.append(sum(s[j] * a[k + 1 - j] for j in range(1, k + 1)) // k)
    return a[n]


def count_forests(n: int) -> int:
    """The number of forests with n vertices: bplus maps them one to one
    onto the trees with n + 1 vertices."""
    if n < 0:
        raise ValueError("forest degree must be >= 0")
    return count_trees(n + 1)


@cache
def enumerate_trees(n: int) -> tuple[Tree, ...]:
    """All canonical trees with n vertices, in encoding order."""
    if n < 1:
        raise ValueError("tree degree must be >= 1")
    if n == 1:
        return (LEAF,)
    return tuple(
        sorted((bplus(f) for f in enumerate_forests(n - 1)), key=lambda t: t.encoding)
    )


@cache
def enumerate_forests(n: int) -> tuple[Forest, ...]:
    """All canonical forests with n vertices, in encoding order."""
    if n < 0:
        raise ValueError("forest degree must be >= 0")
    if n == 0:
        return (EMPTY_FOREST,)
    # ascending degree: the first tree heavier than what remains ends a scan
    pool = [t for d in range(1, n + 1) for t in enumerate_trees(d)]

    def pick(remaining: int, start: int) -> Iterator[tuple[Tree, ...]]:
        if remaining == 0:
            yield ()
            return
        for i in range(start, len(pool)):
            t = pool[i]
            if t.degree > remaining:
                break
            for rest in pick(remaining - t.degree, i):
                yield (t,) + rest

    return tuple(sorted((Forest(ts) for ts in pick(n, 0)), key=lambda f: f.encoding))
