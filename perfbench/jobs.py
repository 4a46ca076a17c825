"""The four benchmark jobs, the checks they make and the spans they record.

Each job calls only the public ``treealg`` API and checks every result
exactly. A check is one op. Checks are grouped in blocks, one block per
input item, each with its planned number of checks: an exception inside a
block fails the checks of that block not yet made, so a broken route shows
as a larger failed share rather than as a missing number.

This module does not import ``treealg`` itself: the parent process uses
``WORKLOADS``, ``SIZES`` and ``planned_ops`` without loading the program
under test, and the child passes the imported package to ``run_job``.
"""
from __future__ import annotations

import random
import sys
import traceback
from contextlib import contextmanager
from itertools import product
from time import perf_counter

WORKLOADS = ("relations", "basis", "kernel", "action")

# Sized so that one fresh child (set-up, cold pass, warm pass and references)
# takes 1 to 3.5 s on a 2-core host: 8 to 30 children in a 30 s run.
SIZES = {
    "relations": {"max_total": 8},
    "basis": {"max_degree": 7},
    "kernel": {"max_degree": 6, "decompose_degree": 6, "combos": 4},
    "action": {"nullity_total": 6, "nullity_word": 4, "bridge_degree": 4, "bridge_word": 4},
}

# Number of forests of each degree (= number of rooted trees of one degree more).
FOREST_COUNTS = (1, 1, 2, 4, 9, 20, 48, 115, 286)
# Dimension of the kernel of sigma in each degree: #forests - 2^(d-1).
KERNEL_DIMS = (None, 0, 0, 0, 1, 4, 16, 51, 158)
# Nonzero coefficients of the random combinations passed to decompose.
COEFFS = (-3, -2, -1, 1, 2, 3)


def words(lo: int, hi: int) -> list[str]:
    """All words over {x, y} of length lo..hi, shortest first."""
    return ["".join(p) for n in range(lo, hi + 1) for p in product("xy", repeat=n)]


def relation_pairs(max_total: int) -> list[tuple[int, int]]:
    """All (m, n) with m, n >= 1 and m + n <= max_total."""
    return [(m, t - m) for t in range(2, max_total + 1) for m in range(1, t)]


def planned_ops(workload: str, size: dict) -> int:
    """Checks one pass of the job makes when nothing fails."""
    if workload == "relations":
        return 3 * len(relation_pairs(size["max_total"]))
    if workload == "basis":
        return 4 * size["max_degree"]
    if workload == "kernel":
        degrees = range(1, size["max_degree"] + 1)
        return sum(2 + KERNEL_DIMS[d] for d in degrees) + size["combos"]
    if workload == "action":
        nullity = len(relation_pairs(size["nullity_total"])) * (
            2 + len(words(1, size["nullity_word"]))
        )
        bridge_words = len(words(0, size["bridge_word"]))
        bridge = sum(
            1 + FOREST_COUNTS[d] * bridge_words for d in range(size["bridge_degree"] + 1)
        )
        return nullity + bridge
    raise ValueError(f"unknown workload {workload!r}")


def _terms(result) -> int | None:
    """Exact size of a returned value: terms of a polynomial, combination or
    tensor, nonzero matrix entries, or the items of a returned sequence."""
    if hasattr(result, "terms"):
        return len(result.terms)
    if hasattr(result, "entries"):
        return sum(1 for row in result.entries for e in row if e)
    if isinstance(result, dict):
        return sum(1 for c in result.values() if c)
    if isinstance(result, (list, tuple)):
        if result and hasattr(result[0], "terms"):
            return sum(len(e.terms) for e in result)
        return len(result)
    return None


class Run:
    """One pass of one job: its check tally and, when traced, its spans.

    A span is a dict with the keys name, start, end, parent (index of the
    enclosing span in ``spans``, or None) and terms. Spans stay in memory.
    ``checkpoint``, if given, is called before every call into a layer,
    outside its span.
    """

    def __init__(self, traced: bool, checkpoint=None):
        self.traced = traced
        self.checkpoint = checkpoint
        self.attempted = 0
        self.failed = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.traced:
            yield None
            return
        record = {
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "terms": None,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args):
        """Call one public function of a layer, inside a span when traced."""
        if self.checkpoint is not None:
            self.checkpoint()
        if not self.traced:
            return fn(*args)
        with self.span(name) as record:
            result = fn(*args)
        record["terms"] = _terms(result)
        return result

    @contextmanager
    def ops(self, planned: int):
        """A block of ``planned`` checks on one input item."""
        target = self.attempted + planned
        try:
            yield
        except Exception:
            if not self.failed:
                traceback.print_exc()
        if self.attempted > target:
            raise RuntimeError("block made more checks than planned")
        missed = target - self.attempted
        self.attempted += missed
        self.failed += missed

    def check(self, ok, *what) -> None:
        self.attempted += 1
        if not ok:
            if not self.failed:
                print("check failed:", *what, file=sys.stderr)
            self.failed += 1


def relations(run: Run, T, rng: random.Random, max_total: int) -> None:
    """The three independent vanishing routes of f_{m,n}, as verify_fmn runs them."""
    pairs = relation_pairs(max_total)
    rng.shuffle(pairs)
    for m, n in pairs:
        with run.ops(3):
            rel = run.call("relations.build_fmn", T.build_fmn, m, n)
            run.check(run.call("diamond.sigma", T.sigma, rel).is_zero(), "sigma", m, n)
            run.check(run.call("rtm.rho_is_zero_on_x", T.rho_is_zero_on_x, rel), "rho_x", m, n)
            run.check(
                run.call("relations.verify_r_identity", T.verify_r_identity, m, n),
                "r_identity", m, n,
            )


def basis(run: Run, T, rng: random.Random, max_degree: int) -> None:
    """Size, Q-rank and mod-2 invertibility of the basis family per degree."""
    degrees = list(range(1, max_degree + 1))
    rng.shuffle(degrees)
    for d in degrees:
        with run.ops(4):
            size = 2 ** (d - 1)
            family = T.basis_forests(d)
            run.check(len(family) == size, "family size", d)
            # sigma first, so that the basis_matrix span is mostly linalg
            for u in family:
                run.call("diamond.sigma_forest", T.sigma_forest, u)
            mat = run.call("linalg.basis_matrix", T.basis_matrix, d)
            run.check(run.call("linalg.RationalMatrix.rank", mat.rank) == size, "Q-rank", d)
            bits = mat.mod2()
            run.check(run.call("linalg.BitMatrix.rank", bits.rank) == size, "GF(2) rank", d)
            run.check(
                run.call("linalg.check_mod2_invertible", T.check_mod2_invertible, d),
                "mod-2 invertible", d,
            )


def kernel(
    run: Run, T, rng: random.Random, max_degree: int, decompose_degree: int, combos: int
) -> None:
    """Kernel dimensions and vectors of sigma, then decompositions over the basis."""
    degrees = list(range(1, max_degree + 1))
    rng.shuffle(degrees)
    for d in degrees:
        dim = KERNEL_DIMS[d]
        with run.ops(2 + dim):
            forests = run.call("trees.enumerate_forests", T.enumerate_forests, d)
            run.check(len(forests) == FOREST_COUNTS[d], "forest count", d)
            # sigma first, so that the sigma_kernel span is mostly linalg
            for f in forests:
                run.call("diamond.sigma_forest", T.sigma_forest, f)
            vectors = run.call("linalg.sigma_kernel", T.sigma_kernel, d)
            run.check(len(vectors) == dim, "kernel dimension", d)
            for v in vectors[:dim]:
                run.check(run.call("diamond.sigma", T.sigma, v).is_zero(), "kernel vector", d, v)
    pool = T.enumerate_forests(decompose_degree)
    for _ in range(combos):
        with run.ops(1):
            f = T.HElem({u: rng.choice(COEFFS) for u in rng.sample(pool, 3)})
            target = run.call("diamond.sigma", T.sigma, f)
            coeffs = run.call("linalg.decompose", T.decompose, f, decompose_degree)
            back = run.call("diamond.sigma", T.sigma, T.HElem(coeffs))
            run.check(back == target, "decompose", f)


def action(
    run: Run,
    T,
    rng: random.Random,
    nullity_total: int,
    nullity_word: int,
    bridge_degree: int,
    bridge_word: int,
) -> None:
    """Full-map nullity and counit laws of f_{m,n}, then the bridge identity
    f(xw) = x(sigma(f) <> w) over all small forests and words."""
    pairs = relation_pairs(nullity_total)
    rng.shuffle(pairs)
    nullity_words = words(1, nullity_word)
    for m, n in pairs:
        with run.ops(2 + len(nullity_words)):
            rel = run.call("relations.build_fmn", T.build_fmn, m, n)
            delta = run.call("hopf.coproduct", T.coproduct, rel)
            for side in (0, 1):
                counit = {
                    pair[1 - side]: c
                    for pair, c in delta.terms.items()
                    if pair[side] == T.EMPTY_FOREST
                }
                run.check(T.HElem(counit) == rel, "counit", side, m, n)
            for w in nullity_words:
                value = run.call("rtm.rtm_apply", T.rtm_apply, rel, T.Poly.from_word(w))
                run.check(value.is_zero(), "nullity", m, n, w)
    x = T.Poly.from_word("x")
    bridge_words = [T.Poly.from_word(w) for w in words(0, bridge_word)]
    for d in range(bridge_degree + 1):
        count = FOREST_COUNTS[d]
        with run.ops(1 + count * len(bridge_words)):
            forests = list(run.call("trees.enumerate_forests", T.enumerate_forests, d))
            run.check(len(forests) == count, "forest count", d)
            rng.shuffle(forests)
            for f in forests[:count]:
                value = run.call("diamond.sigma_forest", T.sigma_forest, f)
                elem = T.HElem.from_forest(f)
                for p in bridge_words:
                    lhs = run.call("rtm.rtm_apply", T.rtm_apply, elem, x * p)
                    rhs = x * run.call("diamond.diamond", T.diamond, value, p)
                    run.check(lhs == rhs, "bridge", f, p)


JOBS = {"relations": relations, "basis": basis, "kernel": kernel, "action": action}


def run_job(workload: str, run: Run, T, seed: int, size: dict) -> None:
    """One pass of a job; every pass with the same seed makes the same inputs."""
    with run.span("bench." + workload):
        JOBS[workload](run, T, random.Random(seed), **size)
