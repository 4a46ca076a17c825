"""Command-line interface.

Deterministic text output by default; ``--json`` switches every subcommand
to a stable JSON schema (``"schema": 1``). Exit codes: 0 success, 1
verification failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import Counter
from math import comb, prod

from .hopf import HElem, coproduct, parse_helem, print_helem, print_tensor
from .diamond import diamond, sigma
from .linalg import (
    basis_forests,
    basis_matrix,
    check_mod2_invertible,
    decompose,
    sigma_kernel,
)
from .relations import build_fmn, verify_fmn
from .rtm import rtm_apply
from .selfcheck import run_selfcheck
from .trees import count_forests, count_trees, enumerate_forests, enumerate_trees
from .words import parse_poly, print_poly


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treealg",
        description="Exact computations with rooted trees, their coproduct, "
        "their word-algebra action, and the two-ladder relation family.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trees", help="enumerate rooted trees of a degree")
    p.add_argument("degree", type=int)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("forests", help="enumerate rooted forests of a degree")
    p.add_argument("degree", type=int)
    p.add_argument("--count-only", action="store_true")

    p = sub.add_parser("coproduct", help="tensor expansion of a forest combination")
    p.add_argument("element")

    p = sub.add_parser("apply", help="act with a forest combination on a polynomial")
    p.add_argument("element")
    p.add_argument("poly")

    p = sub.add_parser("sigma", help="polynomial value of a forest combination")
    p.add_argument("element")

    p = sub.add_parser("diamond", help="diamond product of two polynomials")
    p.add_argument("left")
    p.add_argument("right")

    p = sub.add_parser("relation", help="build (and verify) a relation instance")
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true")

    p = sub.add_parser("basis", help="degree-d basis family")
    p.add_argument("degree", type=int)
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--check-mod2", action="store_true")

    p = sub.add_parser("decompose", help="coefficients over the basis family")
    p.add_argument("element")

    p = sub.add_parser("kernel", help="basis of the degree-d relation space")
    p.add_argument("degree", type=int)

    p = sub.add_parser("selfcheck", help="run the built-in verification suite")
    p.add_argument("--max-degree", type=int, default=5)

    return parser


def _emit(args: argparse.Namespace, text_lines: list[str], payload: dict) -> None:
    if args.json:
        payload = {"schema": 1, "command": args.command, **payload}
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _listing(args, count, enumerate_, key: str, cap: str) -> int:
    """``trees`` and ``forests``: the count alone comes from ``count``,
    without enumerating; a listing refuses a degree above ``cap``."""
    if args.count_only:
        n = count(args.degree)
        _emit(args, [str(n)], {"degree": args.degree, "count": n})
        return 0
    _check_degree(args.degree, cap, "degree")
    encodings = [x.encoding for x in enumerate_(args.degree)]
    _emit(args, encodings, {"degree": args.degree, "count": len(encodings), key: encodings})
    return 0


# The largest output degree that sigma, apply and diamond accept: forest
# degree, forest degree plus word length, and the sum of the word lengths.
# Term counts grow exponentially with it, and products of [[]] cost far more
# than products of leaves. At the cap, the slowest of the products of [[]]
# and their mixes with leaves, sigma of [[]] x 8, takes 2.3-3.4 s and
# 213 MB; one degree more, sigma of [[]] x 8 [], takes 8.2 s and 431 MB,
# and at degree 18 sigma of [[]] x 9 takes 19 s and 870 MB (2-core x86-64
# host, Python 3.11). Products of deeper ladders cost more again: sigma of
# [[[[]]]] x 4, at the cap, takes 30 s and 1.8 GB. The cap bounds degree,
# not work, and an input that runs out of memory exits 2 with
# "error: out of memory".
MAX_OUTPUT_DEGREE = 16

# The largest degree that kernel accepts: it eliminates the matrix of sigma
# values of all degree-d forests against the 2^(d-1) words ending in y. At
# the cap, kernel 9 takes 23 s and 73 MB; at d = 10 it had not finished
# after 200 s (2-core x86-64 host, Python 3.11).
MAX_DENSE_DEGREE = 9

# The largest degree that decompose accepts. It takes sigma of its input
# first, and that, not the sparse solve (about 0.5 s at the cap), bounds
# it. At the cap, the slowest of the products of ladders and leaves,
# ladder(5) x 2 times [[[]]] or three leaves, takes 1.8-2.1 s and 164-172 MB;
# at degree 14, ladder(6) x 2 [[]] takes 8.4 s and 620 MB (same host).
MAX_DECOMPOSE_DEGREE = 13

# The largest number of terms that coproduct expands, counted before any
# merge by _coproduct_terms; its output grows with it, about 40 bytes of
# text a term. Below the cap, the product of ladders 1..8 and [[]]
# (725,760 terms) takes 5.0 s and 210 MB (5.9 s and 342 MB with --json);
# above it, ladders 1..8 and [[][]] (1,451,520) take 9.7 s and 405 MB
# (11.5 s and 632 MB), and ladders 1..9 (3,628,800) 16-26 s and 865 MB
# (same host). Degree alone would not do: a 1200-deep ladder has only 1201
# terms.
MAX_COPRODUCT_TERMS = 1_000_000

# The largest m + n that relation accepts, with or without --verify. At the
# cap, the slowest pair, relation 6 7 --verify, takes 3.0 s and 222 MB;
# relation 7 7 --verify takes 8.5 s and 509 MB (2-core x86-64 host, Python
# 3.11). Without --verify only f_{m,n} is built, which is cheap (0.1 s for
# m = n = 20 from Python), but one cap keeps the command's budget simple.
MAX_RELATION_DEGREE = 13

# The largest degree that the listings accept: trees and forests without
# --count-only, and basis, which lists 2^(d-1) forests. With --matrix, basis
# also builds the dense 2^(d-1) x 2^(d-1) matrix of sigma values; with
# --check-mod2 it packs their parities into 2^(d-1) bit rows and takes one
# GF(2) rank. At the caps, trees 16 takes 4.2-5.5 s and 213 MB, forests 15
# 3.1-3.7 s and 144 MB, basis 19 7.1 s and 216 MB, basis 11 --check-mod2
# 2.4-2.9 s and 70 MB, and basis 11 --matrix 2.5-3.8 s and 156 MB; one
# degree more takes 14 s and 510 MB (trees 17), 8.7 s and 356 MB (forests
# 16), 14 s and 416 MB (basis 20), 10-12 s and 244 MB (basis 12
# --check-mod2) and 9.3-12 s and 589 MB (basis 12 --matrix) on the same
# host (two runs each, child address space limited to 3 GB).
MAX_TREE_DEGREE = 16
MAX_FOREST_DEGREE = 15
MAX_BASIS_DEGREE = 19
MAX_BASIS_MATRIX_DEGREE = 11


def _check_degree(degree: int, cap: str = "MAX_OUTPUT_DEGREE", kind: str = "output degree") -> None:
    """Refuse ``degree`` above the module constant named ``cap``, naming it."""
    limit = globals()[cap]
    if degree > limit:
        raise ValueError(f"{kind} {degree} is above the cap {cap} = {limit}")


def _coproduct_terms(elem: HElem) -> int:
    """The number of tensor terms that expanding the coproduct of ``elem``
    makes: the sum over its forests of the product over their distinct trees
    t, with multiplicity m, of C(|delta(t)| + m - 1, m), the multisets of m
    terms of delta(t); |delta(bplus(f))| = 1 + |delta(f)|. Trees are sized
    from a worklist, not the Python stack."""
    size: dict = {}

    def forest_size(trees) -> int:
        return prod(comb(size[t] + m - 1, m) for t, m in Counter(trees).items())

    todo = [t for f in elem.terms for t in f.trees]
    while todo:
        t = todo[-1]
        missing = [c for c in t.children if c not in size]
        if missing:
            todo += missing
            continue
        todo.pop()
        size[t] = 1 + forest_size(t.children)
    return sum(forest_size(f.trees) for f in elem.terms)


def _cmd_coproduct(args) -> int:
    elem = parse_helem(args.element)
    _check_degree(_coproduct_terms(elem), "MAX_COPRODUCT_TERMS", "coproduct term count")
    result = coproduct(elem)
    text = print_tensor(result)
    _emit(
        args,
        [text],
        {
            "input": print_helem(elem),
            "result": text,
            "terms": [
                {"left": f1.encoding, "right": f2.encoding, "coeff": str(c)}
                for (f1, f2), c in sorted(
                    result.terms.items(),
                    key=lambda kv: (-kv[0][0].degree, kv[0][0].encoding, kv[0][1].encoding),
                )
            ],
        },
    )
    return 0


def _cmd_apply(args) -> int:
    elem = parse_helem(args.element)
    poly = parse_poly(args.poly)
    _check_degree(elem.max_degree() + poly.max_degree())
    result = rtm_apply(elem, poly)
    text = print_poly(result)
    _emit(args, [text], {"input": print_helem(elem), "poly": print_poly(poly), "result": text})
    return 0


def _cmd_sigma(args) -> int:
    elem = parse_helem(args.element)
    _check_degree(elem.max_degree())
    text = print_poly(sigma(elem))
    _emit(args, [text], {"input": print_helem(elem), "result": text})
    return 0


def _cmd_diamond(args) -> int:
    left = parse_poly(args.left)
    right = parse_poly(args.right)
    _check_degree(left.max_degree() + right.max_degree())
    text = print_poly(diamond(left, right))
    _emit(
        args,
        [text],
        {"left": print_poly(left), "right": print_poly(right), "result": text},
    )
    return 0


def _cmd_relation(args) -> int:
    _check_degree(args.m + args.n, "MAX_RELATION_DEGREE", "m+n")
    report = verify_fmn(args.m, args.n) if args.verify else None
    relation_text = print_helem(report.relation if report else build_fmn(args.m, args.n))
    lines = [f"f_{args.m},{args.n} = {relation_text}"]
    payload: dict = {"m": args.m, "n": args.n, "relation": relation_text}
    if args.verify:
        lines += [
            f"sigma_is_zero: {report.sigma_is_zero}",
            f"rho_x_is_zero: {report.rho_x_is_zero}",
            f"r_identity_holds: {report.r_identity_holds}",
        ]
        payload.update(
            sigma_is_zero=report.sigma_is_zero,
            rho_x_is_zero=report.rho_x_is_zero,
            r_identity_holds=report.r_identity_holds,
        )
    _emit(args, lines, payload)
    return 0 if (report is None or report.all_ok) else 1


def _cmd_basis(args) -> int:
    if args.degree < 1:
        raise ValueError("degree must be >= 1")
    dense = args.matrix or args.check_mod2
    _check_degree(args.degree, "MAX_BASIS_MATRIX_DEGREE" if dense else "MAX_BASIS_DEGREE", "degree")
    forests = basis_forests(args.degree)
    lines = [f.encoding for f in forests]
    payload: dict = {
        "degree": args.degree,
        "forests": [f.encoding for f in forests],
    }
    if args.matrix:
        mat = basis_matrix(args.degree)
        lines += [" ".join(str(e) for e in row) for row in mat.entries]
        payload["matrix"] = [[str(e) for e in row] for row in mat.entries]
    if args.check_mod2:
        ok = check_mod2_invertible(args.degree)
        lines.append(f"mod2_invertible: {ok}")
        payload["mod2_invertible"] = ok
    _emit(args, lines, payload)
    return 0


def _cmd_decompose(args) -> int:
    elem = parse_helem(args.element)
    d = elem.homogeneous_degree()
    if d is None or d < 1:
        raise ValueError("element must be homogeneous of degree >= 1")
    _check_degree(d, "MAX_DECOMPOSE_DEGREE", "degree")
    coeffs = decompose(elem, d)
    lines = [
        f"{u.encoding}: {c}" for u, c in coeffs.items()
    ]
    _emit(
        args,
        lines,
        {
            "input": print_helem(elem),
            "degree": d,
            "coefficients": {u.encoding: str(c) for u, c in coeffs.items()},
        },
    )
    return 0


def _cmd_kernel(args) -> int:
    _check_degree(args.degree, "MAX_DENSE_DEGREE", "degree")
    kernel = sigma_kernel(args.degree)
    lines = [print_helem(k) for k in kernel] or ["(empty)"]
    _emit(
        args,
        [f"dimension: {len(kernel)}"] + lines,
        {
            "degree": args.degree,
            "dimension": len(kernel),
            "basis": [print_helem(k) for k in kernel],
        },
    )
    return 0


def _cmd_selfcheck(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    results = list(run_selfcheck(args.max_degree))
    lines = [f"{'FAIL' if w else 'ok  '} {name}" for name, w in results]
    witnesses = {
        name: dict(zip(("case", "got", "want"), map(repr, w))) for name, w in results if w
    }
    for name, w in witnesses.items():
        print(f"FAIL {name}: case {w['case']} got {w['got']} want {w['want']}", file=sys.stderr)
    lines.append("selfcheck FAILED" if witnesses else "selfcheck passed")
    payload = {
        "max_degree": args.max_degree,
        "checks": {name: not w for name, w in results},
        "passed": not witnesses,
    }
    if witnesses:
        payload["witnesses"] = witnesses
    _emit(args, lines, payload)
    return 1 if witnesses else 0


_DISPATCH = {
    "trees": lambda args: _listing(
        args, count_trees, enumerate_trees, "trees", "MAX_TREE_DEGREE"
    ),
    "forests": lambda args: _listing(
        args, count_forests, enumerate_forests, "forests", "MAX_FOREST_DEGREE"
    ),
    "coproduct": _cmd_coproduct,
    "apply": _cmd_apply,
    "sigma": _cmd_sigma,
    "diamond": _cmd_diamond,
    "relation": _cmd_relation,
    "basis": _cmd_basis,
    "decompose": _cmd_decompose,
    "kernel": _cmd_kernel,
    "selfcheck": _cmd_selfcheck,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    # a reader that closes the pipe early (``| head``) ends the process
    # quietly, as it does any filter; exit 1 means a failed verification
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run())


if __name__ == "__main__":
    main()
