"""Command-line interface.

Deterministic text output by default; ``--json`` switches every subcommand
to a stable JSON schema (``"schema": 1``). The two are renderings of one
result: a subcommand's handler computes the result once, and ``_emit``
builds only the rendering asked for. Exit codes: 0 success, 1
verification failure, 2 usage or parse error.
"""
from __future__ import annotations

import argparse
import json
import signal
import sys
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import chain
from math import comb, prod

from .hopf import HElem, coproduct, parse_helem, print_helem, print_tensor
from .diamond import _diamond_dense, diamond, sigma
from .lincomb import numerators, over
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
from .words import Poly, coefficient_list, parse_poly, poly_from_list, print_poly


def _build_parser() -> argparse.ArgumentParser:
    """The parser; each subcommand stores its handler as ``args.handler``."""
    parser = argparse.ArgumentParser(
        prog="treealg",
        description="Exact computations with rooted trees, their coproduct, "
        "their word-algebra action, and the two-ladder relation family.",
    )
    parser.add_argument("--json", action="store_true", help="emit JSON output")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, handler: Callable, **defaults) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler, **defaults)
        return p

    for name, count, enumerate_, cap in (
        ("trees", count_trees, enumerate_trees, "MAX_TREE_DEGREE"),
        ("forests", count_forests, enumerate_forests, "MAX_FOREST_DEGREE"),
    ):
        p = command(name, f"enumerate rooted {name} of a degree", _listing,
                    count=count, enumerate=enumerate_, cap=cap)
        p.add_argument("degree", type=int)
        p.add_argument("--count-only", action="store_true")

    p = command("coproduct", "tensor expansion of a forest combination", _cmd_coproduct)
    p.add_argument("element")

    p = command("apply", "act with a forest combination on a polynomial", _cmd_apply)
    p.add_argument("element")
    p.add_argument("poly")

    p = command("sigma", "polynomial value of a forest combination", _cmd_sigma)
    p.add_argument("element")

    p = command("diamond", "diamond product of two polynomials", _cmd_diamond)
    p.add_argument("left")
    p.add_argument("right")

    p = command("relation", "build (and verify) a relation instance", _cmd_relation)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--verify", action="store_true")

    p = command("basis", "degree-d basis family", _cmd_basis)
    p.add_argument("degree", type=int)
    p.add_argument("--matrix", action="store_true")
    p.add_argument("--check-mod2", action="store_true")

    p = command("decompose", "coefficients over the basis family", _cmd_decompose)
    p.add_argument("element")

    p = command("kernel", "basis of the degree-d relation space", _cmd_kernel)
    p.add_argument("degree", type=int)

    p = command("selfcheck", "run the built-in verification suite", _cmd_selfcheck)
    p.add_argument("--max-degree", type=int, default=5)

    return parser


def _emit(args: argparse.Namespace, lines: Iterable[str], payload: Callable[[], dict],
          code: int = 0) -> int:
    """Print one rendering of a result and return the exit ``code``: the
    JSON object ``payload()`` under --json, else ``lines``. ``payload`` is
    called only under --json and ``lines`` is read only without it, so a
    handler passes a generator there wherever the text lines cost more
    than strings it has already built."""
    if args.json:
        print(json.dumps({"schema": 1, "command": args.command, **payload()}, sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def _fields(values: dict) -> Iterator[str]:
    """The text lines "key: value" of ``values``, in order."""
    return (f"{k}: {v}" for k, v in values.items())


def _listing(args) -> int:
    """``trees`` and ``forests``: the count alone comes from ``args.count``,
    without enumerating, up to MAX_COUNT_DEGREE; a listing refuses a degree
    above ``args.cap``."""
    if args.count_only:
        _check_degree(args.degree, "MAX_COUNT_DEGREE", "degree")
        n = args.count(args.degree)
        return _emit(args, [str(n)], lambda: {"degree": args.degree, "count": n})
    _check_degree(args.degree, args.cap, "degree")
    encodings = [x.encoding for x in args.enumerate(args.degree)]
    return _emit(
        args,
        encodings,
        lambda: {"degree": args.degree, "count": len(encodings), args.command: encodings},
    )


# The largest output degree that sigma, apply and diamond accept: forest
# degree, forest degree plus word length, and the sum of the word lengths.
# Term counts grow exponentially with it. sigma multiplies tree values on
# coefficient lists: at the cap, sigma of [[]] x 8 takes 0.23-0.35 s and
# 31 MB, and sigma of [[[[]]]] x 4 0.29-0.36 s and 28 MB; with the cap
# raised, sigma of [[]] x 9 (degree 18) takes 0.7-0.8 s and 81 MB, and
# sigma of [[]] x 10 (degree 20) 4.6-5.2 s and 270 MB (2-core x86-64 host,
# Python 3.11, fresh process each). diamond multiplies factors in V_a x V_b,
# whatever their coefficients, on coefficient lists too: at the cap,
# sigma([[]] x 4) with itself takes 0.39-0.45 s and 32 MB; with 1/2 y^8
# added to one factor it took 0.23-0.25 s and 28 MB, as fast as without it
# on the same host that day (0.23 s). Any other input takes the sparse word
# recursion, which binds the cap: sigma([[]] x 4) + x^8 with itself runs out
# of a 3 GB address space after about 100 s. The cap bounds degree, not
# work, and an input that runs out of memory exits 2 with "error: out of
# memory".
MAX_OUTPUT_DEGREE = 16

# The largest degree that kernel accepts: it takes the kernel of the matrix
# of sigma values of all degree-d forests against the 2^(d-1) words ending
# in y. Up to d = 7 the kernel is lifted 2-adically over the GF(2) pivots;
# at d = 8 and 9 those differ from the pivots over Q, and Bareiss
# elimination gives it. In three fresh processes each, kernel 7 took
# 0.08-0.09 s and 16 MB, kernel 8 0.66-0.79 s and 20 MB, and kernel 9, at
# the cap, 12.9-13.6 s and 49 MB; at d = 10 it had not finished after 200 s
# (2-core x86-64 host, Python 3.11).
MAX_DENSE_DEGREE = 9

# The largest degree that decompose accepts. It takes sigma of its input,
# then the sparse solve, which costs more. At the cap, ladder(5) x 2 times
# [[[]]] takes 0.49-0.59 s and 29 MB (sigma 0.02 s of it), and ladder(5) x 2
# times three leaves 0.31-0.44 s; with the cap raised, ladder(6) x 2 [[]]
# (degree 14) takes 0.67-1.09 s and 45 MB (same host).
MAX_DECOMPOSE_DEGREE = 13

# The largest number of terms that coproduct expands, counted before any
# merge by _coproduct_terms; its output grows with it, about 40 bytes of
# text a term. Below the cap, the product of ladders 1..8 and [[]]
# (725,760 terms) takes 2.7-3.3 s and 152 MB (3.9-4.9 s and 308 MB with
# --json); above it, ladders 1..8 and [[][]] (1,451,520) take 4.9-5.7 s
# and 284 MB (7.8-8.7 s and 601 MB), and ladders 1..9 (3,628,800) 15 s and
# 591 MB (same host, fresh process each). Degree alone would not do: a
# 1200-deep ladder has only 1201 terms.
MAX_COPRODUCT_TERMS = 1_000_000

# The largest m + n that relation accepts, with or without --verify. At the
# cap, relation 5 9 --verify takes 0.28-0.29 s and 43 MB, 6 8 --verify
# 0.27-0.31 s and 43 MB, and 7 7 --verify 0.24-0.26 s and 39 MB; with the
# cap raised, relation 7 8 --verify (m+n = 15) takes 0.54-0.61 s and 79 MB,
# and relation 8 8 --verify 0.98-1.28 s and 151 MB. From Python, all three
# routes of every pair with m+n = 16 take 4.4-4.8 s and 308 MB in one
# process, and with m+n = 17 10.5-11.0 s and 713 MB (2-core x86-64 host,
# Python 3.11, fresh process each, three runs). Without --verify only
# f_{m,n} is built, which is cheap (0.1 s for m = n = 20 from Python), but
# one cap keeps the command's budget simple.
MAX_RELATION_DEGREE = 14

# The largest degree that trees and forests accept with --count-only. The
# count needs no enumeration, but its recurrence convolves n big integers
# for each n up to the degree: trees 2000 --count-only takes 2.1-2.7 s and
# 17 MB, trees 2500 6.8 s and trees 3000 12 s (2-core x86-64 host, Python
# 3.11); forests d counts the trees of degree d + 1.
MAX_COUNT_DEGREE = 2000

# The largest degree that the listings accept: trees and forests without
# --count-only, and basis, which lists 2^(d-1) forests. With --matrix, basis
# also builds the dense 2^(d-1) x 2^(d-1) matrix of sigma values; with
# --check-mod2 it packs their parities into 2^(d-1) bit rows and takes one
# GF(2) rank. At the caps, trees 16 takes 4.2-5.5 s and 213 MB, forests 15
# 3.1-3.7 s and 144 MB, basis 19 7.1 s and 216 MB, basis 11 --check-mod2
# 0.40-0.55 s and 45 MB, and basis 11 --matrix 0.79-0.82 s and 53 MB
# (142-143 MB with --json); one degree more takes 14 s and 510 MB (trees
# 17), 8.7 s and 356 MB (forests 16), 14 s and 416 MB (basis 20), 1.35-1.43 s
# and 146 MB (basis 12 --check-mod2, of which the rank is 7 ms: the sigma
# lists hold the memory) and 2.4-2.7 s and 177 MB (530 MB with --json; basis
# 12 --matrix) on the same host (two or three runs each, fresh child,
# address space limited to 3 GB).
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
    return _emit(args, [text], lambda: {
        "input": print_helem(elem),
        "result": text,
        "terms": [
            {"left": f1.encoding, "right": f2.encoding, "coeff": str(c)}
            for (f1, f2), c in sorted(
                result.terms.items(),
                key=lambda kv: (-kv[0][0].degree, kv[0][0].encoding, kv[0][1].encoding),
            )
        ],
    })


def _cmd_apply(args) -> int:
    elem = parse_helem(args.element)
    poly = parse_poly(args.poly)
    _check_degree(elem.max_degree() + poly.max_degree())
    text = print_poly(rtm_apply(elem, poly))
    return _emit(args, [text], lambda: {
        "input": print_helem(elem), "poly": print_poly(poly), "result": text
    })


def _cmd_sigma(args) -> int:
    elem = parse_helem(args.element)
    _check_degree(elem.max_degree())
    text = print_poly(sigma(elem))
    return _emit(args, [text], lambda: {"input": print_helem(elem), "result": text})


def _diamond_product(left: Poly, right: Poly) -> Poly:
    """``diamond(left, right)``. For factors in V_a x V_b it is
    ``_diamond_dense`` on their int numerators (``lincomb.numerators``),
    divided once by their denominators as ``diamond`` divides its sums, and
    no memo is filled."""
    a, b = left.homogeneous_degree(), right.homogeneous_degree()
    if not (a and b and all(w[-1] == "y" for w in chain(left.terms, right.terms))):
        return diamond(left, right)
    (lv, lden), (rv, rden) = numerators(left.terms), numerators(right.terms)
    cv, cw = coefficient_list(Poly._wrap(lv), a), coefficient_list(Poly._wrap(rv), b)
    return Poly._wrap(over(poly_from_list(_diamond_dense(cv, cw)).terms, lden * rden))


def _cmd_diamond(args) -> int:
    left = parse_poly(args.left)
    right = parse_poly(args.right)
    _check_degree(left.max_degree() + right.max_degree())
    text = print_poly(_diamond_product(left, right))
    return _emit(args, [text], lambda: {
        "left": print_poly(left), "right": print_poly(right), "result": text
    })


def _cmd_relation(args) -> int:
    _check_degree(args.m + args.n, "MAX_RELATION_DEGREE", "m+n")
    report = verify_fmn(args.m, args.n) if args.verify else None
    text = print_helem(report.relation if report else build_fmn(args.m, args.n))
    names = ("sigma_is_zero", "rho_x_is_zero", "r_identity_holds")
    checks = {name: getattr(report, name) for name in names} if report else {}
    return _emit(
        args,
        [f"f_{args.m},{args.n} = {text}", *_fields(checks)],
        lambda: {"m": args.m, "n": args.n, "relation": text, **checks},
        0 if (report is None or report.all_ok) else 1,
    )


def _cmd_basis(args) -> int:
    if args.degree < 1:
        raise ValueError("degree must be >= 1")
    dense = args.matrix or args.check_mod2
    _check_degree(args.degree, "MAX_BASIS_MATRIX_DEGREE" if dense else "MAX_BASIS_DEGREE", "degree")
    forests = [f.encoding for f in basis_forests(args.degree)]
    rows = basis_matrix(args.degree).entries if args.matrix else []
    mod2 = {"mod2_invertible": check_mod2_invertible(args.degree)} if args.check_mod2 else {}
    return _emit(
        args,
        chain(forests, (" ".join(map(str, row)) for row in rows), _fields(mod2)),
        lambda: {
            "degree": args.degree,
            "forests": forests,
            **({"matrix": [[str(e) for e in row] for row in rows]} if args.matrix else {}),
            **mod2,
        },
    )


def _cmd_decompose(args) -> int:
    elem = parse_helem(args.element)
    d = elem.homogeneous_degree()
    if d is None or d < 1:
        raise ValueError("element must be homogeneous of degree >= 1")
    _check_degree(d, "MAX_DECOMPOSE_DEGREE", "degree")
    coeffs = {u.encoding: str(c) for u, c in decompose(elem, d).items()}
    return _emit(args, _fields(coeffs), lambda: {
        "input": print_helem(elem), "degree": d, "coefficients": coeffs
    })


def _cmd_kernel(args) -> int:
    _check_degree(args.degree, "MAX_DENSE_DEGREE", "degree")
    texts = [print_helem(k) for k in sigma_kernel(args.degree)]
    return _emit(
        args,
        [f"dimension: {len(texts)}", *(texts or ["(empty)"])],
        lambda: {"degree": args.degree, "dimension": len(texts), "basis": texts},
    )


def _cmd_selfcheck(args) -> int:
    if args.max_degree < 0:
        raise ValueError("--max-degree must be >= 0")
    results = list(run_selfcheck(args.max_degree))
    witnesses = {
        name: dict(zip(("case", "got", "want"), map(repr, w))) for name, w in results if w
    }
    for name, w in witnesses.items():
        print(f"FAIL {name}: case {w['case']} got {w['got']} want {w['want']}", file=sys.stderr)
    return _emit(
        args,
        [
            *(f"{'FAIL' if w else 'ok  '} {name}" for name, w in results),
            "selfcheck FAILED" if witnesses else "selfcheck passed",
        ],
        lambda: {
            "max_degree": args.max_degree,
            "checks": {name: not w for name, w in results},
            "passed": not witnesses,
            **({"witnesses": witnesses} if witnesses else {}),
        },
        1 if witnesses else 0,
    )


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
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
