import contextlib
import io
import json
import os
import resource
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import treealg
from treealg import cli, selfcheck
from treealg.cli import MAX_DECOMPOSE_DEGREE, MAX_DENSE_DEGREE, MAX_OUTPUT_DEGREE, run
from treealg.diamond import _diamond_dense
from treealg.words import coefficient_list, poly_from_list, print_poly

from conftest import follows_coefficient_rule

# Exact stdout, text and --json, of one command per algebra subcommand: any
# refactor of the combination classes or their printers must keep it.
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumeration:
    def test_tree_count(self, capsys):
        code, out, _ = invoke(capsys, "trees", "10", "--count-only")
        assert code == 0
        assert out.strip() == "719"

    def test_tree_listing(self, capsys):
        code, out, _ = invoke(capsys, "trees", "3")
        assert code == 0
        assert out.splitlines() == ["[[[]]]", "[[][]]"]

    def test_forests(self, capsys):
        code, out, _ = invoke(capsys, "forests", "3")
        assert code == 0
        assert out.splitlines() == ["[[[]]]", "[[][]]", "[] [[]]", "[] [] []"]

    def test_json_mode(self, capsys):
        code, out, _ = invoke(capsys, "--json", "trees", "4", "--count-only")
        assert code == 0
        payload = json.loads(out)
        assert payload == {
            "schema": 1,
            "command": "trees",
            "degree": 4,
            "count": 4,
        }

    @pytest.mark.parametrize("command", ["trees", "forests"])
    def test_counts_without_enumeration(self, capsys, command):
        listing = {"trees": treealg.enumerate_trees, "forests": treealg.enumerate_forests}
        for n in range(0 if command == "forests" else 1, 11):
            count = len(listing[command](n))
            if command == "trees":
                assert count == selfcheck.TREE_COUNTS[n - 1]
            assert invoke(capsys, command, str(n), "--count-only") == (0, f"{count}\n", "")
            code, out, err = invoke(capsys, "--json", command, str(n), "--count-only")
            expected = {"schema": 1, "command": command, "degree": n, "count": count}
            assert (code, out, err) == (0, json.dumps(expected, sort_keys=True) + "\n", "")
            code, out, _ = invoke(capsys, "--json", command, str(n))
            assert json.loads(out)["count"] == count

    def test_count_far_beyond_enumeration(self, capsys):
        assert invoke(capsys, "trees", "30", "--count-only") == (0, "354426847597\n", "")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("trees", "0", "--count-only"), "tree degree must be >= 1"),
            (("trees", "-2"), "tree degree must be >= 1"),
            (("forests", "-1", "--count-only"), "forest degree must be >= 0"),
        ],
    )
    def test_counts_out_of_range(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


class TestAlgebraCommands:
    def test_apply(self, capsys):
        code, out, _ = invoke(capsys, "apply", "[] []", "x")
        assert code == 0
        assert out.strip() == "-xxy + xyy"

    def test_coproduct(self, capsys):
        code, out, _ = invoke(capsys, "coproduct", "[] []")
        assert code == 0
        assert out.strip() == "([] [] (x) 1) + 2*([] (x) []) + (1 (x) [] [])"

    def test_sigma(self, capsys):
        code, out, _ = invoke(capsys, "sigma", "[[]]")
        assert code == 0
        assert out.strip() == "xy + 2yy"

    def test_diamond(self, capsys):
        code, out, _ = invoke(capsys, "diamond", "y", "y")
        assert code == 0
        assert out.strip() == "-xy + yy"

    def test_decompose(self, capsys):
        code, out, _ = invoke(capsys, "decompose", "[[][]]")
        assert code == 0
        lines = dict(line.split(": ") for line in out.splitlines())
        assert lines["[[][]]"] == "1"

    def test_kernel(self, capsys):
        code, out, _ = invoke(capsys, "kernel", "4")
        assert code == 0
        assert out.splitlines()[0] == "dimension: 1"

    def test_basis(self, capsys):
        code, out, _ = invoke(capsys, "basis", "2", "--matrix", "--check-mod2")
        assert code == 0
        lines = out.splitlines()
        assert lines[:2] == ["[[]]", "[] []"]
        assert lines[2:4] == ["1 2", "-1 1"]
        assert lines[4] == "mod2_invertible: True"


class TestGoldenOutput:
    @pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
    def test_byte_identical(self, capsys, case):
        code, out, err = invoke(capsys, *case["argv"])
        assert code == case["exit"]
        assert out == case["stdout"]
        assert err == ""


def _module_env():
    src = str(Path(treealg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def _run_module(*argv, preexec_fn=None):
    """``python -m treealg *argv`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "treealg", *argv],
        capture_output=True,
        text=True,
        env=_module_env(),
        timeout=60,
        preexec_fn=preexec_fn,
    )


class TestModuleEntryPoint:
    def test_import_treealg_loads_no_cli(self):
        # the library's importers (perfbench's children among them) do not
        # pay for compiling the CLI, the selfcheck suite or the values on x
        # that only rho_is_zero_on_x needs
        done = subprocess.run(
            [sys.executable, "-c", "import sys, treealg; print(*sys.modules, sep='\\n')"],
            capture_output=True,
            text=True,
            env=_module_env(),
            timeout=60,
        )
        assert (done.returncode, done.stderr) == (0, "")
        loaded = set(done.stdout.split())
        assert "treealg.linalg" in loaded
        assert not {"treealg.cli", "treealg.selfcheck", "treealg.value_on_x"} & loaded

    def test_python_dash_m(self):
        done = _run_module("sigma", "[[]]")
        assert done.returncode == 0
        assert done.stdout == "xy + 2yy\n"
        assert done.stderr == ""

    def test_reader_closing_the_pipe_early(self):
        # trees 12 prints about 110 kB, more than a pipe holds, so the
        # process is still writing when its reader goes away (| head -1)
        proc = subprocess.Popen(
            [sys.executable, "-m", "treealg", "trees", "12"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=_module_env(),
        )
        assert proc.stdout.readline() == b"[[[[[[[[[[[[]]]]]]]]]]]]\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        code = proc.wait(timeout=60)
        assert err == b""
        assert code != 1
        if hasattr(signal, "SIGPIPE"):
            assert code == -signal.SIGPIPE


# Polynomials in V_a (a <= 4), sometimes with a word ending in x or of
# another length added; int, Fraction and mixed coefficients.
_INTS = st.sampled_from([-2, -1, 1, 3])
_FRACTIONS = st.sampled_from([Fraction(1, 2), Fraction(-2, 3), Fraction(4)])


@st.composite
def _diamond_factors(draw):
    a = draw(st.integers(1, 4))
    coeffs = draw(st.sampled_from([_INTS, _FRACTIONS, st.one_of(_INTS, _FRACTIONS)]))
    words = st.sampled_from(treealg.words_ending_in_y(a))
    terms = draw(st.dictionaries(words, coeffs, min_size=1, max_size=4))
    if draw(st.integers(0, 3)) == 0:
        terms[draw(st.sampled_from(["x", "yx", "xy", "yyy"]))] = draw(coeffs)
    return treealg.Poly(terms)


class TestDiamondCommand:
    @settings(max_examples=200, deadline=None)
    @given(_diamond_factors(), _diamond_factors())
    def test_dense_route_equals_diamond_with_types(self, left, right):
        # equal values, and the coefficient rule on the dense route's result
        got, want = cli._diamond_product(left, right), treealg.diamond(left, right)
        assert got.terms == want.terms
        assert follows_coefficient_rule(got.terms.values())

    def test_product_in_v_a_times_v_b_at_the_cap(self):
        # sigma sends products of forests to diamond products, so
        # sigma([[]] x 4) <> sigma([[]] x 4) = sigma([[]] x 8), degree 16; the
        # sparse word recursion runs out of a 3 GB address space on it after
        # about 60 s, the product on coefficient lists takes under 0.5 s. With
        # 1/2 y^8 added to the left factor, its coefficients mix ints and
        # Fractions and it takes the lists too; its product with the right
        # factor is taken on lists here
        half, whole = (
            treealg.sigma(treealg.parse_helem(" ".join(["[[]]"] * k))) for k in (4, 8)
        )
        y8 = treealg.Poly.from_word("y" * 8)
        extra = poly_from_list(_diamond_dense(coefficient_list(y8, 8), coefficient_list(half, 8)))
        cases = [
            (half, whole),
            (half + Fraction(1, 2) * y8, whole + Fraction(1, 2) * extra),
        ]

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        for left, product in cases:
            start = time.perf_counter()
            done = _run_module("diamond", print_poly(left), print_poly(half), preexec_fn=limit)
            assert time.perf_counter() - start < 10
            assert (done.returncode, done.stderr) == (0, "")
            assert done.stdout == print_poly(product) + "\n"


class TestRelationCommand:
    def test_verify_ok(self, capsys):
        code, out, _ = invoke(capsys, "relation", "2", "2", "--verify")
        assert code == 0
        assert "sigma_is_zero: True" in out
        assert "rho_x_is_zero: True" in out
        assert "r_identity_holds: True" in out

    def test_json_report(self, capsys):
        code, out, _ = invoke(capsys, "--json", "relation", "1", "2", "--verify")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["sigma_is_zero"] is True


class TestErrors:
    def test_parse_error_exit_code(self, capsys):
        code, _, err = invoke(capsys, "apply", "[", "x")
        assert code == 2
        assert "error" in err

    def test_poly_parse_error(self, capsys):
        code, _, err = invoke(capsys, "apply", "[]", "x +")
        assert code == 2
        assert "error" in err

    def test_usage_error(self, capsys):
        code, _, _ = invoke(capsys, "no-such-command")
        assert code == 2

    def test_bad_relation_arguments(self, capsys):
        code, _, err = invoke(capsys, "relation", "0", "2")
        assert code == 2
        assert "error" in err

    def test_zero_denominator_in_element(self, capsys):
        code, _, err = invoke(capsys, "sigma", "2/0*[]")
        assert code == 2
        assert "zero denominator (at position 2)" in err

    def test_zero_denominator_in_later_element_term(self, capsys):
        code, _, err = invoke(capsys, "sigma", "[] - 3/00*[[]]")
        assert code == 2
        assert "zero denominator (at position 7)" in err

    def test_zero_denominator_constant_element_term(self, capsys):
        code, _, err = invoke(capsys, "sigma", "[] + 1/0")
        assert code == 2
        assert "zero denominator (at position 7)" in err

    def test_forest_error_positioned_in_input(self, capsys):
        code, _, err = invoke(capsys, "sigma", "[] + [[]] x")
        assert code == 2
        assert "unexpected character 'x' (at position 10)" in err

    def test_bad_coefficient_positioned_in_input(self, capsys):
        code, _, err = invoke(capsys, "sigma", "[] + 2x*[]")
        assert code == 2
        assert "bad coefficient '2x' (at position 5)" in err

    def test_dangling_sign_positioned_in_input(self, capsys):
        code, _, err = invoke(capsys, "sigma", "  -")
        assert code == 2
        assert "dangling sign (at position 2)" in err

    def test_trailing_dangling_sign_rejected(self, capsys):
        code, out, err = invoke(capsys, "sigma", "[] +")
        assert code == 2
        assert out == ""
        assert "dangling sign (at position 3)" in err

    def test_trailing_dangling_signs_rejected_at_last(self, capsys):
        code, out, err = invoke(capsys, "sigma", "[] + -")
        assert code == 2
        assert out == ""
        assert "dangling sign (at position 5)" in err

    @pytest.mark.parametrize(
        "poly, position", [("x - 3*", 6), ("2*", 2), ("2* + x", 3), ("2 *  ", 5)]
    )
    def test_star_without_word_rejected(self, capsys, poly, position):
        code, out, err = invoke(capsys, "apply", "[]", poly)
        assert code == 2
        assert out == ""
        assert f"expected a word after '*' (at position {position})" in err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("kernel", "0"), "degree must be >= 1"),
            (("relation", "0", "2"), "both ladder lengths must be >= 1"),
            (("basis", "0"), "degree must be >= 1"),
            (("decompose", "[] + [[]]"), "element must be homogeneous of degree >= 1"),
            (("selfcheck", "--max-degree", "-1"), "--max-degree must be >= 0"),
        ],
    )
    def test_out_of_range_arguments_exact(self, capsys, argv, message):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (("sigma", "[" * 900 + "]" * 900), 900),
            (("diamond", "x" * 1500, "x"), 1501),
            (("apply", "[] - [[]] [[]]", "xy + " + "y" * 16), 20),
            (("sigma", " ".join(["[]"] * 20)), 20),
            (("sigma", "[" * 1200 + "]" * 1200), 1200),
            (("sigma", " ".join(["[[]]"] * 9 + ["[]"])), 19),
        ],
    )
    def test_output_degree_above_cap(self, capsys, argv, degree):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: output degree {degree} is above the cap "
            f"MAX_OUTPUT_DEGREE = {MAX_OUTPUT_DEGREE}\n"
        )

    @pytest.mark.parametrize(
        "argv, degree",
        [
            (("decompose", "[" * 1200 + "]" * 1200), 1200),
            (("kernel", "12"), 12),
            (("kernel", str(MAX_DENSE_DEGREE + 1)), MAX_DENSE_DEGREE + 1),
            (("decompose", " ".join(["[]"] * (MAX_DECOMPOSE_DEGREE + 1))),
             MAX_DECOMPOSE_DEGREE + 1),
            (("--json", "kernel", "1000"), 1000),
        ],
    )
    def test_dense_degree_above_cap(self, capsys, argv, degree):
        cap = "MAX_DECOMPOSE_DEGREE" if "decompose" in argv else "MAX_DENSE_DEGREE"
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == f"error: degree {degree} is above the cap {cap} = {getattr(cli, cap)}\n"

    def test_decompose_cap_within_output_cap(self):
        # decompose takes sigma of its input first
        assert MAX_DENSE_DEGREE < MAX_DECOMPOSE_DEGREE <= MAX_OUTPUT_DEGREE

    def test_decompose_at_cap_accepted(self, capsys):
        code, out, err = invoke(capsys, "decompose", " ".join(["[]"] * MAX_DECOMPOSE_DEGREE))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 2 ** (MAX_DECOMPOSE_DEGREE - 1)
        assert lines.count("[] " * (MAX_DECOMPOSE_DEGREE - 1) + "[]: 1") == 1
        assert sum(line.endswith(": 0") for line in lines) == len(lines) - 1

    def test_out_of_memory_exits_2(self):
        # the address-space limit is set on the child only. The child needs
        # about 20 MB once treealg is imported. Parsing a 50,000-deep ladder
        # builds its 50,000 nested trees, whose encodings take about
        # 2.5 GB, so the child runs out of 150 MB about 11,000 levels in,
        # before any cap is checked and with no memo touched: in about 0.3 s
        depth = 50_000

        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (150 << 20, 150 << 20))

        start = time.perf_counter()
        done = _run_module("sigma", "[" * depth + "]" * depth, preexec_fn=limit)
        assert time.perf_counter() - start < 5
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == "error: out of memory\n"

    def test_coproduct_deeper_than_the_recursion_limit(self):
        # a fresh interpreter: no shallower ladder's coproduct is memoized
        done = _run_module("coproduct", "[" * 1200 + "]" * 1200)
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.count("(x)") == 1201

    @pytest.mark.parametrize(
        "argv, kind, degree, cap",
        [
            (("relation", "20", "20"), "m+n", 40, "MAX_RELATION_DEGREE"),
            (("relation", "8", "7", "--verify"), "m+n", 15, "MAX_RELATION_DEGREE"),
            (("--json", "relation", "1", str(cli.MAX_RELATION_DEGREE)), "m+n",
             cli.MAX_RELATION_DEGREE + 1, "MAX_RELATION_DEGREE"),
            (("trees", str(cli.MAX_TREE_DEGREE + 1)), "degree",
             cli.MAX_TREE_DEGREE + 1, "MAX_TREE_DEGREE"),
            (("forests", str(cli.MAX_FOREST_DEGREE + 1)), "degree",
             cli.MAX_FOREST_DEGREE + 1, "MAX_FOREST_DEGREE"),
            (("--json", "forests", "40"), "degree", 40, "MAX_FOREST_DEGREE"),
            (("basis", str(cli.MAX_BASIS_DEGREE + 1)), "degree",
             cli.MAX_BASIS_DEGREE + 1, "MAX_BASIS_DEGREE"),
            (("basis", "26"), "degree", 26, "MAX_BASIS_DEGREE"),
            (("basis", str(cli.MAX_BASIS_MATRIX_DEGREE + 1), "--check-mod2"), "degree",
             cli.MAX_BASIS_MATRIX_DEGREE + 1, "MAX_BASIS_MATRIX_DEGREE"),
            (("basis", "30", "--matrix"), "degree", 30, "MAX_BASIS_MATRIX_DEGREE"),
            # the product of ladders 1..9, 98 characters: 10! terms
            (("coproduct", " ".join("[" * k + "]" * k for k in range(1, 10))),
             "coproduct term count", 3628800, "MAX_COPRODUCT_TERMS"),
            (("trees", str(cli.MAX_COUNT_DEGREE + 1), "--count-only"), "degree",
             cli.MAX_COUNT_DEGREE + 1, "MAX_COUNT_DEGREE"),
            (("--json", "forests", "100000", "--count-only"), "degree", 100000,
             "MAX_COUNT_DEGREE"),
        ],
    )
    def test_budget_above_cap(self, argv, kind, degree, cap):
        start = time.perf_counter()
        done = _run_module(*argv)
        assert time.perf_counter() - start < 1
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == (
            f"error: {kind} {degree} is above the cap {cap} = {getattr(cli, cap)}\n"
        )

    def test_relation_at_cap_accepted(self, capsys):
        n = str(cli.MAX_RELATION_DEGREE - 1)
        code, out, _ = invoke(capsys, "relation", "1", n, "--verify")
        assert code == 0
        assert out.splitlines()[-1] == "r_identity_holds: True"

    def test_relation_without_verify_only_builds(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_fmn", lambda m, n: pytest.fail("verified"))
        code, out, err = invoke(capsys, "relation", "6", "6")
        assert (code, err) == (0, "")
        assert out == f"f_6,6 = {treealg.print_helem(treealg.build_fmn(6, 6))}\n"

    def test_output_degree_at_cap_accepted(self, capsys):
        code, out, _ = invoke(capsys, "diamond", "x" * (MAX_OUTPUT_DEGREE - 1), "x")
        assert code == 0
        assert out.startswith("x" * MAX_OUTPUT_DEGREE)

    def test_zero_denominator_in_poly(self, capsys):
        code, _, err = invoke(capsys, "diamond", "x", "1/0")
        assert code == 2
        assert "zero denominator (at position 2)" in err

    def test_zero_denominator_in_later_poly_term(self, capsys):
        code, _, err = invoke(capsys, "apply", "[]", "x - 5/ 0y")
        assert code == 2
        assert "zero denominator (at position 7)" in err


class TestCoproductBudget:
    def test_bounds_the_expanded_terms(self):
        forests = [f for d in range(6) for f in treealg.enumerate_forests(d)]
        for f in forests:
            elem = treealg.HElem.from_forest(f)
            assert cli._coproduct_terms(elem) >= len(treealg.coproduct(elem).terms)
        pairs = treealg.HElem({forests[7]: 2, forests[30]: -1})
        assert cli._coproduct_terms(pairs) == sum(
            cli._coproduct_terms(treealg.HElem.from_forest(f)) for f in pairs.terms
        )

    def test_products_of_distinct_trees_multiply(self):
        ladders = " ".join("[" * k + "]" * k for k in range(1, 10))
        assert cli._coproduct_terms(treealg.parse_helem(ladders)) == 3628800
        # no recursion into the Python stack
        deep = treealg.parse_helem("[" * 1200 + "]" * 1200)
        assert cli._coproduct_terms(deep) == 1201

    def test_repeated_trees_count_multisets(self, capsys):
        leaves = " ".join(["[]"] * 40)
        assert cli._coproduct_terms(treealg.parse_helem(leaves)) == 41
        code, out, err = invoke(capsys, "coproduct", leaves)
        assert (code, err) == (0, "")
        assert out.count("(x)") == 41


class TestSingleRendering:
    """Each command builds only the rendering asked for: text or --json."""

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_kernel_prints_each_vector_once(self, capsys, monkeypatch, mode):
        calls = []
        print_helem = cli.print_helem
        monkeypatch.setattr(cli, "print_helem", lambda k: calls.append(k) or print_helem(k))
        code, out, err = invoke(capsys, *mode, "kernel", "6")
        assert (code, err) == (0, "")
        assert len(calls) == len(treealg.sigma_kernel(6)) == 16
        rendered = json.loads(out)["basis"] if mode else out.splitlines()[1:]
        assert rendered == list(map(print_helem, calls))

    @pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
    def test_text_coproduct_builds_no_term_list(self, capsys, monkeypatch, mode):
        # print_tensor reads the terms by key; only the JSON term list asks
        # for their items
        listed = []

        class Terms(dict):
            def items(self):
                listed.append(len(self))
                return super().items()

        coproduct = cli.coproduct
        monkeypatch.setattr(
            cli, "coproduct", lambda e: treealg.TensorElem._wrap(Terms(coproduct(e).terms))
        )
        element = "[[]] [] - 2*[]"
        code, out, err = invoke(capsys, *mode, "coproduct", element)
        assert (code, err) == (0, "")
        assert listed == ([8] if mode else [])
        rendered = json.loads(out)["result"] if mode else out.rstrip("\n")
        assert rendered == treealg.print_tensor(coproduct(treealg.parse_helem(element)))

    @pytest.mark.parametrize("argv", [c["argv"] for c in GOLDEN if c["argv"][0] != "--json"],
                             ids=" ".join)
    def test_text_mode_never_builds_the_payload(self, capsys, monkeypatch, argv):
        built = []
        emit = cli._emit
        monkeypatch.setattr(
            cli,
            "_emit",
            lambda args, lines, payload, code=0: emit(
                args, lines, lambda: built.append(args.command) or payload(), code
            ),
        )
        code, _, _ = invoke(capsys, *argv)
        assert (code, built) == (0, [])
        code, _, _ = invoke(capsys, "--json", *argv)
        assert (code, built) == (0, [argv[0]])


class TestDeterminism:
    def test_identical_invocations(self, capsys):
        _, first, _ = invoke(capsys, "kernel", "5")
        _, second, _ = invoke(capsys, "kernel", "5")
        assert first == second


class TestSelfcheck:
    def test_passes_at_low_degree(self, capsys):
        code, out, _ = invoke(capsys, "selfcheck", "--max-degree", "3")
        assert code == 0
        assert out.splitlines()[-1] == "selfcheck passed"

    def test_diamond_laws_draw_words_within_max_degree(self, monkeypatch):
        drawn = []
        from_word = selfcheck.Poly.from_word
        monkeypatch.setattr(
            selfcheck.Poly,
            "from_word",
            staticmethod(lambda w, coeff=1: drawn.append(w) or from_word(w, coeff)),
        )
        per_check = {}
        for name, witness in selfcheck.run_selfcheck(2):
            assert witness is None, name
            per_check[name] = list(drawn)
            drawn.clear()
        assert per_check["diamond-laws"]
        assert max(map(len, per_check["diamond-laws"])) <= 2

    def test_relation_family_stops_at_nine(self, capsys, monkeypatch):
        pairs = []
        verify_fmn = selfcheck.verify_fmn
        monkeypatch.setattr(
            selfcheck, "verify_fmn", lambda m, n: pairs.append(m + n) or verify_fmn(m, n)
        )
        start = time.perf_counter()
        code, out, _ = invoke(capsys, "selfcheck", "--max-degree", "30")
        assert time.perf_counter() - start < 5
        assert code == 0
        assert out.splitlines()[-1] == "selfcheck passed"
        assert max(pairs) == 9

    @staticmethod
    def _mismatch(max_degree):
        yield "the only case", 1, 2

    @staticmethod
    def _mismatch_then_raise(max_degree):
        yield "the first case", "got", "want"
        raise AssertionError("the check ran past its first mismatch")

    @pytest.mark.parametrize(
        "check, witness",
        [
            (_mismatch, ("'the only case'", "1", "2")),
            (_mismatch_then_raise, ("'the first case'", "'got'", "'want'")),
        ],
        ids=["_mismatch", "_mismatch_then_raise"],
    )
    def test_a_mismatch_fails_the_check(self, capsys, monkeypatch, check, witness):
        monkeypatch.setattr(
            selfcheck, "CHECKS", (("tree-counts", selfcheck._check_tree_counts), ("broken", check))
        )
        line = "FAIL broken: case {} got {} want {}\n".format(*witness)
        code, out, err = invoke(capsys, "selfcheck")
        assert (code, err) == (1, line)
        assert out.splitlines() == ["ok   tree-counts", "FAIL broken", "selfcheck FAILED"]
        code, out, err = invoke(capsys, "--json", "selfcheck")
        assert (code, err) == (1, line)
        payload = json.loads(out)
        assert payload["checks"] == {"tree-counts": True, "broken": False}
        assert payload["passed"] is False
        assert payload["witnesses"] == {"broken": dict(zip(("case", "got", "want"), witness))}

    def test_a_pass_reports_no_witness(self, capsys):
        code, out, err = invoke(capsys, "--json", "selfcheck", "--max-degree", "1")
        assert (code, err) == (0, "")
        assert set(json.loads(out)) == {"schema", "command", "max_degree", "checks", "passed"}

    def test_rejects_negative_max_degree(self, capsys):
        code, out, err = invoke(capsys, "selfcheck", "--max-degree", "-3")
        assert code == 2
        assert out == ""
        assert "--max-degree must be >= 0" in err


# Text arguments are short strings over the characters of forests and
# polynomials and a few that belong to neither; numeric ones are small, so
# that every accepted command finishes quickly.
_TEXT = st.text(alphabet="[] xy+-*/0123456789()az", max_size=12)
_NUMBER = st.integers(-3, 5).map(str)
_COMMANDS = {
    "sigma": ([_TEXT], []),
    "apply": ([_TEXT, _TEXT], []),
    "diamond": ([_TEXT, _TEXT], []),
    "coproduct": ([_TEXT], []),
    "decompose": ([_TEXT], []),
    "trees": ([_NUMBER], ["--count-only"]),
    "forests": ([_NUMBER], ["--count-only"]),
    "basis": ([_NUMBER], ["--matrix", "--check-mod2"]),
    "kernel": ([_NUMBER], []),
    "relation": ([_NUMBER, _NUMBER], []),
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    positional, flags = _COMMANDS[command]
    argv = ["--json"] if draw(st.booleans()) else []
    argv += [command, *(draw(arg) for arg in positional)]
    return argv + [flag for flag in flags if draw(st.booleans())]


class TestFuzz:
    @settings(max_examples=200, deadline=None)
    @given(_argvs())
    def test_every_input_succeeds_or_exits_two(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert "Traceback" not in err.getvalue()
        assert code in (0, 2), (argv, err.getvalue())
