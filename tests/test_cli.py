import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import treealg
from treealg import cli, selfcheck
from treealg.cli import MAX_DENSE_DEGREE, MAX_OUTPUT_DEGREE, run

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


def _run_module(*argv, preexec_fn=None):
    """``python -m treealg *argv`` in a fresh interpreter."""
    src = str(Path(treealg.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, "-m", "treealg", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        preexec_fn=preexec_fn,
    )


class TestModuleEntryPoint:
    def test_python_dash_m(self):
        done = _run_module("sigma", "[[]]")
        assert done.returncode == 0
        assert done.stdout == "xy + 2yy\n"
        assert done.stderr == ""


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
            (("decompose", " ".join(["[]"] * (MAX_DENSE_DEGREE + 1))), MAX_DENSE_DEGREE + 1),
            (("--json", "kernel", "1000"), 1000),
        ],
    )
    def test_dense_degree_above_cap(self, capsys, argv, degree):
        start = time.perf_counter()
        code, out, err = invoke(capsys, *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (
            f"error: degree {degree} is above the cap "
            f"MAX_DENSE_DEGREE = {MAX_DENSE_DEGREE}\n"
        )

    def test_out_of_memory_exits_2(self):
        # degree 16, at the cap; the address-space limit is set on the child
        # only, which runs out of memory in the diamond memo
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))

        start = time.perf_counter()
        done = _run_module("sigma", " ".join(["[[[[]]]]"] * 4), preexec_fn=limit)
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
            (("relation", "7", "7", "--verify"), "m+n", 14, "MAX_RELATION_DEGREE"),
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
        for name, ok in selfcheck.run_selfcheck(2):
            assert ok, name
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

    def test_rejects_negative_max_degree(self, capsys):
        code, out, err = invoke(capsys, "selfcheck", "--max-degree", "-3")
        assert code == 2
        assert out == ""
        assert "--max-degree must be >= 0" in err
