"""Smoke test of ``tools/code_lines.py``, the code-line counter of ``src/treealg``."""
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _rows(*args):
    out = subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, check=True
    ).stdout
    return [(int(n), name) for n, name in (line.split() for line in out.splitlines())]


def test_total_is_the_sum_of_the_module_rows():
    *modules, (total, label) = _rows()
    assert label == "total"
    assert {name for _, name in modules} >= {"__init__.py", "lincomb.py", "diamond.py"}
    assert all(n > 0 for n, _ in modules)
    assert total == sum(n for n, _ in modules)


def test_docstrings_comments_and_blank_lines_do_not_count(tmp_path):
    (tmp_path / "m.py").write_text(
        '"""Module\n\ndocstring."""\n'
        "# a comment\n"
        "\n"
        "def f(x):\n"
        '    """Function docstring."""\n'
        "    return (x +  # trailing comment\n"
        "            1)\n"
        "\n"
        "s = '''a string\n"
        "that is not a docstring'''\n"
    )
    assert _rows(str(tmp_path)) == [(5, "m.py"), (5, "total")]
