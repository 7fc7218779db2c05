"""tools/code_lines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""
# a comment-only line

import math  # a trailing comment: the line counts


class Point:
    """One-line class docstring."""

    scale = 2.0

    def norm(self, x,
             y):
        """Function docstring.

        Three lines of it.
        """
        text = """a string that is not a docstring
        spans two lines"""
        return math.hypot(x, y)


def one_liner(): """a docstring after code on the same line"""
'''


def test_counts_code_and_skips_blank_comment_and_docstring_lines():
    # import, class, scale, def (two lines), the two-line string, return
    # and the one-liner's def
    assert code_lines.code_lines(SOURCE) == 9


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""doc"""\ny = [\n    2,\n]\n')
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "3", "4"]
    assert lines[-1].split()[1] == "total"
