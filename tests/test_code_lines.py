"""tools/code_lines.py: the code-line count quoted for src/cellform."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

# a comment line
import os  # a trailing comment counts as code


class Shape:
    """Class docstring."""

    sides = (
        3,
    )

    def area(self):
        """Method docstring,

        with a blank line inside."""
        text = """a multi-line string

        is code on every line, blank ones too"""
        return len(text)
'''


def test_fixture_counts():
    # import, class, sides x3, def, text x3, return
    assert code_lines.code_lines(FIXTURE) == 10


def test_main_prints_modules_and_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\ny = 2\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == [
        "10", "a.py", "2", "b.py", "12", "total"]
