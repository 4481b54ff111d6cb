"""The `src/` line counter in tools/."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


class Thing:
    """Class docstring."""

    # a comment line
    def method(self):
        """Method docstring."""
        text = """a string that
        is not a docstring"""
        return text, os.sep
'''


def test_counts_all_lines_and_code_lines():
    # code: import, class, def, the two lines of the string, return
    assert src_lines.count(SOURCE) == (15, 6)


def test_main_sums_a_tree(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == (
        "total lines: 17\nwithout docstrings, comments and blank lines: 7\n")


def test_main_counts_a_file_root_as_itself(tmp_path, capsys):
    # a file root used to be searched as a directory, and counted nothing
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert src_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out == (
        "total lines: 17\nwithout docstrings, comments and blank lines: 7\n")
