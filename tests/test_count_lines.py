import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "count_lines", Path(__file__).resolve().parent.parent / "tools" / "count_lines.py")
count_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_lines)

SOURCE = '''"""Module docstring,
over two lines."""

# a comment line
__all__ = [
    "f",
    "C",
]


def f(x):
    """Function docstring."""
    y = """a string that
    is no docstring"""  # trailing comment
    return (x +
            1)


class C:
    """Class docstring."""

    z = 1
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # __all__ (4 lines), def, y (2 lines), return (2 lines), class, z
    assert count_lines.code_lines(SOURCE) == 11


def test_all_names_counts_the_module_list():
    assert count_lines.all_names(SOURCE) == 2
    assert count_lines.all_names("x = 1\n") == 0
