import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "line_split.py"
spec = importlib.util.spec_from_file_location("line_split", TOOL)
line_split = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_split)

SOURCE = '''"""Module docstring."""

import math  # a trailing comment keeps the line code


class Box:
    """Two docstring lines,

    the blank one between them included."""

    # a comment line
    size = "a string that is not a docstring"

    def area(self):
        """One line."""
        return math.pi
'''


def test_split_counts_docstrings_by_ast_and_the_rest_by_line():
    assert line_split.split(SOURCE) == {"code": 5, "docstring": 5, "comment": 1, "blank": 5}
