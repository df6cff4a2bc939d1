"""The repository's command-line tools."""
import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SAMPLE = '''"""Module docstring,
over two lines."""
import math  # a trailing comment counts as code

# a comment line


class Box:
    """Class docstring."""

    size = 1
    """An attribute string is not a docstring, so it counts."""

    def area(self):
        """Function docstring,

        over three lines.
        """
        return math.prod(
            [self.size, self.size]  # three lines of one statement
        )


async def wait():
    \'\'\'Async function docstring.\'\'\'
    text = """a multi-line
string value"""
    return text
'''


def test_count_code_lines_skips_comments_blanks_and_docstrings(tmp_path, capsys):
    tool = load_tool("count_code_lines")
    # import, class, size, attribute string, def, three lines of return,
    # async def, two lines of text, return
    assert tool.count_code_lines(SAMPLE) == 12
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert tool.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out == "sample 12\nsample 12\ntotal 24\n"
