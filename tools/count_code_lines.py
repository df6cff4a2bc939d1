"""Count the code lines of Python modules.

A code line is a physical line that holds part of a statement. Blank
lines, comment lines and the docstrings of modules, classes and
functions are not counted; each line of a statement that spans several
lines is. Run from the repository root::

    python tools/count_code_lines.py            # the modules of src/terrainopt/
    python tools/count_code_lines.py a.py b.py  # the given files

Prints one ``name count`` line per module, then the total.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Code lines of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    paths = [Path(a) for a in argv] or sorted(Path("src/terrainopt").glob("*.py"))
    total = 0
    for path in paths:
        n = count_code_lines(path.read_text())
        total += n
        print(f"{path.stem} {n}")
    print(f"total {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
