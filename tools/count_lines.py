"""Count code lines and `__all__` names per module of a Python package.

Usage, from the root of a checkout:

    python3 tools/count_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to `src/pdirichlet`. A code line is a line that holds
at least one token other than a comment, so blank lines, comment lines and
docstrings (a string literal that opens a module, class or function body)
are left out; a multi-line statement counts every line it spans. Prints one
row per module, then the totals.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines of `source` holding code: no blanks, comments or docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def all_names(source: str) -> int:
    """The number of names a module-level `__all__` assignment lists."""
    for node in ast.parse(source).body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            return len(node.value.elts)
    return 0


def main(argv: list[str]) -> int:
    package = Path(argv[0] if argv else "src/pdirichlet")
    total_code = total_names = 0
    print(f"{'module':<16} {'code':>6} {'__all__':>8}")
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        code, names = code_lines(source), all_names(source)
        total_code += code
        total_names += names
        print(f"{path.stem:<16} {code:>6} {names:>8}")
    print(f"{'total':<16} {total_code:>6} {total_names:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
