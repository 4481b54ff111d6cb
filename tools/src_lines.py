"""Count the lines of the Python files given, or found under directories.

Prints two totals: every line, and the lines left once docstrings,
comments and blank lines are taken out. A line counts as code if a token
other than a comment or a docstring lies on it; a token that spans lines,
such as a multi-line string, counts each of them. Docstrings are the string
statements that open a module, class or function. Standard library only.

    python tools/src_lines.py [DIRECTORY | FILE ...]   # default: src
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set:
    """(line, column) where each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple:
    """(all lines, code lines) of one file's source text."""
    docstrings = _docstring_starts(ast.parse(source))
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _LAYOUT or (token.type == tokenize.STRING
                                     and token.start in docstrings):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv=None) -> int:
    roots = (sys.argv[1:] if argv is None else argv) or ["src"]
    total = code = 0
    for root in map(Path, roots):
        for path in [root] if root.is_file() else sorted(root.rglob("*.py")):
            lines, code_lines = count(path.read_text(encoding="utf-8"))
            total += lines
            code += code_lines
    print(f"total lines: {total}")
    print(f"without docstrings, comments and blank lines: {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
