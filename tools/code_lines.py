"""Count the code lines of the Python modules in a directory.

A line counts if it holds a token other than a comment, NL, NEWLINE, INDENT,
DEDENT or ENDMARKER, and that token is not a module, class or function
docstring. A token that spans several lines, such as a multi-line string,
counts on each of them. Standard library only.

    python tools/code_lines.py src/offlang

prints each module's count, relative to DIR and sorted, then the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each module, class or function docstring
    begins."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            starts.add((doc.lineno, doc.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: code_lines.py DIR", file=sys.stderr)
        return 2
    root = Path(argv[0])
    total = 0
    for path in sorted(root.rglob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.relative_to(root)}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
