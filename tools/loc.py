"""Count the lines of each module under ``src/``.

For every ``.py`` file it prints the physical lines and the code lines: the
lines that hold a token which is not a comment and not part of a docstring.
A blank line, a comment line and every line of a module, class or function
docstring are not code; a line that holds both code and a comment is.  The
last line is the total.  The count is a report, not a gate: the exit status
is 0 whatever it reads.

Usage:

    python tools/loc.py [root]

``root`` defaults to the repository's ``src/``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Tokens that are not code: layout, comments and the end of the file.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """The physical lines and the code lines of one module's ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(source.splitlines()), len(code - docstrings)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else ROOT / "src"
    total_physical = total_code = 0
    print(f"{'module':40} {'lines':>6} {'code':>6}")
    for path in sorted(root.rglob("*.py")):
        physical, code = count(path.read_text(encoding="utf-8"))
        total_physical += physical
        total_code += code
        print(f"{path.relative_to(root).as_posix():40} {physical:6} {code:6}")
    print(f"{'total':40} {total_physical:6} {total_code:6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
