"""Count the code lines of Python files: lines that hold a token other than
a comment, and that are not part of a docstring.

Usage: python tools/count_code_lines.py [PATH ...]   (default: src)

A directory counts every *.py file under it.  tokenize finds the lines
that hold code; ast finds the docstrings (the leading string statement of
a module, class or function), whose lines are then dropped.  Prints one
line per file and a total; a path that does not exist exits 1 with one
line on stderr.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree) -> set:
    lines = set()
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


def count_code_lines(path: Path) -> int:
    with path.open("rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
    code = set()
    for token in tokens:
        if token.type not in _NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    tree = ast.parse(path.read_bytes(), filename=str(path))
    return len(code - _docstring_lines(tree))


def main(argv) -> int:
    paths = []
    for arg in argv or ["src"]:
        root = Path(arg)
        if not root.exists():
            print(f"error: no such file or directory: {arg}", file=sys.stderr)
            return 1
        paths.extend(sorted(root.rglob("*.py")) if root.is_dir() else [root])
    total = 0
    for path in paths:
        lines = count_code_lines(path)
        total += lines
        print(f"{lines:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
