"""Count code-only and docstring lines of each module under src/pptlab.

Code-only lines are the non-blank lines that hold some token other than
a comment and lie outside docstrings (the module's, each class's and
each function's first-statement string).  Docstring lines are the lines
those strings span, blank ones included.

    python3 tools/code_lines.py [DIR]

DIR defaults to src/pptlab beside this script.  Stdlib only.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(code-only lines, docstring lines) of one module's source."""
    docs = docstring_lines(ast.parse(source))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs), len(docs)


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "pptlab"
    total_code = total_docs = 0
    print(f"{'module':<16}{'code':>7}{'docstring':>11}")
    for path in sorted(root.glob("*.py")):
        code, docs = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_docs += docs
        print(f"{path.name:<16}{code:>7}{docs:>11}")
    print(f"{'total':<16}{total_code:>7}{total_docs:>11}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
