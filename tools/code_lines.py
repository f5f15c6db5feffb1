"""Count the code lines of Python files: no blank line, comment or docstring.

    python3 tools/code_lines.py src/qgscatter/*.py

prints one ``<count> <path>`` line per file, then ``<total> total``. A line
counts when some token other than a comment, newline or indentation touches
it; the lines of module, class and function docstrings are then removed.
"""

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(src: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(src).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(src)):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return len(lines)


def main(paths):
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            n = code_lines(fh.read())
        total += n
        print(f"{n:7d} {path}")
    print(f"{total:7d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
