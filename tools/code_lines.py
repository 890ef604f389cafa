"""Count the code lines of the dualform package, per module and in total.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the checkout's src/dualform.  A code line is a
source line that holds at least one token other than a comment, a newline
or an indent change, and that lies outside every docstring: the string
expression that opens a module, class or function body, found on the AST.
Blank lines, comment lines and docstrings are left out, so the count moves
only with the code itself.  It prints one line per module and the total,
and sets no threshold.
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree):
    """The line numbers spanned by every docstring of the parsed module."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and \
                    isinstance(first.value, ast.Constant) and \
                    isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python source text."""
    docs = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv):
    package = argv[0] if argv else os.path.join(ROOT, "src", "dualform")
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                count = code_lines(f.read())
            total += count
            print(f"{name:20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main(sys.argv[1:])
