"""Count the code lines of the dualform package, per module and in total.

    python3 tools/code_lines.py [BASE_DIR]

The package counted is the checkout's src/dualform.  A code line is a
source line that holds at least one token other than a comment, a newline
or an indent change, and that lies outside every docstring: the string
expression that opens a module, class or function body, found on the AST.
Blank lines, comment lines and docstrings are left out, so the count moves
only with the code itself.  It prints one line per module and the total,
and sets no threshold.  Given BASE_DIR, another copy of the package (say
the base commit's), each line gives the base count, this checkout's count
and their difference, a module missing on one side counting 0 there.
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


def package_lines(package):
    """{module file name: code lines} for the .py files of package."""
    counts = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as f:
                counts[name] = code_lines(f.read())
    return counts


def main(argv):
    head = package_lines(os.path.join(ROOT, "src", "dualform"))
    if not argv:
        for name, count in head.items():
            print(f"{name:20} {count:5}")
        print(f"{'total':20} {sum(head.values()):5}")
        return
    base = package_lines(argv[0])
    print(f"{'module':20} {'base':>5} {'head':>5} {'diff':>5}")
    rows = [(name, base.get(name, 0), head.get(name, 0))
            for name in sorted(base.keys() | head.keys())]
    rows.append(("total", sum(base.values()), sum(head.values())))
    for name, b, h in rows:
        print(f"{name:20} {b:5} {h:5} {h - b:+5}")


if __name__ == "__main__":
    main(sys.argv[1:])
