"""The runtime stays stdlib-only: every module of the package imports only
the package itself and the standard library."""

import ast
import pathlib
import sys

import dualform


def _imports(path):
    """The top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_the_standard_library():
    modules = sorted(pathlib.Path(dualform.__file__).parent.glob("*.py"))
    assert len(modules) > 1
    outside = [(path.name, name) for path in modules
               for name in _imports(path)
               if name != "dualform" and name not in sys.stdlib_module_names]
    assert outside == []
