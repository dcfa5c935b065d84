"""The runtime depends only on numpy: every absolute import in the package
names numpy or a module of the standard library."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "qdecomp"


def _absolute_imports(path):
    """Top-level module of each absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_imports_only_numpy_and_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    foreign = {(path.name, module) for path in sources
               for module in _absolute_imports(path)
               if module != "numpy" and module not in sys.stdlib_module_names}
    assert not foreign
