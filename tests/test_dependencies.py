"""The runtime depends only on numpy: every absolute import in the package
names numpy or a module of the standard library. Inputs are read and text
artifacts written in one place: only corpus.py parses JSON, opens a file
to read or to write text, or holds the tab of the TSV syntax."""

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


def _open_mode(call):
    """The mode of an open() call: "r" when none is given, and None when it
    is not a string literal."""
    modes = call.args[1:2] + [k.value for k in call.keywords
                              if k.arg == "mode"]
    return getattr(modes[0], "value", None) if modes else "r"


def _input_reads(path):
    """(line, call) of each json.load or json.loads call and each open() in
    text read mode (no mode, or one without "b", "w", "a", "x" or "+") in a
    source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Attribute) and func.attr in ("load", "loads")
                and isinstance(func.value, ast.Name) and func.value.id == "json"):
            yield node.lineno, f"json.{func.attr}"
        elif isinstance(func, ast.Name) and func.id == "open":
            mode = _open_mode(node)
            if not isinstance(mode, str) or not set(mode) & set("bwax+"):
                yield node.lineno, "open"


def test_only_corpus_reads_text_and_json():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {call for _, call in _input_reads(PACKAGE / "corpus.py")} == {
        "json.load", "json.loads", "open"}
    elsewhere = {(path.name, line, call) for path in sources
                 if path.name != "corpus.py"
                 for line, call in _input_reads(path)}
    assert not elsewhere


def _text_writes(path):
    """Line of each open() call in text write mode (a mode holding "w",
    "a", "x" or "+" and no "b", or a mode that is not a string literal) in
    a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            mode = _open_mode(node)
            if not isinstance(mode, str) or (set(mode) & set("wax+")
                                             and "b" not in mode):
                yield node.lineno


def test_only_corpus_writes_text():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(list(_text_writes(PACKAGE / "corpus.py"))) == 1
    elsewhere = {(path.name, line) for path in sources
                 if path.name != "corpus.py" for line in _text_writes(path)}
    assert not elsewhere


def _tab_literals(path):
    """Line of each string constant holding a tab (an f-string's literal
    parts included) in a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and "\t" in node.value):
            yield node.lineno


def test_only_corpus_splits_and_joins_tsv_fields():
    sources = sorted(PACKAGE.glob("*.py"))
    assert list(_tab_literals(PACKAGE / "corpus.py"))
    elsewhere = {(path.name, line) for path in sources
                 if path.name != "corpus.py" for line in _tab_literals(path)}
    assert not elsewhere
