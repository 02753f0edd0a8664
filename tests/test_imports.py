"""The package imports numpy, itself and the standard library alone: every
import statement of src/prelab/*.py names one of those top-level modules."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "prelab"
ALLOWED = {"numpy", "prelab"} | set(sys.stdlib_module_names)


def imported_modules(source: str) -> set:
    """The top-level module of every import in `source`; a relative import
    is "prelab"."""
    tops = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            tops.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            tops.add("prelab" if node.level else node.module.partition(".")[0])
    return tops


def test_imported_modules_sees_every_form_of_import():
    source = "import os.path, scipy as sp\nfrom . import model\nfrom numpy import linalg\n"
    assert imported_modules(source) == {"os", "scipy", "prelab", "numpy"}


def test_the_package_imports_only_numpy_itself_and_the_standard_library():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 12
    foreign = {f.name: sorted(imported_modules(f.read_text()) - ALLOWED) for f in files}
    assert {name: mods for name, mods in foreign.items() if mods} == {}
