"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyperfields"
MODULES = sorted(PACKAGE.glob("*.py"))


def absolute_imports(path):
    """The top-level name of each absolute import in the module at path."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_every_module_is_parsed():
    assert {"core.py", "cli.py", "io_format.py", "__init__.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_imports_are_standard_library_or_the_package(path):
    foreign = sorted({name for name in absolute_imports(path)
                      if name not in sys.stdlib_module_names and name != "hyperfields"})
    assert foreign == [], f"{path.name} imports {foreign}"
