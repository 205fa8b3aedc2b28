"""Static checks of the package source with the standard library's ``ast``.

No module has dead imports, and the command-line front end uses only the
public names of the other modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ncdiff"
# __init__ imports names to re-export them, not to use them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name a module imports is read somewhere in that module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: imported and never used: {unused}"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_cli_reads_no_private_name_of_another_module():
    """cli.py imports no ``_`` name from the package and reads none off a package module."""
    path = SRC / "cli.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            for alias in node.names:
                if node.module is None:  # from . import calculus
                    modules.add(alias.asname or alias.name)
                if _private(alias.name):
                    private.append((node.lineno, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            private.append((node.lineno, f"{node.value.id}.{node.attr}"))
    assert not private, f"cli.py reads private names: {private}"
