"""The package sources export only names they define and import only names
they use (read with `ast`, so nothing is imported or executed)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mdighz"
MODULES = sorted(path.name for path in SRC.glob("*.py"))


def imported_names(nodes):
    """Names bound by the import statements among `nodes`."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {alias.asname or alias.name for alias in node.names}
    return names


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def stale_exports(tree):
    """Names in __all__ that no top-level statement binds."""
    defined = imported_names(tree.body)
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return sorted(exported_names(tree) - defined)


def unused_imports(tree):
    """Imported names that the module neither reads nor exports."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | exported_names(tree)
    return sorted(imported_names(ast.walk(tree)) - used)


def test_every_module_found():
    assert {"__init__.py", "cli.py", "fock.py", "gains.py"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_exports_are_defined(name):
    assert stale_exports(ast.parse((SRC / name).read_text())) == []


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    assert unused_imports(ast.parse((SRC / name).read_text())) == []


def test_checks_catch_an_unused_import_and_a_stale_export():
    tree = ast.parse("from __future__ import annotations\n"
                     "import numpy as np\nfrom .params import A, B\n"
                     "__all__ = ['f', 'gone']\n"
                     "def f(x: A) -> np.ndarray:\n    return x\n")
    assert unused_imports(tree) == ["B"]
    assert stale_exports(tree) == ["gone"]
