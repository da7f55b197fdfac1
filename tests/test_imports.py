"""Every module of the package uses each name it imports and each private
helper it defines.

Deleting code can leave an import or a private helper behind; no linter
is assumed, so the checks walk each module's syntax tree. Package
__init__ files re-export names by importing them and are not checked.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "finimg"
MODULES = sorted(p for p in PACKAGE.rglob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .data import Dataset, load_csv\nnp.zeros(load_csv)\n"
    assert unused_imports(source) == ["os (line 1)", "Dataset (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def orphaned_private_helpers(source: str) -> list[str]:
    """Module-level _functions and _Classes, and _methods, that the module never reads."""
    tree = ast.parse(source)
    defs = [node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    defs += [item for node in defs if isinstance(node, ast.ClassDef)
             for item in node.body if isinstance(item, ast.FunctionDef)]
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return [f"{node.name} (line {node.lineno})" for node in defs
            if node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in read]


def test_orphaned_private_helpers_are_found():
    source = (
        "def _used(): pass\n"
        "def _orphan(): pass\n"
        "class _Gone:\n"
        "    def __init__(self): pass\n"
        "class Kept:\n"
        "    def _step(self): return _used()\n"
        "    def _unread(self): self._unread_attr = 1\n"
        "    def run(self): return self._step()\n"
    )
    assert orphaned_private_helpers(source) == [
        "_orphan (line 2)", "_Gone (line 3)", "_unread (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_module_reads_every_private_helper(path):
    assert orphaned_private_helpers(path.read_text(encoding="utf-8")) == []
