"""Every module of the package uses each name it imports and each private
helper it defines, and each public name it defines is read by the
package, the benchmark or the tests.

Deleting code can leave an import, a private helper or a public helper
whose last caller is gone behind; no linter is assumed, so the checks
walk each module's syntax tree. Package __init__ files re-export names
by importing them and are not checked.
"""
import ast
from collections import Counter
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


ROOT = PACKAGE.parents[1]
READERS = sorted(p for d in ("src", "perfbench", "tests") for p in (ROOT / d).rglob("*.py"))


def names_read(tree: ast.AST) -> Counter:
    """How often each name is read: as a variable, an attribute, an imported
    name, or a string that is exactly the name (getattr targets)."""
    read = Counter()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            read[node.id if isinstance(node, ast.Name) else node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names if alias.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                read[node.value] += 1
    return read


def public_definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """Module-level public functions, classes and assigned names, with their nodes."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.name, node))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(t.id, node) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("_")]


def unread_public_names(modules: list[Path], readers: list[Path]) -> list[str]:
    """Public module-level names of modules that no reader reads outside
    the name's own definition."""
    total = Counter()
    for path in readers:
        total += names_read(ast.parse(path.read_text(encoding="utf-8")))
    unread = []
    for path in modules:
        for name, node in public_definitions(ast.parse(path.read_text(encoding="utf-8"))):
            if total[name] - names_read(node)[name] <= 0:
                unread.append(f"{path.stem}.{name} (line {node.lineno})")
    return unread


def test_unread_public_names_are_found(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text(
        "LIMIT = 3\n"
        "def used(): return LIMIT\n"
        "def orphan(n): return orphan(n - 1)\n"
        "def looked_up(): pass\n"
        "class Gone: pass\n"
        "def _private(): pass\n", encoding="utf-8")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import used\nused()\ngetattr(mod, 'looked_up')\n",
                      encoding="utf-8")
    assert unread_public_names([module], [module, reader]) == [
        "mod.orphan (line 3)", "mod.Gone (line 5)"]


def test_every_public_name_is_read():
    assert unread_public_names(MODULES, READERS) == []
