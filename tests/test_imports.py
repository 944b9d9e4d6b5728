"""Import hygiene of the package, checked on the source with ``ast``.

Function-local imports hide module cycles, so every import sits at module
level; the one exception is the lazy scipy import of the lattice survival
kernel, which keeps about 0.3 s of scipy loading out of ``import qloss``.
A top-level import must be read by its module, unless it only keeps a
moved name importable from its old module, and a top-level private name
must be read somewhere in the package.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qloss"
MODULES = sorted(SRC.glob("*.py"))

#: (module, function) pairs that may import inside the function body
LOCAL_IMPORTS_ALLOWED = {("lattice", "_components")}

#: (module, name) pairs imported only to stay importable from the module;
#: the projector cache moved from tomography to protocol next to CodeDefinition
RE_EXPORTS = {("tomography", "_PROJECTOR_CACHE")}


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_local_imports(path):
    local = [f"{func.name}:{node.lineno}"
             for func in ast.walk(_tree(path))
             if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
             and (path.stem, func.name) not in LOCAL_IMPORTS_ALLOWED
             for node in ast.walk(func) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert local == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "__init__"],
                         ids=lambda p: p.stem)
def test_no_unused_top_level_imports(path):
    tree = _tree(path)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {name for module, name in RE_EXPORTS if module == path.stem}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def _top_level_names(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_private_top_level_names_are_read():
    """A module-level ``_name`` that nothing in the package reads is dead code."""
    defined, read = {}, set()
    for path in MODULES:
        tree = _tree(path)
        for node in tree.body:
            for name in _top_level_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = f"{path.stem}:{node.lineno}"
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    assert {name: where for name, where in defined.items() if name not in read} == {}


PERFBENCH = SRC.parents[1] / "perfbench"

#: public names with no caller in the package or the benchmark, and why they stay
CALLERLESS_ALLOWED = {
    # the round-trip reader the tests compare `write_json` output against
    ("serialize", "matrix_from_json_dict"),
}


def _read_names(tree: ast.AST) -> set[str]:
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _traced_names(tree: ast.Module) -> set[str]:
    """Every dotted part of the strings in a module-level ``TRACED`` table."""
    return {part
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
            for const in ast.walk(node.value)
            if isinstance(const, ast.Constant) and isinstance(const.value, str)
            for part in const.value.split(".")}


def test_public_names_have_a_caller():
    """A public, undecorated module-level function or class must be read by the
    package (outside ``__init__``, which only re-exports) or by the benchmark."""
    modules = [p for p in MODULES if p.stem != "__init__"]
    read = set()
    for path in modules + sorted(PERFBENCH.glob("*.py")):
        tree = _tree(path)
        read |= _read_names(tree) | _traced_names(tree)
    callerless = [f"{path.stem}.{node.name}"
                  for path in modules for node in _tree(path).body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and not node.name.startswith("_") and not node.decorator_list
                  and node.name not in read
                  and (path.stem, node.name) not in CALLERLESS_ALLOWED]
    assert callerless == []
