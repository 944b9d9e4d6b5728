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


#: the package's module names, which qualify an attribute read
MODULE_NAMES = {p.stem for p in MODULES if p.stem != "__init__"}


def _read_names(tree: ast.AST) -> set[str]:
    """Bare names loaded, plus ``module.name`` for each read qualified by a
    package module: an attribute ``tomography.fidelity`` or a
    ``getattr(protocol, "four_qubit_code")``.  An unqualified attribute such
    as ``summary.fidelity`` reads no module-level name."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in MODULE_NAMES):
            read.add(f"{node.value.id}.{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name) and node.args[0].id in MODULE_NAMES
              and isinstance(node.args[1], ast.Constant)):
            read.add(f"{node.args[0].id}.{node.args[1].value}")
    return read


def _traced_names(tree: ast.Module) -> set[str]:
    """``module.name`` of each (module, dotted path) pair in a module-level
    ``TRACED`` table; a method path counts as a read of its class."""
    return {f"{pair.elts[0].value}.{pair.elts[1].value.split('.')[0]}"
            for node in tree.body
            if isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets)
            for pair in ast.walk(node.value)
            if isinstance(pair, ast.Tuple) and len(pair.elts) == 2
            and all(isinstance(e, ast.Constant) and isinstance(e.value, str)
                    for e in pair.elts)}


def test_public_names_have_a_caller():
    """A public module-level constant or undecorated function or class must
    be read by the package (outside ``__init__``, which only re-exports) or
    by the benchmark: by its bare name, or qualified by its module."""
    modules = [p for p in MODULES if p.stem != "__init__"]
    read = set()
    for path in modules + sorted(PERFBENCH.glob("*.py")):
        tree = _tree(path)
        read |= _read_names(tree) | _traced_names(tree)
    callerless = [f"{path.stem}.{name}"
                  for path in modules for node in _tree(path).body
                  if not getattr(node, "decorator_list", None)
                  for name in _top_level_names(node)
                  if not name.startswith("_")
                  and name not in read and f"{path.stem}.{name}" not in read
                  and (path.stem, name) not in CALLERLESS_ALLOWED]
    assert callerless == []
