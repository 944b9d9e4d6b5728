"""Import hygiene of the package, checked on the source with ``ast``.

Function-local imports hide module cycles, so every import sits at module
level; the one exception is the lazy scipy import of the lattice survival
kernel, which keeps about 0.3 s of scipy loading out of ``import qloss``.
A top-level import must be read by its module, unless it only keeps a
moved name importable from its old module.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qloss"
MODULES = sorted(SRC.glob("*.py"))

#: (module, function) pairs that may import inside the function body
LOCAL_IMPORTS_ALLOWED = {("lattice", "_survival_fast")}

#: (module, name) pairs imported only to stay importable from the module;
#: both moved from tomography to protocol next to CodeDefinition
RE_EXPORTS = {("tomography", "code_space_population"), ("tomography", "_PROJECTOR_CACHE")}


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

