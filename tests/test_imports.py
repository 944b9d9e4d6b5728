"""Import hygiene of the package, checked on the source with ``ast``.

Function-local imports hide module cycles, so every import sits at module
level; the one exception is the lazy scipy import of the lattice survival
kernel, which keeps about 0.3 s of scipy loading out of ``import qloss``.
A top-level import must be read by its module, unless it only keeps a
moved name importable from its old module, and a top-level private name
must be read somewhere in the package.  Public names need a caller in the
package or the benchmark, and so does every default that a caller may
override.
"""

import ast
import math
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "qloss"
MODULES = sorted(SRC.glob("*.py"))

#: (module, function) pairs that may import inside the function body
LOCAL_IMPORTS_ALLOWED = {("lattice", "_components")}

#: (module, name) pairs imported only to stay importable from the module;
#: the projector cache moved from tomography to protocol next to CodeDefinition,
#: and seed_for from protocol to qudit (the benchmark traces protocol.seed_for)
RE_EXPORTS = {("tomography", "_PROJECTOR_CACHE"), ("protocol", "seed_for")}


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


#: (module, callable, parameter) defaults that no call in the package or the
#: benchmark passes, and why they stay
UNPASSED_DEFAULTS_ALLOWED = {
    # the per-shot generators are the reference the tests compare run_protocol against
    ("protocol", "qnd_detect", "rng"),
    ("protocol", "measure_shrunk_stabilizer", "rng"),
    ("qudit", "measure_projective", "rng"),
    ("qudit", "measure_projective", "force_outcome"),
    # the noisy table is the paper's imperfection model; the planned `qloss table`
    # command passes it
    ("tomography", "table_report", "noise"),
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass"
               for d in node.decorator_list)


def _parameters(func: ast.FunctionDef, drop_first: bool):
    """(parameter, position or None if keyword-only) of each defaulted parameter."""
    positional = func.args.posonlyargs + func.args.args
    first = len(positional) - len(func.args.defaults)
    for pos, arg in enumerate(positional[first:], first):
        yield arg.arg, pos - drop_first
    for arg, default in zip(func.args.kwonlyargs, func.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _fields(cls: ast.ClassDef):
    """(field, position) of each defaulted dataclass field; a ``default_factory``
    is not a settable value."""
    fields = [n for n in cls.body
              if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)]
    for pos, node in enumerate(fields):
        value = node.value
        if value is None or (isinstance(value, ast.Call)
                             and any(k.arg == "default_factory" for k in value.keywords)):
            continue
        yield node.target.id, pos


def _defaulted(path: Path):
    """(call name, qualified name, parameter, position) of every defaulted
    parameter of a public function or method and every defaulted field of a
    public dataclass in one module."""
    for node in _tree(path).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            for param, pos in _parameters(node, drop_first=False):
                yield node.name, node.name, param, pos
        if not isinstance(node, ast.ClassDef) or node.name.startswith("_"):
            continue
        if _is_dataclass(node):
            for param, pos in _fields(node):
                yield node.name, node.name, param, pos
        for meth in node.body:
            if not isinstance(meth, ast.FunctionDef) or (
                    meth.name.startswith("_") and meth.name != "__init__"):
                continue
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in meth.decorator_list)
            call = node.name if meth.name == "__init__" else meth.name
            for param, pos in _parameters(meth, drop_first=not static):
                yield call, f"{node.name}.{meth.name}", param, pos


def _calls(path: Path):
    """(called name, positions passed, keywords passed) of each call in one
    module, bare or as an attribute; a starred argument passes every position,
    and a ``**`` argument every keyword (keyword None)."""
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            yield name, math.inf if starred else len(node.args), {k.arg for k in node.keywords}


def test_defaulted_parameters_are_passed():
    """A default that no call in the package or the benchmark overrides is a
    constant: every run uses its one value."""
    calls: dict[str, list] = {}
    for path in MODULES + sorted(PERFBENCH.glob("*.py")):
        for name, positions, keywords in _calls(path):
            calls.setdefault(name, []).append((positions, keywords))
    unpassed = [f"{path.stem}.{qualname}({param})"
                for path in MODULES if path.stem != "__init__"
                for call, qualname, param, pos in _defaulted(path)
                if (path.stem, qualname, param) not in UNPASSED_DEFAULTS_ALLOWED
                and not any(param in keywords or None in keywords
                            or (pos is not None and positions > pos)
                            for positions, keywords in calls.get(call, ()))]
    assert unpassed == []
