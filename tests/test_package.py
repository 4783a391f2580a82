"""Package-wide properties of minproj."""

import ast
import importlib
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import minproj

# Every submodule but __main__, which runs the CLI when imported.
MODULES = sorted(info.name for info in pkgutil.iter_modules(minproj.__path__)
                 if info.name != "__main__")


def _in_child(code: str) -> list[str]:
    """The words a fresh interpreter prints after running code."""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    return out.stdout.split()


def test_no_module_keeps_mutable_state():
    # Every result is a function of its inputs: no module holds a mutable
    # container that a call could write to and a later call read.  The
    # package module counts too: its table of lazy names is immutable.
    found = []
    for module in [minproj, *(importlib.import_module(f"minproj.{name}")
                              for name in MODULES)]:
        found += [f"{module.__name__}.{name}" for name, value in vars(module).items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and isinstance(value, (dict, list, set, bytearray))]
    assert found == []


def test_all_lists_every_public_name():
    # Public names resolve on first use: each one in __all__ is the object
    # its home module binds, and resolving it leaves nothing behind in the
    # package's namespace
    for name in minproj.__all__:
        home = importlib.import_module(f"minproj.{minproj._HOMES[name]}")
        assert getattr(minproj, name) is getattr(home, name), name
    assert [name for name, value in vars(minproj).items()
            if not name.startswith("_")
            and not isinstance(value, types.ModuleType)] == []
    assert set(minproj.__all__) <= set(dir(minproj))
    # perfbench/run.py reads an optional name with a default
    assert getattr(minproj, "no_such_name", "absent") == "absent"
    # from minproj import * binds exactly __all__
    assert _in_child("from minproj import *\n"
                     "print(*sorted(n for n in dir() if not n.startswith('__')))"
                     ) == sorted(minproj.__all__)


@pytest.mark.parametrize("statement, loaded", [
    # the package alone loads no stage
    ("import minproj", []),
    # building and writing inputs needs the geometry layer, not the solver
    ("import minproj.catalog, minproj.jsonio",
     ["catalog", "errors", "geometry", "jsonio", "linalg", "rational"]),
    # the CLI loads every stage up front, so no command pays an import
    ("import minproj.cli", MODULES),
])
def test_import_loads_only_what_it_uses(statement, loaded):
    assert _in_child(f"import sys\n{statement}\n"
                     "print(*sorted(m.split('.')[1] for m in sys.modules"
                     " if m.startswith('minproj.')))") == loaded


def test_no_module_asserts():
    # python -O strips assert statements, so every check that matters is
    # an explicit raise: no module of the package holds an assert
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(minproj.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_budget_errors_are_raised_at_one_site():
    # One unit of budget: BudgetExceededError is raised where a walk's
    # work is charged (linalg.WorkBudget.charge) and nowhere else, so no
    # second budget can come back unnoticed
    found = []
    for path in sorted(Path(minproj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scope = {}  # node -> name of its innermost function
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope.update((node, function.name) for node in ast.walk(function))
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                raised = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if getattr(raised, "id", getattr(raised, "attr", None)) == "BudgetExceededError":
                    found.append(f"{path.stem}.{scope.get(node, '<module>')}")
    assert found == ["linalg.charge"]


def test_every_import_is_used():
    # A name a module imports is read somewhere in that module, so a
    # deletion cannot leave its import behind; __future__ imports bind
    # no name
    found = []
    for path in sorted(Path(minproj.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                                for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update((alias.asname or alias.name, node.lineno)
                                for alias in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []



def _read_names(tree: ast.AST, skip: ast.AST | None = None,
                imports: bool = False) -> set[str]:
    """The names that the code of tree reads, as names or attributes,
    outside the node skip; with imports, also the names it imports and
    the dotted parts of its strings."""
    skipped = set(ast.walk(skip)) if skip is not None else set()
    names = set()
    for node in ast.walk(tree):
        if node in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif imports and isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
        elif imports and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds by definition or
    assignment: a function's or class's name, or the plain names its
    assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [name.id for target in targets for name in ast.walk(target)
            if isinstance(name, ast.Name)]


# The public names that no command reads but the binding acceptance
# criteria test directly: cm_rank_gap (criterion 6, the rank drop of
# Chalmers-Metcalf functionals) and max_norming_projection (criterion
# 7, a minimal projection with many norming pairs)
ACCEPTANCE_NAMES = ("cm_rank_gap", "max_norming_projection")


def _defined_names(tree: ast.Module):
    """(node, name, label) for each name the module defines: what its
    module-level statements bind (_bound_names) and the public methods
    and properties of its classes, labelled Class.name."""
    for node in tree.body:
        for name in _bound_names(node):
            yield node, name, name
        if isinstance(node, ast.ClassDef):
            yield from ((member, member.name, f"{node.name}.{member.name}")
                        for member in node.body
                        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not member.name.startswith("_"))


def test_every_function_has_a_caller():
    """A module-level function, class or constant of the package, and a
    public method or property of one of its classes, is read by the
    package's own code outside its definition, or read by perfbench/
    (imported, called, or named in a string, as its tracer names what it
    wraps), so a change that takes its last use away must take it away
    too.  Being listed in __all__ is no read: a name only the tests read
    belongs in tests/oracles.py.  An import in the package is not a use:
    test_every_import_is_used asks for a read beside it.

    The rule matches names, not bindings: a name is read when any Name
    or attribute of that spelling is, so a method shares the reads of
    every local, parameter or attribute of its name.  It misses a dead
    method named like a variable in use: the Fraction view
    PolyhedralSpace.dual_vertices, which went with primal_vertices,
    passed on the reads of from_vertices' parameter dual_vertices."""
    package = Path(minproj.__file__).parent
    paths = sorted(package.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    perfbench = Path(__file__).resolve().parent.parent / "perfbench"
    read = set(ACCEPTANCE_NAMES)
    for path in sorted(perfbench.glob("*.py")):
        read |= _read_names(ast.parse(path.read_text(encoding="utf-8")), imports=True)
    found = []
    for path, tree in zip(paths, trees):
        found += [f"{path.name}:{node.lineno} {label}"
                  for node, name, label in _defined_names(tree)
                  if not (name.startswith("__") and name.endswith("__"))
                  and name not in read
                  and not any(name in _read_names(other, node) for other in trees)]
    assert found == []
