"""Package-wide properties of minproj."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import minproj


def test_no_module_keeps_mutable_state():
    # Every result is a function of its inputs: no module holds a mutable
    # container that a call could write to and a later call read.
    # __main__ runs the CLI when imported, so it is left out.
    found = []
    for info in pkgutil.iter_modules(minproj.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"minproj.{info.name}")
        found += [f"{info.name}.{name}" for name, value in vars(module).items()
                  if not (name.startswith("__") and name.endswith("__"))
                  and isinstance(value, (dict, list, set, bytearray))]
    assert found == []


def test_all_lists_every_public_name():
    # from minproj import * binds exactly __all__: a name listed there
    # but no longer bound (a deleted class) breaks it, and a public name
    # left out of it is missing from it
    public = [name for name, value in vars(minproj).items()
              if not name.startswith("_")
              and not isinstance(value, types.ModuleType)]
    assert sorted(minproj.__all__) == sorted(public)


def test_no_module_asserts():
    # python -O strips assert statements, so every check that matters is
    # an explicit raise: no module of the package holds an assert
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(Path(minproj.__file__).parent.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
