"""Package-wide properties of minproj."""

import importlib
import pkgutil

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
