import os
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import minproj
from minproj.catalog import paper_cases
from minproj.projections import face_dimension, projection_constant


@pytest.fixture(scope="session", autouse=True)
def child_pythonpath():
    """Child interpreters started by the tests import this same minproj,
    also when it was found through pytest's pythonpath setting."""
    src = str(Path(minproj.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("PYTHONPATH", path)
        yield


@pytest.fixture(scope="session")
def analyzed():
    """Every named case fully analyzed once per session: the suite leans on
    these repeatedly and the analyses are pure."""
    out = {}
    for case in paper_cases():
        report = projection_constant(case.space, case.subspace)
        face_dim, implicit = face_dimension(report)
        out[case.name] = SimpleNamespace(
            case=case, report=report, face_dim=face_dim, implicit=implicit)
    return out


@pytest.fixture
def spy(monkeypatch):
    """spy(module, name) replaces module.name, for this test, by a wrapper
    that counts its calls, and returns the Counter of every spy in the
    test, keyed by name.  It counts the calls made through that binding
    only: a module that imported the function under its own name calls
    the original unless it is spied on too."""
    counts = Counter()

    def install(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
        return counts

    return install
