"""The package namespace: numpy loads with the span layer (`towers`,
`modlin`) only, and every exported name is the defining module's own."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import blobalg

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def test_numpy_stays_in_the_span_layer():
    # a fresh interpreter, so that nothing this test session loaded counts
    code = "\n".join([
        "import sys",
        "import blobalg",
        "print(set(blobalg.__all__) <= set(dir(blobalg)))",
        "print('numpy' in sys.modules)",
        "blobalg.regular_basis(4)",
        "print('numpy' in sys.modules)",
        "print(blobalg.check_reduction_stability(4).passed)",
        "print('numpy' in sys.modules)",
        "print(blobalg.check_tower is blobalg.towers.check_tower)",
        "print('numpy' in sys.modules)",
    ])
    env = {**os.environ, "PYTHONPATH": _SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.split() == ["True", "False", "False", "True", "False", "True", "True"]


def test_every_exported_name_is_its_modules_own():
    star = {}
    exec("from blobalg import *", star)
    for name in blobalg.__all__:
        value = getattr(blobalg, name)
        assert star[name] is value, name
        home = sys.modules.get(getattr(value, "__module__", None) or "")
        if home is not None and home.__name__.startswith("blobalg."):
            assert getattr(home, name) is value, name
    assert {"check_tower", "standard_module", "SpecPoint", "DEFAULT_PRIME", "towers",
            "modlin", "regular_basis", "SquaredBasis"} <= set(blobalg.__all__)
    assert blobalg.regular_basis is blobalg.walks.regular_basis
    assert blobalg.DEFAULT_PRIME == blobalg.modlin.DEFAULT_PRIME


def test_a_lazy_name_is_read_again_from_its_module(monkeypatch):
    # nothing resolved is kept in the package namespace, so a binding
    # replaced in the defining module (as the benchmark's tracer does) is
    # what the next read returns, and the original once it is restored
    import blobalg.towers as towers

    original = towers.check_tower
    monkeypatch.setattr(towers, "check_tower", lambda *args: None)
    assert blobalg.check_tower is towers.check_tower is not original
    monkeypatch.undo()
    assert blobalg.check_tower is original
    assert "check_tower" not in vars(blobalg)
    with pytest.raises(AttributeError, match="no_such_name"):
        blobalg.no_such_name
