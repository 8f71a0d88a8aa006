"""The package's exports, which load their submodules on first use."""

import importlib
import json
import subprocess
import sys

import pytest

import caoi


def fresh(code: str):
    """What code prints as JSON, run in a fresh interpreter."""
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout)


@pytest.mark.parametrize("name", caoi.__all__)
def test_export_is_its_submodules_own_object(name):
    obj = getattr(caoi, name)
    assert obj.__module__.startswith("caoi.")
    assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert name in dir(caoi)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from caoi import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(caoi.__all__)
    assert all(value is getattr(caoi, name) for name, value in namespace.items())


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        caoi.no_such_name
    assert getattr(caoi, "no_such_name", None) is None


def test_import_loads_no_submodule_until_an_export_is_used():
    assert fresh("""
import json, sys
import caoi
before = sorted(m for m in sys.modules if m.startswith("caoi."))
caoi.run
print(json.dumps([before, "caoi.dessim" in sys.modules]))
""") == [[], True]


def test_from_import_of_a_submodule_not_yet_loaded():
    # __getattr__ raises AttributeError for "dessim", so the import system
    # falls back to importing the submodule.
    assert fresh("""
import json, sys
from caoi import dessim
print(json.dumps(dessim is sys.modules["caoi.dessim"]))
""") is True
