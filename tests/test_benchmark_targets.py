"""The benchmark's traced names still exist in the library.

perfbench/tracing.py wraps the functions, methods and the one property
listed in its TARGETS; a name renamed or deleted in caoi would only
fail once the benchmark runs, so this checks each entry by name.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return list(module.TARGETS)


@pytest.mark.parametrize("target", load_targets(), ids=".".join)
def test_target_resolves(target):
    owner = importlib.import_module(target[0])
    if len(target) == 2:
        assert callable(getattr(owner, target[1], None)), target
        return
    _, cls_name, attr = target
    cls = getattr(owner, cls_name)
    # tracing patches the class's own attribute, not an inherited one.
    assert attr in cls.__dict__, target
    if attr == "long_term_average":
        assert isinstance(cls.__dict__[attr], property)
