"""The benchmark's outside-in tracer must find every function it wraps.

``claimbench/tracing.py`` names grpfact functions and methods by string; a
rename in the package would make ``--trace 1`` fail to install.  This test
only reads that file.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "claimbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("claimbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda t: t[2])
def test_trace_target_resolves(target):
    module_name, attr, _, _ = target
    module = importlib.import_module(f"grpfact.{module_name}")
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        assert callable(getattr(cls, meth))
        assert meth in vars(cls), f"{attr} is inherited, not defined on the class"
    else:
        assert callable(getattr(module, attr))
