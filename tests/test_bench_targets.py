"""The benchmark times package functions by wrapping them by name; a name
that disappears silently drops its metric, so every wrapped name must stay."""
import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return child.TARGETS


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _ in load_targets()}))
def test_every_wrapped_name_is_a_callable_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(f"flowspectra.{module}"), attr, None))
