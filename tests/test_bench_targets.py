"""The benchmark times package functions by wrapping them by name; a name
that disappears silently drops its metric, so every wrapped name must stay.
The names it calls directly must stay too, or its jobs fail."""
import ast
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


def package_names():
    """(module, attr) for every name `bench/child.py` imports from a package
    module, and every attribute it reads on a package module it imported
    (scopes are not told apart)."""
    tree = ast.parse(CHILD.read_text(encoding="utf-8"))
    names, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "flowspectra":
                    modules[alias.asname or alias.name] = alias.name
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").split(".")[0] == "flowspectra"):
            for alias in node.names:
                submodule = f"{node.module}.{alias.name}"
                try:
                    importlib.import_module(submodule)
                except ModuleNotFoundError:
                    names.add((node.module, alias.name))
                else:
                    modules[alias.asname or alias.name] = submodule
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
    return sorted(names)


@pytest.mark.parametrize("module, attr", sorted({(m, a) for m, a, _ in load_targets()}))
def test_every_wrapped_name_is_a_callable_module_attribute(module, attr):
    assert callable(getattr(importlib.import_module(f"flowspectra.{module}"), attr, None))


@pytest.mark.parametrize("module, attr", package_names())
def test_every_name_the_benchmark_calls_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_the_benchmark_calls_are_found():
    assert {("flowspectra.ingest", "write_flow_file"), ("flowspectra.cli", "main"),
            ("flowspectra.cluster", "dendrogram_to_json"),
            ("flowspectra.errors", "FlowspectraError")} <= set(package_names())
