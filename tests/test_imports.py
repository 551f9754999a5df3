"""Import hygiene: every name a package module imports is used in it."""
import ast
from pathlib import Path

import pytest

import flowspectra

MODULES = sorted(Path(flowspectra.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads; names
    listed in `__all__` count as read (the package re-exports them)."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = ("from dataclasses import asdict, dataclass, field\n"
              "from typing import Any\nimport numpy as np\n"
              "@dataclass\nclass A:\n    x: int = 0\n"
              "def f(a: A):\n    return asdict(a), np.zeros(1)\n")
    assert unused_imports(source) == ["line 1: field", "line 2: Any"]


def json_dumps_callers(source: str) -> list[str]:
    """The name of the function around each `json.dumps` call in `source`
    ("<module>" outside any function)."""
    callers = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "dumps"
                    and isinstance(child.func.value, ast.Name) and child.func.value.id == "json"):
                callers.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return callers


def test_json_text_is_the_only_json_writer():
    """Every JSON export shares one text format, so only `pipeline.json_text`
    calls `json.dumps`."""
    callers = {path.name: json_dumps_callers(path.read_text(encoding="utf-8"))
               for path in MODULES}
    assert {name: found for name, found in callers.items() if found} == {
        "pipeline.py": ["json_text"]}


def test_a_json_dumps_call_is_found():
    source = ("import json\nTEXT = json.dumps({})\n"
              "def f(x):\n    return [json.dumps(x)]\n"
              "def g(x):\n    return json.loads(x)\n")
    assert json_dumps_callers(source) == ["<module>", "f"]
