"""Import hygiene: every name a package module imports is used in it, and a
run imports no module it does not need."""
import ast
import os
import subprocess
import sys
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


def callers(source: str, matches) -> list[str]:
    """The name of the function around each call in `source` for which
    `matches(call)` holds ("<module>" outside any function)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and matches(child):
                found.append(owner)
            visit(child, owner)

    visit(ast.parse(source), "<module>")
    return found


def is_json_dumps(call: ast.Call) -> bool:
    return (isinstance(call.func, ast.Attribute) and call.func.attr == "dumps"
            and isinstance(call.func.value, ast.Name) and call.func.value.id == "json")


def writes_a_file(call: ast.Call) -> bool:
    """A `write_text` or `write_bytes` method call, as on a Path, or an
    `open` call (the builtin or a method such as `Path.open`) whose mode
    holds w, a, x or +, or is not a literal string."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return isinstance(func, ast.Attribute)
    # The mode is the builtin's second argument and Path.open's first.
    modes = [k.value for k in call.keywords if k.arg == "mode"]
    modes += call.args[1:2] if isinstance(func, ast.Name) else call.args[:1]
    if name != "open" or not modes:
        return False
    if isinstance(modes[0], ast.Constant) and isinstance(modes[0].value, str):
        return bool(set(modes[0].value) & set("wax+"))
    return True  # a mode chosen at run time may write


def test_json_text_is_the_only_json_writer():
    """Every JSON export shares one text format, so only `pipeline.json_text`
    calls `json.dumps`."""
    found = {path.name: callers(path.read_text(encoding="utf-8"), is_json_dumps)
             for path in MODULES}
    assert {name: owners for name, owners in found.items() if owners} == {
        "pipeline.py": ["json_text"]}


def test_a_json_dumps_call_is_found():
    source = ("import json\nTEXT = json.dumps({})\n"
              "def f(x):\n    return [json.dumps(x)]\n"
              "def g(x):\n    return json.loads(x)\n")
    assert callers(source, is_json_dumps) == ["<module>", "f"]


def test_write_text_is_the_only_file_writer():
    """Every output file is UTF-8 with LF line ends, so only
    `ingest.write_text` opens a file for writing."""
    found = {path.name: callers(path.read_text(encoding="utf-8"), writes_a_file)
             for path in MODULES}
    assert {name: owners for name, owners in found.items() if owners} == {
        "ingest.py": ["write_text"]}


def test_a_file_writing_call_is_found():
    source = ("from pathlib import Path\nLOG = open('log', 'a')\n"
              "def f(p, mode):\n    Path(p).write_text('x')\n    return open(p, mode=mode)\n"
              "def g(p):\n    p.write_bytes(b'')\n    return p.open('x'), open(p, 'r+b')\n"
              "def readers(p):\n    return (open(p), open(p, 'rb'), open(p, mode='r'),\n"
              "            p.open(), p.open('r'), p.read_text(), write_text(p, []))\n")
    assert callers(source, writes_a_file) == ["<module>", "f", "f", "g", "g", "g"]


def test_a_timeseries_run_does_not_import_numpy_ma(tmp_path):
    # np.quantile, np.unique and np.median import numpy.ma on their first
    # call, which would add about 10 ms to every run.
    flows, out = str(tmp_path / "flows.csv"), str(tmp_path / "out")
    script = ("import sys\n"
              "from flowspectra import cli\n"
              f"assert cli.main(['synth', '--periods', '3', '--out', {str(tmp_path)!r}]) == 0\n"
              f"code = cli.main(['timeseries', '--input', {flows!r}, '--out', {out!r}])\n"
              "print(code, 'numpy.ma' in sys.modules)\n")
    src = str(Path(flowspectra.__file__).parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.splitlines()[-1] == "0 False"
