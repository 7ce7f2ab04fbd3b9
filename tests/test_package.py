from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import cascadekit

SOURCE = Path(cascadekit.__file__).resolve().parent
BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_exported_name_resolves():
    missing = [name for name in cascadekit.__all__ if not hasattr(cascadekit, name)]
    assert missing == []
    assert len(set(cascadekit.__all__)) == len(cascadekit.__all__)


def test_cli_import_leaves_out_exact_arithmetic_modules():
    # every command starts cold, so exact moment arithmetic stays in plain ints
    code = "import cascadekit.cli, sys; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=SOURCE.parent,
    ).stdout
    assert out.strip() == "[]"


def test_readme_library_snippet_runs():
    readme = (SOURCE.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = code.rsplit("# ", 1)[1].strip()  # the comment on the last line
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=SOURCE.parent.parent,
        env={**os.environ, "PYTHONPATH": str(SOURCE.parent)},
    ).stdout
    assert out == expected + "\n"


def _file_calls(tree: ast.AST) -> list[str]:
    """Calls of open (bare or as any attribute) and of json.load / json.loads."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            found.append(f"open at line {node.lineno}")
        elif isinstance(func, ast.Attribute) and (
            func.attr == "open"
            or (func.attr in ("load", "loads") and isinstance(func.value, ast.Name)
                and func.value.id == "json")
        ):
            found.append(f"{ast.unparse(func)} at line {node.lineno}")
    return found


def test_files_are_opened_and_parsed_only_in_errors_py():
    offenders = {
        path.name: calls
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "errors.py"
        and (calls := _file_calls(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert offenders == {}
    assert _file_calls(ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8")))


def test_guard_sees_every_form():
    source = "open(p)\nio.open(p)\nPath(p).open()\njson.load(f)\njson.loads(s)\njson.dumps(x)\n"
    assert len(_file_calls(ast.parse(source))) == 5


def _unresolved_cascadekit_names(tree: ast.AST) -> list[str]:
    """Names imported from cascadekit, or read off an imported cascadekit module, that do not exist."""
    modules = {}  # local name -> imported cascadekit module
    missing = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cascadekit":
            module = importlib.import_module(node.module)
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                try:
                    value = getattr(module, alias.name)
                except AttributeError:
                    try:
                        value = importlib.import_module(name)
                    except ImportError:
                        missing.append(name)
                        continue
                if isinstance(value, types.ModuleType):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and not hasattr(modules[node.value.id], node.attr)
        ):
            missing.append(f"{modules[node.value.id].__name__}.{node.attr}")
    return missing


def test_benchmark_imports_resolve():
    files = sorted(BENCH.glob("*.py"))
    assert files
    missing = {
        path.name: names
        for path in files
        if (names := _unresolved_cascadekit_names(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert missing == {}


def test_benchmark_import_guard_sees_missing_names():
    source = (
        "from cascadekit.phash import MemoStore, no_such_name\n"
        "from cascadekit import metering\n"
        "metering.aggregate, metering.no_such_function\n"
    )
    assert _unresolved_cascadekit_names(ast.parse(source)) == [
        "cascadekit.phash.no_such_name",
        "cascadekit.metering.no_such_function",
    ]
