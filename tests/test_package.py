from __future__ import annotations

import ast
from pathlib import Path

import cascadekit

SOURCE = Path(cascadekit.__file__).resolve().parent


def test_every_exported_name_resolves():
    missing = [name for name in cascadekit.__all__ if not hasattr(cascadekit, name)]
    assert missing == []
    assert len(set(cascadekit.__all__)) == len(cascadekit.__all__)


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
