"""Module boundaries: no hqz module imports another module's private names."""

import ast
from pathlib import Path

import hqz

PACKAGE = Path(hqz.__file__).parent


def private_imports(path: Path) -> list[str]:
    """`_name`s that ``path`` imports from other hqz modules."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.ImportFrom):
            continue
        inside = node.level > 0 or (node.module or "").split(".")[0] == "hqz"
        if not inside:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {node.module}.{alias.name}")
    return found


def test_no_private_imports_between_modules():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    found = [hit for path in modules for hit in private_imports(path)]
    assert found == []


def test_detects_a_private_import(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from .functionals import _hidden, public\n"
                    "from hqz.series import _arr\n"
                    "from numpy import _private_ok\n")
    assert private_imports(path) == ["probe.py:1: functionals._hidden",
                                     "probe.py:2: hqz.series._arr"]
