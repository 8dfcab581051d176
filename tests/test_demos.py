"""The walkthroughs in ``demos/`` import only names the package still has.

Each demo is parsed, not run, so the check stays fast; it catches a public
name that was renamed or deleted without its walkthrough being updated.
"""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def ehrseq_imports(path: Path) -> list[tuple[str, str]]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [(node.module, alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "ehrseq"
            for alias in node.names]


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_resolve(path):
    imports = ehrseq_imports(path)
    assert imports, f"{path.name} imports nothing from ehrseq"
    missing = [f"{mod}.{name}" for mod, name in imports
               if not hasattr(importlib.import_module(mod), name)]
    assert not missing, f"{path.name} imports names that do not exist: {missing}"
