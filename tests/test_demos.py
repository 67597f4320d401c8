"""The demos import only names that nexica still has.  The demos are only
parsed here; the tier-1 CI workflow runs each of them."""

import ast
import importlib
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


def nexica_imports(path: Path) -> list[tuple[str, str | None]]:
    """(module, name) for each ``from nexica... import name`` and
    (module, None) for each ``import nexica...`` in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nexica":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name, None) for alias in node.names if alias.name.split(".")[0] == "nexica"
            )
    return found


def test_demos_are_found():
    assert len(DEMOS) >= 5
    assert all(nexica_imports(path) for path in DEMOS)


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(path):
    for module, name in nexica_imports(path):
        imported = importlib.import_module(module)
        if name is not None:
            assert hasattr(imported, name), f"{path.name}: {module} has no {name}"
