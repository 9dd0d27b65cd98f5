"""Every name that a module of fshin binds by an import is read in that
module: a stdlib stand-in for a linter's unused-import check."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "fshin"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str) -> list[str]:
    """The names that source binds by an import and never reads."""
    tree = ast.parse(source)
    bound = {
        (alias.asname or alias.name).partition(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_unread_imports_finds_an_import_without_a_use():
    source = "import os.path\nimport sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert unread_imports(source) == ["c", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text(encoding="utf-8")) == []
