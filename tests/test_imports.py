"""Every name that a module of fshin binds by an import is read in that
module, and every function, class and method it defines is named somewhere
else: stdlib stand-ins for a linter's unused-import and dead-code checks."""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src" / "fshin"
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


def definitions(tree: ast.Module) -> list[ast.AST]:
    """The module-level functions and classes of tree and the methods of
    those classes, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = [node for node in tree.body if isinstance(node, kinds)]
    out += [n for c in out if isinstance(c, ast.ClassDef) for n in c.body if isinstance(n, kinds[:2])]
    return [d for d in out if not (d.name.startswith("__") and d.name.endswith("__"))]


def names(tree: ast.AST) -> Counter:
    """How often tree names each identifier, attribute and string constant:
    perfbench wraps methods by name, as strings."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute) else n.value
        for n in ast.walk(tree)
        if isinstance(n, (ast.Name, ast.Attribute)) or isinstance(n, ast.Constant) and isinstance(n.value, str)
    )


def unnamed_definitions(sources: dict[str, str], readers: list[str]) -> list[str]:
    """module:name for each definition in sources (module -> text) that no
    text of readers names outside the definition itself."""
    named = sum((names(ast.parse(text)) for text in readers), Counter())
    return sorted(
        f"{module}:{d.name}"
        for module, text in sources.items()
        for d in definitions(ast.parse(text))
        if named[d.name] <= names(d)[d.name]
    )


def test_unnamed_definitions_finds_a_definition_no_one_names():
    source = (
        "def used(): pass\ndef dead(): return dead()\n"
        "class K:\n    def __init__(self): pass\n    def wrapped(self): pass\n    def m(self): pass\n"
    )
    reader = "used()\nK().m\nwrap(K, 'wrapped')\n"
    assert unnamed_definitions({"mod": source}, [source, reader]) == ["mod:dead"]


def test_every_definition_is_named():
    """Each function, class and method of fshin is named by fshin, the tests
    or perfbench, besides its own definition."""
    paths = [p for d in ("src/fshin", "tests", "perfbench") for p in ROOT.glob(f"{d}/*.py")]
    readers = [p.read_text(encoding="utf-8") for p in paths]
    sources = {p.name: p.read_text(encoding="utf-8") for p in SRC.glob("*.py")}
    assert unnamed_definitions(sources, readers) == []
