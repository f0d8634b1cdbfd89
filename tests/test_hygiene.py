import ast
from pathlib import Path

import pytest

_SRC = sorted((Path(__file__).resolve().parent.parent / "src" / "balines").glob("*.py"))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_every_import_is_used(path):
    """Each name a module imports is read somewhere in it, or re-exported
    through its __all__."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    unused = {name: line for name, line in imported.items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def _names_read(path):
    """The names a module reads, bare or as attributes."""
    tree = ast.parse(path.read_text())
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


_READ = set().union(*map(_names_read, _SRC))


@pytest.mark.parametrize("path", _SRC, ids=lambda p: p.name)
def test_every_private_definition_is_referenced(path):
    """Each module-level private function and class is read somewhere in
    src/balines."""
    private = {node.name: node.lineno for node in ast.parse(path.read_text()).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and node.name.startswith("_") and not node.name.startswith("__")}
    unread = {name: line for name, line in private.items() if name not in _READ}
    assert not unread, f"{path.name}: unreferenced private definitions {unread}"
