"""Source hygiene checks that need no installed linter."""

import ast
import pathlib

import mono

SRC = pathlib.Path(mono.__file__).parent


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports but never reads; names in __all__ are
    re-exports and count as used."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_unused_import_detector():
    tree = ast.parse(
        "import os\nimport numpy as np\nfrom x import a, b\n"
        "__all__ = ['b']\nnp.exp(a)\n"
    )
    assert _unused_imports(tree) == ["line 1: os"]


def test_no_unused_imports():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    unused = {
        path.name: found
        for path in modules
        if (found := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused
