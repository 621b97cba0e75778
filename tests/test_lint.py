"""Source hygiene checks that need no installed linter."""

import ast
import math
import os
import pathlib
import subprocess
import sys

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


def _third_party_imports(tree: ast.Module) -> list[str]:
    """Absolute imports of modules outside the standard library."""
    names = [
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
    ] + [
        (node.lineno, node.module)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 0
    ]
    return [
        f"line {line}: {name}"
        for line, name in names
        if name.split(".")[0] not in sys.stdlib_module_names
    ]


def test_third_party_import_detector():
    tree = ast.parse(
        "import os.path\nimport numpy as np\nfrom __future__ import annotations\n"
        "from . import x\nfrom .y import z\nfrom scipy import special\n"
    )
    assert _third_party_imports(tree) == ["line 2: numpy", "line 6: scipy"]


def test_package_imports_only_the_standard_library():
    # the package runs on the standard library alone; numpy and the rest
    # are test dependencies
    found = {
        path.name: bad
        for path in sorted(SRC.glob("*.py"))
        if (bad := _third_party_imports(ast.parse(path.read_text())))
    }
    assert not found


def test_cli_import_loads_no_start_up_weight():
    # every mono command starts by importing the CLI.  numpy is a test
    # dependency; dataclasses pulls in inspect, ast, dis and tokenize; and
    # csv, tempfile and the figures load when a command writes a file.  -S
    # keeps site hooks from loading modules of their own.
    heavy = ["numpy", "dataclasses", "inspect", "typing", "csv", "tempfile", "mono.figures"]
    code = f"import sys, mono.cli; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(SRC.parent)}
    out = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def _unread_private_names(tree: ast.Module) -> list[str]:
    """Module-level _-prefixed functions, classes and constants that the
    module itself never reads."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [f"line {line}: {name}" for name, line in defined.items() if name not in read]


def test_unread_private_name_detector():
    tree = ast.parse(
        "_A = 1\n_B, _C = 2, 3\n__all__ = []\n"
        "def _f():\n    return _B\nclass _K:\n    pass\n"
        "def g():\n    _local = 4\n    return _f()\n"
    )
    assert _unread_private_names(tree) == ["line 1: _A", "line 2: _C", "line 6: _K"]


def test_no_unread_private_names():
    unread = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _unread_private_names(ast.parse(path.read_text())))
    }
    assert not unread


def _unreferenced_defs(defining: dict, readers: list) -> list[str]:
    """Functions, methods and classes defined in the defining trees (by
    file name) whose name no reader tree mentions as a name, an attribute
    or a string; dunder methods are called by Python itself."""
    mentioned = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                mentioned.add(node.id)
            elif isinstance(node, ast.Attribute):
                mentioned.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                mentioned.add(node.value)
    return [
        f"{name} line {node.lineno}: {node.name}"
        for name, tree in defining.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in mentioned
    ]


def test_unreferenced_def_detector():
    tree = ast.parse(
        "class K:\n    def __len__(self):\n        return 0\n"
        "    def m(self):\n        return f()\n    def spare(self):\n        pass\n"
        "def f():\n    return K\ndef g():\n    pass\n"
    )
    reader = ast.parse("import x\nx.m()\nsetattr(x, 'g', None)\n")
    assert _unreferenced_defs({"t.py": tree}, [tree, reader]) == ["t.py line 6: spare"]


def test_every_def_is_referenced():
    # a def or class that nothing in the package, the benchmark or the
    # tests names is dead code
    root = pathlib.Path(__file__).resolve().parents[1]
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = list(defining.values()) + [
        ast.parse(path.read_text())
        for folder in ("bench", "tests")
        for path in sorted((root / folder).glob("*.py"))
    ]
    assert _unreferenced_defs(defining, readers) == []


def _unread_constants(defining: dict, readers: list) -> list[str]:
    """Public ALL-CAPS module constants in the defining trees (by file
    name) that no reader tree loads as a name or reads as an attribute."""
    read = set()
    for tree in readers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = []
    for name, tree in defining.items():
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    for n in ast.walk(t):
                        if (
                            isinstance(n, ast.Name)
                            and n.id.isupper()
                            and not n.id.startswith("_")
                            and n.id not in read
                        ):
                            found.append(f"{name} line {node.lineno}: {n.id}")
    return found


def test_unread_constant_detector():
    tree = ast.parse(
        "A = 1\nB, C = 2, 3\n_D = 4\nlower = 5\n"
        "def f():\n    E = 6\n    return B\n"
    )
    reader = ast.parse("import m\nm.C\nprint('A')\n")
    assert _unread_constants({"t.py": tree}, [tree, reader]) == ["t.py line 1: A"]


def test_every_constant_is_read():
    # a public constant that nothing in the package, the benchmark or the
    # tests reads is a setting with no effect
    root = pathlib.Path(__file__).resolve().parents[1]
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    readers = list(defining.values()) + [
        ast.parse(path.read_text())
        for folder in ("bench", "tests")
        for path in sorted((root / folder).glob("*.py"))
    ]
    assert _unread_constants(defining, readers) == []



def _public_defs(tree: ast.Module):
    """(called name, def, whether the first parameter is bound) for the
    module's public functions and the public methods of its public
    classes; a class name calls its __init__."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for m in node.body:
                if isinstance(m, ast.FunctionDef) and (
                    m.name == "__init__" or not m.name.startswith("_")
                ):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in m.decorator_list)
                    yield (node.name if m.name == "__init__" else m.name), m, not static


def _unvaried_defaults(defining: dict, callers: list) -> list[str]:
    """Parameters with a default on the public defs of the defining trees
    (by file name) that no call in the caller trees passes, by keyword or
    by position.  Calls are matched by the called name; a starred
    argument passes every position, and **kwargs every keyword."""
    positions, keywords = {}, set()
    for tree in callers:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                count = math.inf if starred else len(node.args)
                positions[name] = max(positions.get(name, 0), count)
                keywords |= {(name, kw.arg) for kw in node.keywords}  # None: **kwargs
    found = []
    for file_name, tree in defining.items():
        for call, fn, bound in _public_defs(tree):
            a = fn.args
            params = (a.posonlyargs + a.args)[1 if bound else 0 :]
            defaulted = list(enumerate(params))[len(params) - len(a.defaults) :]
            defaulted += [
                (math.inf, p) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None
            ]
            for i, p in defaulted:
                passed = {(call, p.arg), (call, None)} & keywords
                if not (passed or positions.get(call, 0) > i):
                    found.append(f"{file_name} line {fn.lineno}: {call}({p.arg})")
    return found


def test_unvaried_default_detector():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def _g(x=1):\n    pass\n"
        "class K:\n    def __init__(self, t=0):\n        pass\n"
        "    def m(self, u=1, v=2):\n        pass\n"
        "    @staticmethod\n    def s(w=1):\n        pass\n"
        "class _P:\n    def m2(self, q=1):\n        pass\n"
    )
    caller = ast.parse("f(0, 1, e=5)\nK(t=1)\nk.m(1)\nK.s(*ws)\n")
    assert _unvaried_defaults({"t.py": tree}, [tree, caller]) == [
        "t.py line 1: f(c)",
        "t.py line 1: f(d)",
        "t.py line 8: m(v)",
    ]


def test_every_default_is_varied():
    # a default that no call in the package or the benchmark overrides is
    # a setting nothing varies: it should be a constant, or derived
    root = pathlib.Path(__file__).resolve().parents[1]
    defining = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    callers = list(defining.values()) + [
        ast.parse(path.read_text()) for path in sorted((root / "bench").glob("*.py"))
    ]
    assert _unvaried_defaults(defining, callers) == []


_DISC_PROOF = {"rounding_floor", "exp_tail"}


def _disc_proof_calls(tree: ast.Module) -> list[str]:
    """Calls of rounding_floor or exp_tail, under their own names or an
    import alias, each with its enclosing top-level def or class."""
    names = _DISC_PROOF | {
        alias.asname
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name in _DISC_PROOF and alias.asname
    }
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                f = node.func
                if (f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)) in names:
                    found.append(f"line {node.lineno}: {owner}")
    return found


def test_disc_proof_call_detector():
    tree = ast.parse(
        "import m\nfrom m import exp_tail as et\n"
        "def f(x):\n    return et(1.0, x)\n"
        "class K:\n    def g(self):\n        return m.rounding_floor(1, 2, 3, 4)\n"
        "def h():\n    return m.exp_tail\n"
        "T = m.exp_tail(1.0, 0.5)\n"
    )
    assert _disc_proof_calls(tree) == ["line 4: f", "line 7: K", "line 10: <module>"]


def test_one_root_disc_proof():
    # rounding_floor and exp_tail are the parts of a disc proof: equation
    # builds the one-zero disc from them (zero_disc) and rootwindow the
    # root-free disc (_excluded); a third caller writes out a proof of its own
    calls = [
        f"{path.name} {call}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "equation.py"
        for call in _disc_proof_calls(ast.parse(path.read_text()))
        if not (path.name == "rootwindow.py" and call.endswith(": _excluded"))
    ]
    assert calls == []


# lines of src/mono/*.py: a change that grows or shrinks the package
# changes this figure in its own diff, as it would a work pin
SOURCE_LINES = 3_007


def test_source_line_count():
    lines = sum(len(path.read_text().splitlines()) for path in SRC.glob("*.py"))
    assert lines == SOURCE_LINES
