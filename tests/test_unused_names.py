"""Source hygiene: no module imports a name it never uses, and no function
assigns a local it never reads.

A stand-in for a linter's unused-import and unused-variable rules, read
from each module's syntax tree so it runs without extra packages.
"""

import ast
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parents[1] / "src" / "qalb"


def _exported(tree):
    """Names listed in a literal module-level __all__."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= _exported(tree)
    return [
        f"import {name} (line {line})"
        for name, line in imported.items()
        if name not in used
    ]


def unused_locals(tree):
    """Locals stored but never loaded anywhere in their function, nested
    functions included (they may read the outer local).  Names starting
    with an underscore are deliberate throwaways."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded = {}, set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Store):
                    stored.setdefault(node.id, node.lineno)
                else:
                    loaded.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                loaded.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                loaded.update(node.names)
        found.update(
            f"local {name} in {fn.name} (line {line})"
            for name, line in stored.items()
            if name not in loaded and not name.startswith("_")
        )
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) + unused_locals(tree) == []


def test_checks_catch_unused_names():
    tree = ast.parse(
        "from math import sqrt\n"
        "import itertools\n"
        "from .errors import NonFinite, TooLarge\n"
        "def f(x):\n"
        "    y = x + 1\n"
        "    z = 2\n"
        "    def g():\n"
        "        return z\n"
        "    raise TooLarge(g())\n"
    )
    assert unused_imports(tree) == [
        "import sqrt (line 1)",
        "import itertools (line 2)",
        "import NonFinite (line 3)",
    ]
    assert unused_locals(tree) == ["local y in f (line 5)"]
