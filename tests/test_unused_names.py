"""Source hygiene: no module imports a name it never uses, no function
assigns a local it never reads, no class defines a method, property or
dataclass field that nothing reads, and no module defines a top-level
function, class or constant that nothing references.

A stand-in for a linter's unused-import, unused-variable and dead-code
rules, read from each module's syntax tree so it runs without extra packages.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "qalb"


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


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def class_attributes(tree):
    """(class, name, line) of every method, property and dataclass field
    defined in a class body; dunder methods are the language's to call."""
    found = []
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
            elif (
                _is_dataclass(cls)
                and isinstance(node, ast.AnnAssign)
                and isinstance(node.target, ast.Name)
            ):
                name = node.target.id
            else:
                continue
            if not (name.startswith("__") and name.endswith("__")):
                found.append((cls.name, name, node.lineno))
    return found


def attributes_read(tree):
    """Attribute names loaded anywhere, plus getattr's literal names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(
            node.ctx, ast.Store
        ):
            read.add(node.attr)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "getattr"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
        ):
            read.add(node.args[1].value)
    return read


def unread_attributes(defining, reading):
    read = set().union(*(attributes_read(tree) for tree in reading))
    return [
        f"{cls}.{name} (line {line})"
        for tree in defining
        for cls, name, line in class_attributes(tree)
        if name not in read
    ]


def module_level_names(tree):
    """(name, line) of every top-level function, class and assigned
    constant; dunder names are the language's."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [
            (name, node.lineno)
            for name in names
            if not (name.startswith("__") and name.endswith("__"))
        ]
    return found


def names_read(tree):
    """Bare names loaded, plus every attribute name `attributes_read` finds."""
    read = attributes_read(tree)
    read.update(
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)
    )
    return read


def unreferenced_names(defining, reading):
    read = set().union(*(names_read(tree) for tree in reading))
    return [
        f"{module}.{name} (line {line})"
        for module, tree in defining.items()
        for name, line in module_level_names(tree)
        if name not in read
    ]


@pytest.mark.parametrize(
    "path", sorted(_SRC.glob("*.py")), ids=lambda p: p.name
)
def test_no_unused_names(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    assert unused_imports(tree) + unused_locals(tree) == []


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reading():
    return [
        _parse(path)
        for top in ("src", "tests", "perfbench")
        for path in sorted((_ROOT / top).rglob("*.py"))
        if "_work" not in path.parts
    ]


def test_no_unread_attributes():
    defining = [_parse(path) for path in sorted(_SRC.glob("*.py"))]
    assert unread_attributes(defining, _reading()) == []


def test_no_unreferenced_module_names():
    defining = {path.stem: _parse(path) for path in sorted(_SRC.glob("*.py"))}
    assert unreferenced_names(defining, _reading()) == []


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


def test_check_catches_unread_attributes():
    defining = ast.parse(
        "@dataclass(frozen=True)\n"
        "class Run:\n"
        "    steps: int\n"
        "    label: str\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    def total(self):\n"
        "        return self.steps\n"
        "    @property\n"
        "    def dead(self):\n"
        "        return 0\n"
        "class Plain:\n"
        "    count: int\n"
    )
    reading = ast.parse(
        "run = Run(steps=3, label='a')\n"
        "run.total()\n"
        "run.dead = 1\n"
        "getattr(run, 'count')\n"
    )
    assert unread_attributes([defining], [defining, reading]) == [
        "Run.label (line 4)",
        "Run.dead (line 10)",
    ]


def test_check_catches_unreferenced_module_names():
    defining = ast.parse(
        "LIMIT = 3\n"
        "_SPARE: int = 4\n"
        "__version__ = '1'\n"
        "class Used:\n"
        "    pass\n"
        "def helper():\n"
        "    return LIMIT\n"
        "def dead():\n"
        "    return Used()\n"
        "def called_by_attribute():\n"
        "    pass\n"
    )
    reading = ast.parse(
        "import mod\n"
        "mod.helper()\n"
        "mod.called_by_attribute()\n"
        "dead = 1\n"
    )
    assert unreferenced_names({"mod": defining}, [defining, reading]) == [
        "mod._SPARE (line 2)",
        "mod.dead (line 8)",
    ]
