"""Source hygiene: no module imports a name it never uses, no function
assigns a local it never reads, no class defines a method, property or
dataclass field that nothing reads, no module defines a top-level
function, class or constant that nothing references, and every top-level
function or class in src/, and every method or property of such a class,
is reached by a run or named in `_KEPT_FOR_TESTS` with the reason it stays.

A stand-in for a linter's unused-import, unused-variable and dead-code
rules, read from each module's syntax tree so it runs without extra packages.
"""

import ast
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1]
_SRC = _ROOT / "src" / "qalb"

_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
_DEFINITIONS = _FUNCTIONS + (ast.ClassDef,)

# Top-level functions and classes of src/ that no run reaches, each with
# the reason it stays in the package rather than among the test oracles:
# a program path is planned for it, or a kept name needs it.  A kept class
# keeps its methods and properties.
_PAULI = "Pauli compilation, for a compile report (acceptance criterion 3)"
_CARLEMAN = "Carleman embedding of the BGK rate (acceptance criterion 1)"
_KEPT_FOR_TESTS = {
    "pauli.PauliSum": _PAULI,
    "pauli.PauliWord": _PAULI,
    "pauli._canonical": _PAULI,
    "pauli.a_pauli": _PAULI,
    "pauli.compile_number": _PAULI,
    "pauli.p_pauli": _PAULI,
    "pauli.pauli_to_dense": _PAULI,
    "pauli.q_pauli": _PAULI,
    "pauli.sigma_minus": _PAULI,
    "pauli.sigma_plus": _PAULI,
    "pauli.term_stats": _PAULI,
    "carleman.bgk_driving": _CARLEMAN,
    "carleman.clb_closed_d1q3": _CARLEMAN,
    "errors.OmegaOutOfRange": "raised by carleman.clb_closed_d1q3",
    "bounds.epsilon_N": "one level of the defect table, for a leakage row",
    "bounds.epsilon_N_detail": "epsilon_N with its argmax",
    "engine.collision_increments": "decoded per-mode rates of one register",
    "engine.omega_operator": "one population's generator, built alone",
    "engine.decode_state": "the decode of one full register state",
    "engine.phase_space_divergence": "the exact divergence the engine matches",
    "fock.number_matrix": "the matrix pauli.compile_number compiles",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


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
            if not _is_dunder(name):
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
        if isinstance(node, _DEFINITIONS):
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
            if not _is_dunder(name)
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


def definitions(defining):
    """{qualified name: node} of every top-level function and class of
    `defining` ({module: tree}), and of every method and property of those
    classes as `module.Class.name`."""
    nodes = {}
    for module, tree in defining.items():
        for node in tree.body:
            if isinstance(node, _DEFINITIONS):
                nodes[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                nodes.update(
                    (f"{module}.{node.name}.{item.name}", item)
                    for item in node.body
                    if isinstance(item, _FUNCTIONS)
                )
    return nodes


def _owner(qual):
    """Qualified class of a method; None for a top-level definition."""
    return qual.rpartition(".")[0] if qual.count(".") == 2 else None


def _definition_reads(node, read=names_read):
    """Names a definition reads (`read` of its parts); a class reads its
    decorators, bases and class-level statements, and its methods read
    their own."""
    if not isinstance(node, ast.ClassDef):
        return read(node)
    parts = node.decorator_list + node.bases + [
        item for item in node.body if not isinstance(item, _FUNCTIONS)
    ]
    return set().union(*map(read, parts))


def reached_names(defining, roots, reading):
    """Qualified names of the definitions of `defining` (see `definitions`)
    reached from the qualified `roots`, from each module's top-level
    statements other than definitions, and from every name the `reading`
    trees read.  A top-level definition is reached when a reached
    definition reads its name, in whichever module it is defined; a method
    or property when its class is reached and some reached definition
    reads it as an attribute, `x.name` or getattr(x, "name"): a bare
    local of the same name does not reach it (dunder methods, which the
    language calls, with their class alone)."""
    nodes = definitions(defining)
    always = list(reading) + [
        node for tree in defining.values() for node in tree.body
        if not isinstance(node, _DEFINITIONS)
    ]
    # (what each definition reads, what is read regardless), as bare or
    # attribute names and as attribute names alone
    names, attrs = (
        ({q: _definition_reads(node, read) for q, node in nodes.items()},
         set().union(*map(read, always)))
        for read in (names_read, attributes_read)
    )
    reached = set(roots)
    while True:
        read = names[1].union(*(names[0][q] for q in reached))
        attr = attrs[1].union(*(attrs[0][q] for q in reached))
        more = set()
        for qual in nodes.keys() - reached:
            name, owner = qual.rpartition(".")[2], _owner(qual)
            if (owner is None and name in read) or (
                owner in reached and (name in attr or _is_dunder(name))
            ):
                more.add(qual)
        if not more:
            return reached
        reached |= more


def unreached_names(defining, roots, reading, kept):
    """Definitions reached by no run and not kept, plus kept entries that
    are not defined or are reached after all.  A kept class keeps its
    methods."""
    defined = set(definitions(defining))
    reached = reached_names(defining, roots, reading)
    unreached = {
        q for q in defined - reached - set(kept) if _owner(q) not in kept
    }
    return (
        [f"{q} is unreached" for q in sorted(unreached)]
        + [f"{q} is kept but not defined" for q in sorted(set(kept) - defined)]
        + [f"{q} is kept but reached" for q in sorted(set(kept) & reached)]
    )


@pytest.mark.parametrize(
    "path",
    sorted(_SRC.glob("*.py")) + [_ROOT / "tests" / "oracles.py"],
    ids=lambda p: p.name,
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


def test_every_src_name_reached_or_kept():
    # reached from the command line, from module-level tables, and from
    # what the benchmark harness calls (its own tests aside)
    defining = {path.stem: _parse(path) for path in sorted(_SRC.glob("*.py"))}
    bench = [
        _parse(path)
        for path in sorted((_ROOT / "perfbench").glob("*.py"))
        if not path.name.startswith("test_")
    ]
    assert unreached_names(
        defining, ["cli.main"], bench, _KEPT_FOR_TESTS
    ) == []


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


def test_reachability_check_catches_unreached_and_stale():
    cli = ast.parse(
        "TABLE = {'run': run}\n"
        "def main():\n"
        "    return TABLE\n"
        "def run():\n"
        "    return helper().size()\n"
        "if __name__ == '__main__':\n"
        "    main()\n"
    )
    mod = ast.parse(
        "def helper():\n"
        "    return Box()\n"
        "class Box:\n"
        "    def __init__(self):\n"
        "        self.n = counted()\n"
        "    def size(self):\n"
        "        return measured()\n"
        "    def spare(self):\n"
        "        return oracle_only()\n"
        "class Unused:\n"
        "    def size(self):\n"
        "        return planted()\n"
        "class Kept:\n"
        "    def spare(self):\n"
        "        pass\n"
        "def counted():\n"
        "    pass\n"
        "def measured():\n"
        "    spare = 0\n"
        "    return spare\n"
        "def benched():\n"
        "    pass\n"
        "def planted():\n"
        "    return helper()\n"
        "def oracle_only():\n"
        "    pass\n"
    )
    bench = ast.parse("import mod\nmod.benched()\n")
    defining = {"cli": cli, "mod": mod}
    assert reached_names(defining, ["cli.main"], [bench]) == {
        "cli.main", "cli.run", "mod.helper", "mod.Box", "mod.Box.__init__",
        "mod.counted", "mod.Box.size", "mod.measured", "mod.benched",
    }
    kept = {"mod.oracle_only": "test", "mod.gone": "test", "mod.helper": "test",
            "mod.Kept": "test"}
    assert unreached_names(defining, ["cli.main"], [bench], kept) == [
        "mod.Box.spare is unreached",
        "mod.Unused is unreached",
        "mod.Unused.size is unreached",
        "mod.planted is unreached",
        "mod.gone is kept but not defined",
        "mod.helper is kept but reached",
    ]
