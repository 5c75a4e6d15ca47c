"""Layering rules of the package, checked on its source.

* Only `caps.py` constructs `EnumerationCapExceeded` (in `check_cap`),
  so a reported cap name is always an `EnumerationCaps` field or one of
  the constant limits that `caps` lists, and every refusal reads the same.
* Only `graphs.py` constructs `Graph`, so every graph comes from a
  builder there that checks `max_vertices`.
* No module imports a single-underscore name from a sibling module: what
  one module needs from another is public there.  Dunders such as
  `__version__` are exempt.
* No module imports `scipy`, `numpy` or `networkx` at module level, that
  is outside a function body: a fresh CLI process must not pay for them.
* A fresh process loads only the package modules its subcommand runs:
  `import mmphf_lab` loads `harddist` but not `coloring`, `lp`, `mmphf`
  or `windowtree`, which load on first use and resolve as attributes.
  Nor does it load `dataclasses`, or `inspect`, which `dataclasses`
  imports along with `ast`, `dis` and `tokenize`: the package's records
  are `typing.NamedTuple`s, `collections.namedtuple` subclasses and
  plain classes with `__slots__`.
* Every module-level public function, class and assigned name of the
  package is read by name (a loaded `Name` or attribute; an import alone
  is not a read) somewhere in the package, the demos or the acceptance
  suite, outside the statement that defines or binds it: code that only
  unit tests read does not live in the package.
* Every public name that `__init__.py` imports from a submodule is read
  from the package root in the same files, as `mmphf_lab.NAME` or
  imported from `mmphf_lab` and then read.  Submodules that it binds with
  `from . import mod` are exempt: they are what `import mmphf_lab` loads.
* Every public method or property of a public package class is read as a
  loaded attribute of that name in the same files, outside its own body.
  Dunders are exempt.
* Every public record field (an annotated class-body name, which both
  record idioms declare) of a public package class is read as a loaded
  attribute of that name in the same files, its own class's methods
  included, or by string as `getattr(obj, "name")` or
  `obj.check("name", ...)` (how `EnumerationCaps.check` reads a cap).

These read rules still match a read by name alone, not by what is read:
a name, member or field that shares its name with a read name or
attribute of another object passes.
"""

import ast
from pathlib import Path

import pytest

from fresh import run_python_fresh

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "mmphf_lab"
HEAVY = ("scipy", "numpy", "networkx")
# classes that one module alone constructs -> that module
CONSTRUCTORS = {"EnumerationCapExceeded": "caps.py", "Graph": "graphs.py"}


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def import_time_nodes(node):
    """Every node below `node` that runs on import: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from import_time_nodes(child)


def layering_violations(path: Path) -> list:
    tree = ast.parse(path.read_text(), filename=str(path))
    out = []
    for node in import_time_nodes(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        out.extend(
            f"{path.name}:{node.lineno}: imports {name} at module level"
            for name in modules
            if name.split(".")[0] in HEAVY
        )
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            owner = CONSTRUCTORS.get(name)
            if owner is not None and path.name != owner:
                out.append(f"{path.name}:{node.lineno}: constructs {name}")
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "mmphf_lab"
        ):
            out.extend(
                f"{path.name}:{node.lineno}: imports {alias.name} from a sibling module"
                for alias in node.names
                if _is_private(alias.name)
            )
    return out


def test_package_layering():
    files = sorted(PACKAGE.glob("*.py"))
    assert files, f"no modules under {PACKAGE}"
    assert [v for path in files for v in layering_violations(path)] == []


def test_checker_sees_both_rules(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from . import __version__\n"
        "from .harddist import _label_getter, sample\n"
        "from .errors import EnumerationCapExceeded\n"
        "from . import errors\n"
        "def f(n):\n"
        "    raise EnumerationCapExceeded('max_vertices', n, 1)\n"
        "def g(n):\n"
        "    raise errors.EnumerationCapExceeded('max_vertices', n, 1)\n"
    )
    assert layering_violations(mod) == [
        "mod.py:2: imports _label_getter from a sibling module",
        "mod.py:6: constructs EnumerationCapExceeded",
        "mod.py:8: constructs EnumerationCapExceeded",
    ]


def test_checker_sees_graphs_built_outside_graphs_py(tmp_path):
    source = (
        "from . import graphs\n"
        "from .graphs import Graph\n"
        "def f():\n"
        "    return Graph(vertices=[], adj_bits=[])\n"
        "def g():\n"
        "    return graphs.Graph([0], [0])\n"
        "def h():\n"
        "    return graphs.explicit_graph([0], [])\n"
    )
    mod = tmp_path / "mod.py"
    mod.write_text(source)
    assert layering_violations(mod) == [
        "mod.py:4: constructs Graph",
        "mod.py:6: constructs Graph",
    ]
    own = tmp_path / "graphs.py"
    own.write_text(source)
    assert layering_violations(own) == []


def test_checker_sees_module_level_heavy_imports(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "import numpy as np\n"
        "from scipy.stats import beta\n"
        "try:\n"
        "    import networkx\n"
        "except ImportError:\n"
        "    pass\n"
        "import numbers\n"
        "class C:\n"
        "    import scipy\n"
        "def f():\n"
        "    from scipy.stats import beta\n"
        "    import numpy\n"
        "    return beta, numpy\n"
    )
    assert layering_violations(mod) == [
        "mod.py:1: imports numpy at module level",
        "mod.py:2: imports scipy.stats at module level",
        "mod.py:4: imports networkx at module level",
        "mod.py:9: imports scipy at module level",
    ]


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _name_read(node):
    """The name a node reads: a loaded `Name` or a loaded attribute."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return [node.id]
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return [node.attr]
    return []


def _parse(path: Path):
    return ast.parse(path.read_text(), filename=str(path))


def _unread_outside(modules, readers, bound) -> list:
    """Each public name that a module-level statement of `modules` binds,
    as `bound(statement)` lists them, and that no file of `readers` reads
    by name outside that statement."""
    reads = {}  # name -> {(path, line of the top-level statement it is read in)}
    for path in readers:
        for stmt in _parse(path).body:
            for node in ast.walk(stmt):
                for name in _name_read(node):
                    reads.setdefault(name, set()).add((path, stmt.lineno))
    return [
        f"{path.name}:{stmt.lineno}: {name} is unread outside itself"
        for path in modules
        for stmt in _parse(path).body
        for name in bound(stmt)
        if not name.startswith("_") and not reads.get(name, set()) - {(path, stmt.lineno)}
    ]


def unread_definitions(modules, readers) -> list:
    """Each module-level public function or class of `modules` that no file
    of `readers` reads by name outside the definition itself."""
    return _unread_outside(
        modules, readers, lambda stmt: [stmt.name] if isinstance(stmt, DEFINITIONS) else []
    )


def _assigned_names(stmt) -> list:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [
        node.id for target in targets for node in ast.walk(target) if isinstance(node, ast.Name)
    ]


def unread_assignments(modules, readers) -> list:
    """Each public name that an assignment at module level of `modules`
    binds and that no file of `readers` reads outside that assignment."""
    return _unread_outside(modules, readers, _assigned_names)


def package_readers():
    """The package modules, and the files whose reads keep their names:
    the package itself, the demos and the acceptance suite."""
    modules = sorted(PACKAGE.glob("*.py"))
    demos = sorted((REPO / "demos").glob("*.py"))
    return modules, [*modules, *demos, REPO / "tests" / "test_acceptance.py"]


def test_package_names_are_read_outside_the_unit_tests():
    modules, readers = package_readers()
    assert unread_definitions(modules, readers) == []
    assert unread_assignments(modules, readers) == []


def test_checker_sees_unread_definitions(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "def read_by_name():\n"
        "    pass\n"
        "def read_by_attribute():\n"
        "    pass\n"
        "def only_imported():\n"
        "    pass\n"
        "def reads_itself(n):\n"
        "    return reads_itself(n - 1) if n else 0\n"
        "class Unread:\n"
        "    def method(self):\n"
        "        return read_by_name()\n"
        "def _private():\n"
        "    pass\n"
        "UNREAD_CONSTANT = 1\n"
        "def called_after_import():\n"
        "    pass\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import mod\n"
        "from mod import only_imported, called_after_import\n"
        "mod.read_by_attribute()\n"
        "mod.reads_itself = None\n"
        "called_after_import()\n"
        "print('Unread')\n"
    )
    assert unread_definitions([mod], [mod, demo]) == [
        "mod.py:5: only_imported is unread outside itself",
        "mod.py:7: reads_itself is unread outside itself",
        "mod.py:9: Unread is unread outside itself",
    ]
    assert unread_definitions([mod], [mod]) == [
        "mod.py:3: read_by_attribute is unread outside itself",
        "mod.py:5: only_imported is unread outside itself",
        "mod.py:7: reads_itself is unread outside itself",
        "mod.py:9: Unread is unread outside itself",
        "mod.py:15: called_after_import is unread outside itself",
    ]


def test_checker_sees_unread_assignments(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "READ = 1\n"
        "UNREAD = 2\n"
        "Alias = tuple\n"
        "ANNOTATED: int = 3\n"
        "FIRST, SECOND = 4, 5\n"
        "SELF_READ = [SELF_READ for _ in ()]\n"
        "_PRIVATE = 6\n"
        "def f(v: Alias):\n"
        "    return READ, FIRST\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text("import mod\nprint(mod.ANNOTATED)\nmod.UNREAD = 0\n")
    assert unread_assignments([mod], [mod, demo]) == [
        "mod.py:2: UNREAD is unread outside itself",
        "mod.py:5: SECOND is unread outside itself",
        "mod.py:6: SELF_READ is unread outside itself",
    ]
    assert unread_assignments([mod], [mod]) == [
        "mod.py:2: UNREAD is unread outside itself",
        "mod.py:4: ANNOTATED is unread outside itself",
        "mod.py:5: SECOND is unread outside itself",
        "mod.py:6: SELF_READ is unread outside itself",
    ]


def unread_reexports(init: Path, readers) -> list:
    """Each public name that the package's `__init__.py` imports from a
    submodule (`from .mod import NAME`) and that no file of `readers` reads
    from the package root: as `package.NAME`, or imported from the package
    and then read.  Submodules bound by `from . import mod` are exempt."""
    package = init.parent.name
    reads = set()
    for path in readers:
        tree = _parse(path)
        imported = {}  # local name -> package-root name it is bound to
        for node in ast.walk(tree):
            root = isinstance(node, ast.ImportFrom) and (
                (node.level == 0 and node.module == package)
                or (node.level == 1 and node.module is None and path.parent == init.parent)
            )
            if root:
                imported.update((alias.asname or alias.name, alias.name) for alias in node.names)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                if node.id in imported:
                    reads.add(imported[node.id])
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id == package
            ):
                reads.add(node.attr)
    out = []
    for stmt in _parse(init).body:
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module is not None:
            bound = [alias.asname or alias.name for alias in stmt.names]
            out.extend(
                f"{init.name}:{stmt.lineno}: {name} is unread from the package root"
                for name in bound
                if not _is_private(name) and name not in reads
            )
    return out


def test_package_reexports_are_read():
    _, readers = package_readers()
    assert unread_reexports(PACKAGE / "__init__.py", readers) == []


def test_checker_sees_unread_reexports(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    init = pkg / "__init__.py"
    init.write_text(
        "from . import mod\n"
        "from .mod import by_attribute, by_import, by_sibling, unread, _private\n"
        "from .mod import renamed as alias\n"
    )
    sibling = pkg / "sibling.py"
    sibling.write_text("from . import by_sibling\nby_sibling()\n")
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import pkg\n"
        "from pkg import by_import, unread\n"
        "from pkg.mod import alias\n"
        "pkg.by_attribute()\n"
        "by_import()\n"
        "alias()\n"
        "pkg.unread = None\n"
    )
    assert unread_reexports(init, [init, sibling, demo]) == [
        "__init__.py:2: unread is unread from the package root",
        "__init__.py:3: alias is unread from the package root",
    ]
    assert unread_reexports(init, [init, demo]) == [
        "__init__.py:2: by_sibling is unread from the package root",
        "__init__.py:2: unread is unread from the package root",
        "__init__.py:3: alias is unread from the package root",
    ]


def _attribute_reads(path: Path) -> list:
    """(attribute name, lines of the function definitions around the read)
    for every loaded attribute in the file."""
    out = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around = around | {node.lineno}
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.append((node.attr, around))
        for child in ast.iter_child_nodes(node):
            visit(child, around)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return out


def unread_members(modules, readers) -> list:
    """Each public method or property of a module-level public class of
    `modules` that no file of `readers` reads as a loaded attribute outside
    the member's own body.  Dataclass fields are not methods and dunders
    are not public, so neither is reported."""
    reads = {}  # attribute name -> [(path, lines of the definitions around the read)]
    for path in readers:
        for name, around in _attribute_reads(path):
            reads.setdefault(name, []).append((path, around))
    out = []
    for path in modules:
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for member in cls.body:
                public = isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)) and (
                    not member.name.startswith("_")
                )
                if public and all(
                    where == path and member.lineno in around
                    for where, around in reads.get(member.name, ())
                ):
                    out.append(
                        f"{path.name}:{member.lineno}: {cls.name}.{member.name}"
                        " is unread outside itself"
                    )
    return out


def test_package_members_are_read_outside_the_unit_tests():
    modules, readers = package_readers()
    assert unread_members(modules, readers) == []
    assert unread_fields(modules, readers) == []


def test_checker_sees_unread_members(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Box:\n"
        "    field: int\n"
        "    def __post_init__(self):\n"
        "        pass\n"
        "    @property\n"
        "    def read_elsewhere(self):\n"
        "        return self.field\n"
        "    def read_by_sibling(self):\n"
        "        return 1\n"
        "    def sibling(self):\n"
        "        return self.read_by_sibling()\n"
        "    def reads_itself(self, n):\n"
        "        return self.reads_itself(n - 1) if n else 0\n"
        "    @property\n"
        "    def unread_property(self):\n"
        "        return 0\n"
        "    def only_assigned(self):\n"
        "        pass\n"
        "    def only_named(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
        "class _Hidden:\n"
        "    def unread(self):\n"
        "        pass\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import mod\n"
        "box = mod.Box(1)\n"
        "print(box.read_elsewhere, box.sibling())\n"
        "box.only_assigned = None\n"
        "only_named = 'only_named'\n"
    )
    assert unread_members([mod], [mod, demo]) == [
        "mod.py:14: Box.reads_itself is unread outside itself",
        "mod.py:17: Box.unread_property is unread outside itself",
        "mod.py:19: Box.only_assigned is unread outside itself",
        "mod.py:21: Box.only_named is unread outside itself",
    ]
    assert unread_members([mod], [mod]) == [
        "mod.py:8: Box.read_elsewhere is unread outside itself",
        "mod.py:12: Box.sibling is unread outside itself",
        "mod.py:14: Box.reads_itself is unread outside itself",
        "mod.py:17: Box.unread_property is unread outside itself",
        "mod.py:19: Box.only_assigned is unread outside itself",
        "mod.py:21: Box.only_named is unread outside itself",
    ]


def _field_reads(path: Path) -> set:
    """Every attribute name the file reads: loaded attributes, and the
    string constants of `getattr(obj, "name")` and `obj.check("name", ...)`."""
    out = set()
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "getattr":
                by_string = node.args[1:2]
            elif isinstance(func, ast.Attribute) and func.attr == "check":
                by_string = node.args[:1]
            else:
                continue
            out.update(
                arg.value
                for arg in by_string
                if isinstance(arg, ast.Constant) and isinstance(arg.value, str)
            )
    return out


def unread_fields(modules, readers) -> list:
    """Each annotated class-body name (a record field) of a module-level
    public class of `modules` that no file of `readers` reads as an
    attribute.  Reads in the class's own methods count: `to_json_dict` is
    how an artifact reads a field."""
    reads = set().union(*map(_field_reads, readers))
    return [
        f"{path.name}:{member.lineno}: {cls.name}.{member.target.id} is unread"
        for path in modules
        for cls in _parse(path).body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name)
        if not member.target.id.startswith("_") and member.target.id not in reads
    ]


def test_checker_sees_unread_fields(tmp_path):
    # the package's three record idioms: a NamedTuple; a namedtuple subclass
    # with bare annotations and a validating __new__; and a plain class with
    # __slots__, bare annotations and its own __init__
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from collections import namedtuple\n"
        "from typing import NamedTuple\n"
        "class Record(NamedTuple):\n"
        "    read_elsewhere: int\n"
        "    read_by_own_method: int\n"
        "    read_by_getattr: int\n"
        "    read_by_check: int\n"
        "    only_assigned: int\n"
        "    only_named: int\n"
        "    unread: int = 0\n"
        "    def to_json_dict(self):\n"
        "        return {'read_by_own_method': self.read_by_own_method}\n"
        "class Checked(namedtuple('Checked', 'read_in_method new_unread')):\n"
        "    __slots__ = ()\n"
        "    read_in_method: int\n"
        "    new_unread: int\n"
        "    def __new__(cls, read_in_method, new_unread):\n"
        "        return super().__new__(cls, read_in_method, new_unread)\n"
        "    def twice(self):\n"
        "        return 2 * self.read_in_method\n"
        "class Slotted:\n"
        "    __slots__ = ('read_in_init', 'slot_unread', '_private')\n"
        "    read_in_init: int\n"
        "    slot_unread: int\n"
        "    _private: int\n"
        "    def __init__(self, read_in_init, slot_unread):\n"
        "        self.read_in_init = read_in_init\n"
        "        self.slot_unread = slot_unread\n"
        "        self._private = self.read_in_init\n"
        "class _Hidden(NamedTuple):\n"
        "    unread: int\n"
    )
    demo = tmp_path / "demo.py"
    demo.write_text(
        "import mod\n"
        "rec = mod.Record(1, 2, 3, 4, 5, 6)\n"
        "print(rec.read_elsewhere, getattr(rec, 'read_by_getattr'))\n"
        "caps.check('read_by_check', 7)\n"
        "rec.only_assigned = None\n"
        "only_named = 'only_named'\n"
        "mod.Slotted(1, 2).slot_unread = 3\n"
    )
    assert unread_fields([mod], [mod, demo]) == [
        "mod.py:8: Record.only_assigned is unread",
        "mod.py:9: Record.only_named is unread",
        "mod.py:10: Record.unread is unread",
        "mod.py:16: Checked.new_unread is unread",
        "mod.py:24: Slotted.slot_unread is unread",
    ]
    assert unread_fields([mod], [mod]) == [
        "mod.py:4: Record.read_elsewhere is unread",
        "mod.py:6: Record.read_by_getattr is unread",
        "mod.py:7: Record.read_by_check is unread",
        "mod.py:8: Record.only_assigned is unread",
        "mod.py:9: Record.only_named is unread",
        "mod.py:10: Record.unread is unread",
        "mod.py:16: Checked.new_unread is unread",
        "mod.py:24: Slotted.slot_unread is unread",
    ]


LAZY = ("coloring", "lp", "mmphf", "windowtree")
# standard-library modules no fresh process of the package loads
UNLOADED_STDLIB = ("dataclasses", "inspect")
LIST_MODULES = (
    "print(*sorted(m.removeprefix('mmphf_lab.') for m in sys.modules"
    f" if m.startswith('mmphf_lab.') or m in {UNLOADED_STDLIB!r}))\n"
)
# runs the CLI on the arguments after -c, then lists the package modules loaded
RUN_CLI = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('mmphf_lab.cli', run_name='__main__')\n"
    "except SystemExit:\n"
    "    pass\n"
) + LIST_MODULES


def loaded_modules(code, *argv) -> set:
    """The `mmphf_lab` submodules, and those of UNLOADED_STDLIB, that a
    fresh process running code has loaded."""
    proc = run_python_fresh("-c", code, *argv)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize(
    "argv, runs, skips",
    [
        (["--version"], [], LAZY),
        (["graph", "--graph", "shift", "--n", "2", "--u", "6"], ["graphs"], LAZY),
        (
            ["mmphf-verify", "--scheme", "rank-map", "--keys", "2,5,9", "--u", "12"],
            ["mmphf"], ("coloring", "lp", "windowtree"),
        ),
        (["sx-roundtrip", "--max-d", "2"], ["mmphf"], ("coloring", "lp", "windowtree")),
        (
            ["prune", "--arity", "2", "--depth", "1", "--labels", "1,2,1,2", "--index", "1",
             "--tau", "1/2"],
            ["windowtree"], ("coloring", "lp", "mmphf"),
        ),
        (["chi", "--graph", "shift", "--n", "2", "--u", "6"], ["coloring", "lp"], ("mmphf",)),
    ],
    ids=["version", "graph", "mmphf-verify", "sx-roundtrip", "prune", "chi"],
)
def test_subcommand_loads_only_what_it_runs(argv, runs, skips):
    loaded = loaded_modules(RUN_CLI, *argv)
    assert set(runs) <= loaded
    assert loaded.isdisjoint(skips), sorted(loaded & set(skips))
    assert loaded.isdisjoint(UNLOADED_STDLIB), sorted(loaded & set(UNLOADED_STDLIB))


def test_package_import_loads_harddist_and_defers_the_rest():
    loaded = loaded_modules("import sys, mmphf_lab\n" + LIST_MODULES)
    assert "harddist" in loaded
    assert loaded.isdisjoint(LAZY + UNLOADED_STDLIB), sorted(loaded & {*LAZY, *UNLOADED_STDLIB})


def test_deferred_modules_resolve_as_attributes():
    code = (
        "import sys, mmphf_lab\n"
        "names = ('coloring', 'graphs', 'lp', 'mmphf', 'windowtree', 'rng', 'tower')\n"
        "before = [n for n in names if f'mmphf_lab.{n}' in sys.modules]\n"
        "mods = [getattr(mmphf_lab, n) for n in names]\n"
        "assert [m.__name__ for m in mods] == [f'mmphf_lab.{n}' for n in names]\n"
        "assert all(sys.modules[m.__name__] is m for m in mods)\n"
        "try:\n"
        "    mmphf_lab.no_such_module\n"
        "except AttributeError as e:\n"
        "    print(e)\n"
        "print(*before)\n"
    )
    proc = run_python_fresh("-c", code)
    assert proc.returncode == 0, proc.stderr
    error, before = proc.stdout.splitlines()
    assert error == "module 'mmphf_lab' has no attribute 'no_such_module'"
    assert before.split() == ["graphs", "rng", "tower"]
