"""Layering rules of the package, checked on its source.

* Only `caps.py` constructs `EnumerationCapExceeded` (in
  `EnumerationCaps.check`), so a reported cap name is always a real
  `EnumerationCaps` field.
* Only `graphs.py` constructs `Graph`, so every graph comes from a
  builder there that checks `max_vertices`.
* No module imports a single-underscore name from a sibling module: what
  one module needs from another is public there.  Dunders such as
  `__version__` are exempt.
* No module imports `scipy`, `numpy` or `networkx` at module level, that
  is outside a function body: a fresh CLI process must not pay for them.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "mmphf_lab"
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
