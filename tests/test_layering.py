"""Layering rules of the package, checked on its source.

* Only `caps.py` constructs `EnumerationCapExceeded` (in
  `EnumerationCaps.check`), so a reported cap name is always a real
  `EnumerationCaps` field.
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
        if isinstance(node, ast.Call) and path.name != "caps.py":
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "EnumerationCapExceeded":
                out.append(f"{path.name}:{node.lineno}: constructs EnumerationCapExceeded")
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
