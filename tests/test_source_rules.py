"""Rules every module of src/qheisenberg keeps, read from its syntax tree.

* No assert statement: a check must survive python -O.
* No float: every scalar is exact, so no float or complex constant and
  no use of the names float or complex.
* Module layering: each module imports only the siblings below it.
"""

import ast
import glob
import os

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src", "qheisenberg")

# the siblings each module may import; __init__ may import any
ALLOWED = {
    "cyclotomic": set(),
    "arith": {"cyclotomic"},
    "modular": {"cyclotomic"},
    "pbw": {"arith", "cyclotomic"},
    "linalg": {"cyclotomic", "modular"},
    "reps": {"arith", "cyclotomic", "linalg", "pbw"},
    "cli": {"arith", "cyclotomic", "pbw", "reps"},
}


def modules():
    """(path, syntax tree) of each module of the package, sorted by path."""
    paths = sorted(glob.glob(os.path.join(SRC, "*.py")))
    assert paths, f"no module found in {SRC}"
    for path in paths:
        with open(path) as f:
            yield path, ast.parse(f.read())


def siblings(node):
    """The modules of the package that one import statement names."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[1] for alias in node.names
                if alias.name.startswith("qheisenberg.")]
    if not isinstance(node, ast.ImportFrom):
        return []
    if node.level:
        base = node.module
    elif (node.module or "").split(".")[0] == "qheisenberg":
        base = node.module.partition(".")[2]
    else:
        return []
    # from .x import ... names x; from . import x, y names x and y
    return [base.split(".")[0]] if base else [a.name for a in node.names]


def test_no_assert_in_src():
    found = [f"{path}:{node.lineno}"
             for path, tree in modules()
             for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_no_float_in_src():
    found = [f"{path}:{node.lineno}"
             for path, tree in modules()
             for node in ast.walk(tree)
             if (isinstance(node, ast.Constant)
                 and type(node.value) in (float, complex))
             or (isinstance(node, ast.Name)
                 and node.id in ("float", "complex"))]
    assert found == []


def test_module_layering_in_src():
    found = [f"{path}:{node.lineno}: {module} imports {name}"
             for path, tree in modules()
             if (module := os.path.basename(path)[:-3]) != "__init__"
             for node in ast.walk(tree)
             for name in siblings(node)
             if name not in ALLOWED.get(module, set())]
    assert found == []
