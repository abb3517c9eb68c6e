"""Every name a congwit module imports is used in that module, and every
top-level function or class is named somewhere in src.

No linter ships with the project, so this reads each module's syntax tree:
an import binds a name, and a use is a Name node or an entry of __all__
(how __init__ re-exports).  Annotations are unquoted names in every module.
"""

import ast
import tomllib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "congwit"


def _imported(tree):
    """{bound name: line} for every import in the module, at any depth."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= set(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = [f"{name} (line {line})" for name, line in _imported(tree).items() if name not in used]
    assert unused == [], f"{path.name} imports names it never uses: {', '.join(unused)}"


def _named(node):
    """Every name a node refers to: Name and Attribute nodes, imported names
    and entries of __all__."""
    names = _used(node)
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names |= {alias.name for alias in sub.names}
    return names


def test_every_top_level_definition_is_named_elsewhere_in_src():
    statements = [
        (path.name, node)
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text(), filename=str(path)).body
    ]
    named = [(node, _named(node)) for _, node in statements]
    # a console script names its function in pyproject.toml as "module:function"
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    entry_points = {target.rpartition(":")[2] for target in scripts.values()}
    unused = [
        f"{module}: {node.name} (line {node.lineno})"
        for module, node in statements
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in entry_points
        and not any(node.name in names for other, names in named if other is not node)
    ]
    assert unused == [], f"top-level definitions that nothing else in src names: {', '.join(unused)}"
