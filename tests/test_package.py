"""The package surface: each public name is declared once, in its own module."""

import ast
import importlib
from pathlib import Path

import nilpath

LIBRARY = ("gf2", "walks", "proofcheck", "charpoly", "report")


def _public_top_level_names(module) -> set[str]:
    """Names a module's source defines at top level, minus private ones."""
    tree = ast.parse(Path(module.__file__).read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_package_all_is_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"nilpath.{name}") for name in LIBRARY]
    expected = [name for module in modules for name in module.__all__]
    expected.append("__version__")
    assert len(nilpath.__all__) == len(set(nilpath.__all__))
    assert sorted(nilpath.__all__) == sorted(expected)
    for module in modules:
        for name in module.__all__:
            assert getattr(nilpath, name) is getattr(module, name)
    # every module lists exactly the public names it defines, so a new
    # public function cannot miss the package; cli is a front end, not
    # part of the package namespace
    for module in modules + [importlib.import_module("nilpath.cli")]:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        assert set(module.__all__) == _public_top_level_names(module), module.__name__
    assert "cli" not in nilpath.__all__
