"""Every exported name resolves, so a removed function leaves no stale export;
the package re-exports each module's ``__all__`` once; every private helper
has a caller in the package."""

import ast
import collections
import importlib
import pathlib
import pkgutil

import knotproj


def test_every_all_entry_resolves():
    modules = [knotproj] + [
        importlib.import_module(f"knotproj.{info.name}")
        for info in pkgutil.iter_modules(knotproj.__path__)
    ]
    missing = [
        (mod.__name__, name)
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []


def test_star_import():
    namespace = {}
    exec("from knotproj import *", namespace)
    assert set(knotproj.__all__) <= set(namespace)


def test_package_exports_each_module_all_once():
    """The package's ``__all__`` is ``errors``, ``__version__`` and the
    ``__all__`` of each public module, with no name twice, and each name is
    the module's own object."""
    from knotproj import chords, enumeration, invariants, moves, planar, verify

    modules = (chords, enumeration, invariants, moves, planar, verify)
    names = knotproj.__all__
    assert len(names) == len(set(names))
    assert set(names) == {"errors", "__version__"}.union(*(m.__all__ for m in modules))
    assert knotproj.errors is importlib.import_module("knotproj.errors")
    for mod in modules:
        for name in mod.__all__:
            assert getattr(knotproj, name) is getattr(mod, name), (mod.__name__, name)


def test_every_private_definition_is_named_in_the_package():
    """A private function or class that no code in ``knotproj`` names, as a
    name or an attribute, is dead or used only by tests, and code only tests
    use belongs in ``tests/``.  An override of a namedtuple method
    (``_make``) is exempt: the namedtuple machinery calls it."""
    inherited = set(dir(collections.namedtuple("Record", "")))
    defined = set()
    named = set()
    for path in pathlib.Path(knotproj.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    if node.name not in inherited:
                        defined.add(node.name)
            elif isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
    assert sorted(defined - named) == []
