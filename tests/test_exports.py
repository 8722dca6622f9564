"""Every exported name resolves, so a removed function leaves no stale export."""

import importlib
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
