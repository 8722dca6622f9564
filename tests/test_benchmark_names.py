"""The benchmark's tracer wraps knotproj functions by name.

A refactor that renames or deletes one of them would make the tracer skip it
silently and report its metrics as 0, so every traced name is checked here.
The tracer is loaded from its file, as the benchmark runs it.
"""

import importlib
import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_traced_names_exist_in_knotproj():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(mod, attr) for mod, attr, _ in tracer.SPANS + tracer.COUNTS]
    assert names
    missing = [
        (mod, attr)
        for mod, attr in names
        if not callable(getattr(importlib.import_module(f"knotproj.{mod}"), attr, None))
    ]
    assert missing == []
