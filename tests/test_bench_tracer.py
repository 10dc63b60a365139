"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist, or only the traced benchmark runs would notice."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    missing = []
    for mod_name, attr_path, *_ in tracer.TARGETS:
        owner = importlib.import_module(f"{tracer._PKG}.{mod_name}")
        owner_name, _, attr = attr_path.rpartition(".")
        if owner_name:  # methods are wrapped on their own class
            owner = getattr(owner, owner_name, None)
        if not callable(getattr(owner, "__dict__", {}).get(attr)):
            missing.append(f"{mod_name}.{attr_path}")
    assert tracer.TARGETS and not missing, missing
