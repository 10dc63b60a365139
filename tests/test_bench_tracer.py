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


def test_tracer_hooks_read_what_exists(dense25, cantor_basis):
    # each hook reads attributes of its call's arguments or result (a
    # dense sequence's _TRIE_DEPTH, a trace's terminated, a result's audit);
    # run every hooked layer under the installed tracer so a hook that
    # reads a name the package dropped fails here
    from firstreturn import dense_builder, gallery, path, recover
    from firstreturn.space import CANTOR, cantor_point

    assert isinstance(path.DenseSequence._TRIE_DEPTH, int)
    tracer = _load_tracer()
    t = tracer.Tracer().install()
    try:
        x = cantor_point("1", "01")
        recover.recover_at(gallery.I25(cantor_point("", "110")), x, dense25, path.PATH,
                           24, cantor_basis)
        short = path.DenseSequence(dense25.points[:6])
        assert path.route_trace(x, short, 8).terminated == "budget"
        family = [dense_builder.ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")]
        dense_builder.build_dense(family, dense25.points[:8], cantor_basis, m_budget=6)
    finally:
        t.uninstall()
    hooked = {name for _, _, name, _, hook in tracer.TARGETS if hook}
    called = {name for name, _parent, calls, *_ in t.snapshot()["agg"] if calls}
    assert hooked <= called, hooked - called
    assert t.counters["path.first_index_extending.deep"] > 0
    assert t.counters["path.route_step.points_scanned"] >= len(short)
