"""Outside-in tracer for the firstreturn package.

The package itself carries no instrumentation.  `Tracer.install()` wraps
the public functions and methods of each module from the outside: every
module-level binding of a wrapped function is replaced (modules import
functions by name, so `recover.path_trace` and `cli.path_trace` are
separate bindings of `path.path_trace`), and methods are replaced on their
class.

Every wrapped call opens a frame on a stack.  On return the frame's
duration is added to its parent's child time, so a layer's self time is
its duration minus the time its wrapped callees took.  Calls are
aggregated per (name, parent name); calls of the coarse layers are also
kept as spans (id, name, start, end, parent id) in memory and written out
at the end.  Hot leaf calls (distances, comparisons, prefix scans) are
only aggregated, which keeps memory flat on long runs.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

_PKG = "firstreturn"

# Attribute paths inside the package.  (module, attribute path, layer
# name, keep spans, hook name).  Several methods may share a layer name.
TARGETS = [
    ("space", "dist", "space.dist", False, None),
    ("space", "WordPoint.first_difference", "space.first_difference", False, None),
    ("space", "ZPoint.first_difference", "space.first_difference", False, None),
    ("space", "Dist.__lt__", "space.dist_cmp", False, None),
    ("space", "Dist.__le__", "space.dist_cmp", False, None),
    ("space", "Dist.__gt__", "space.dist_cmp", False, None),
    ("space", "Dist.__ge__", "space.dist_cmp", False, None),
    ("path", "path_trace", "path.path_trace", True, "trace"),
    ("path", "route_trace", "path.route_trace", True, "trace"),
    ("path", "path_step", "path.path_step", False, "path_step"),
    ("path", "route_step", "path.route_step", False, "route_step"),
    ("path", "DenseSequence.first_index_extending",
     "path.first_index_extending", False, "first_index_extending"),
    ("path", "DenseSequence._build_word_index", "path.index_build", True, None),
    ("dense_builder", "build_dense", "dense_builder.build_dense", True, None),
    ("dense_builder", "a_f_of_g", "dense_builder.a_f_of_g", False, "a_f_of_g"),
    ("dense_builder", "ClosedSet.member", "dense_builder.closed_member", False, None),
    ("recover", "recover_at", "recover.recover_at", True, "recover_at"),
    ("recover", "classify_values", "recover.classify_values", False, None),
    ("recover", "recovery_report", "recover.recovery_report", True, None),
    ("gallery", "PsiTable.__init__", "gallery.psi_table", True, None),
    ("gallery", "primes", "gallery.primes", False, None),
    ("gallery", "prop25_dense", "gallery.prop25_dense", True, None),
    ("gallery", "thm13_dense", "gallery.thm13_dense", True, None),
    ("gallery", "I16", "gallery.oracle_build", True, None),
    ("gallery", "I25", "gallery.oracle_build", True, None),
    ("gallery", "indicator_of", "gallery.oracle_build", True, None),
    ("gallery", "first_one_scale", "gallery.oracle_build", True, None),
    ("gallery", "z_F_indicator", "gallery.oracle_build", True, None),
    ("rank", "rank_LAB", "rank.rank_LAB", True, None),
    ("ebc1", "ebc1_check", "ebc1.ebc1_check", True, None),
    ("cli", "run_config", "cli.run_config", True, None),
    ("cli", "replay", "cli.replay", True, None),
    ("cli", "dyadic_dense", "cli.dyadic_dense", True, None),
]


def nonfixed_steps(trace) -> int:
    """Extraction calls a finished trace needed: one per step that did not
    start from x itself, plus the call that hit the budget."""
    steps = trace.steps
    calls = sum(1 for s in steps[:-1] if s.point != trace.x)
    return calls + (trace.terminated == "budget")


def _hook_trace(c, args, kwargs, result, exc):
    if result is not None:
        c["path.budget_stops"] += result.terminated == "budget"


def _hook_path_step(c, args, kwargs, result, exc):
    prior = args[2] if len(args) > 2 else kwargs["prior"]
    c["path.path_step.prior_scanned"] += len(prior)


def _hook_route_step(c, args, kwargs, result, exc):
    if result is not None:
        c["path.route_step.points_scanned"] += result[0] + 1
        c["path.route_step.found"] += 1
    elif exc is not None and type(exc).__name__ == "SearchBudgetExceeded":
        dense = args[1] if len(args) > 1 else kwargs["dense"]
        c["path.route_step.points_scanned"] += len(dense)


def _hook_first_index_extending(c, args, kwargs, result, exc):
    seq, word = args[0], (args[1] if len(args) > 1 else kwargs["word"])
    c["path.first_index_extending.deep"] += len(word) > type(seq)._TRIE_DEPTH


def _hook_recover_at(c, args, kwargs, result, exc):
    if result is not None:
        c["recover.oracle_calls"] += sum(result.audit.values())


def _hook_a_f_of_g(c, args, kwargs, result, exc):
    if result is not None:
        c["dense_builder.picks"] += len(result[0])


HOOKS = {
    "trace": _hook_trace,
    "path_step": _hook_path_step,
    "route_step": _hook_route_step,
    "first_index_extending": _hook_first_index_extending,
    "recover_at": _hook_recover_at,
    "a_f_of_g": _hook_a_f_of_g,
}


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start, child seconds, span id]
        self.agg = defaultdict(lambda: [0, 0.0, 0.0])  # (name, parent) -> calls, total, self
        self.counters = defaultdict(int)
        self.spans = []  # (id, name, start, end, parent id)
        self._paused = 0
        self._next_id = 1
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, keep, hook):
        stack, agg, spans, counters = self.stack, self.agg, self.spans, self.counters
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            if keep:
                sid = tracer._next_id
                tracer._next_id += 1
            else:  # spans of hot calls are not kept: inherit the parent's id
                sid = parent[3] if parent else 0
            frame = [name, 0.0, 0.0, sid]
            stack.append(frame)
            result = exc = None
            frame[1] = start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry = agg[(name, parent[0] if parent else "")]
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[2]
                if parent:
                    parent[2] += duration
                if keep:
                    spans.append((sid, name, start, end, parent[3] if parent else 0))
                if hook:
                    hook(counters, args, kwargs, result, exc)

        return wrapper

    @contextmanager
    def paused(self):
        """Calls made by the benchmark itself (checks, input generation)."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- installation ------------------------------------------------------

    def install(self):
        import importlib

        modules = [importlib.import_module(f"{_PKG}.{m}") for m in
                   ("space", "path", "dense_builder", "recover", "gallery",
                    "rank", "ebc1", "cli")]
        modules.append(importlib.import_module(_PKG))
        for mod_name, attr_path, name, keep, hook in TARGETS:
            mod = sys.modules[f"{_PKG}.{mod_name}"]
            owner_name, _, attr = attr_path.rpartition(".")
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[attr]
                wrapped = self._wrap(name, original, keep, HOOKS.get(hook))
                setattr(owner, attr, wrapped)
                self._undo.append((owner, attr, original))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(name, original, keep, HOOKS.get(hook))
            for m in modules:  # every binding of the function, by identity
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- output --------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "agg": [[n, p, *v] for (n, p), v in sorted(self.agg.items())],
            "counters": dict(self.counters),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for sid, name, start, end, parent in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from one or more snapshots
# ---------------------------------------------------------------------------

# (metric, unit, how): "calls:X", "self:X" or "total:X" of layer X,
# "counter:C", or None for the values layer_values computes itself.
LAYER_METRICS = [
    ("gallery.psi_table_s", "s", "total:gallery.psi_table"),
    ("gallery.primes.calls", "count", "calls:gallery.primes"),
    ("gallery.prop25_dense_s", "s", "self:gallery.prop25_dense"),
    ("gallery.oracle_build_s", "s", "total:gallery.oracle_build"),
    ("gallery.thm13_dense_s", "s", "total:gallery.thm13_dense"),
    ("path.index_build_s", "s", "total:path.index_build"),
    ("path.path_step.calls", "count", "calls:path.path_step"),
    ("path.path_step.self_s", "s", "self:path.path_step"),
    ("path.path_step.prior_scanned", "count", "counter:path.path_step.prior_scanned"),
    ("space.first_difference.calls", "count", "calls:space.first_difference"),
    ("space.first_difference.self_s", "s", "self:space.first_difference"),
    ("path.first_index_extending.calls", "count", "calls:path.first_index_extending"),
    ("path.first_index_extending.self_s", "s", "self:path.first_index_extending"),
    ("path.first_index_extending.deep_share", "ratio", None),
    ("path.route_step.calls", "count", "calls:path.route_step"),
    ("path.route_step.self_s", "s", "self:path.route_step"),
    ("path.route_step.points_scanned", "count", "counter:path.route_step.points_scanned"),
    ("path.route_step.yield", "ratio", None),
    ("space.dist.calls", "count", "calls:space.dist"),
    ("space.dist.self_s", "s", "self:space.dist"),
    ("space.dist_cmp.calls", "count", "calls:space.dist_cmp"),
    ("path.budget_stops", "count", "counter:path.budget_stops"),
    ("recover.recover_at.self_s", "s", "self:recover.recover_at"),
    ("recover.classify_values.self_s", "s", "self:recover.classify_values"),
    ("recover.oracle_calls", "count", "counter:recover.oracle_calls"),
    ("dense_builder.build_dense.self_s", "s", "self:dense_builder.build_dense"),
    ("dense_builder.a_f_of_g.calls", "count", "calls:dense_builder.a_f_of_g"),
    ("dense_builder.a_f_of_g.self_s", "s", "self:dense_builder.a_f_of_g"),
    ("dense_builder.picks", "count", "counter:dense_builder.picks"),
    ("dense_builder.closed_member.calls", "count", "calls:dense_builder.closed_member"),
    ("cli.run_config.self_s", "s", "self:cli.run_config"),
    ("cli.trace_recompute_s", "s", None),
    ("cli.artifact_bytes", "bytes", None),
    ("cli.replay.self_s", "s", "self:cli.replay"),
    ("rank.rank_LAB.self_s", "s", "self:rank.rank_LAB"),
    ("ebc1.ebc1_check.self_s", "s", "self:ebc1.ebc1_check"),
]


def merge(snapshots) -> dict:
    """Sum several snapshots (e.g. one per CLI invocation)."""
    agg = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(int)
    for snap in snapshots:
        for name, parent, calls, total, self_s in snap["agg"]:
            entry = agg[(name, parent)]
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for key, value in snap["counters"].items():
            counters[key] += value
    return {"agg": [[n, p, *v] for (n, p), v in sorted(agg.items())],
            "counters": dict(counters)}


def layer_values(snap: dict, artifact_bytes: int = 0) -> dict:
    """Per-layer metric values (name -> number) from one snapshot."""
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    recompute = 0.0
    for name, parent, n, tot, slf in snap["agg"]:
        calls[name] += n
        total[name] += tot
        self_s[name] += slf
        if name in ("path.path_trace", "path.route_trace") and parent == "cli.run_config":
            recompute += tot
    counters = snap["counters"]
    table = {"calls": calls, "total": total, "self": self_s, "counter": counters}
    out = {}
    for metric, _unit, how in LAYER_METRICS:
        if how is None:
            continue
        kind, _, key = how.partition(":")
        out[metric] = table[kind].get(key, 0)
    fie = calls["path.first_index_extending"]
    out["path.first_index_extending.deep_share"] = (
        counters.get("path.first_index_extending.deep", 0) / fie if fie else 0.0)
    scanned = counters.get("path.route_step.points_scanned", 0)
    out["path.route_step.yield"] = (
        counters.get("path.route_step.found", 0) / scanned if scanned else 0.0)
    out["cli.trace_recompute_s"] = recompute
    out["cli.artifact_bytes"] = artifact_bytes
    return out
