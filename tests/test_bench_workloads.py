"""The benchmark's in-process workloads call the package by name and
signature; each must still set up and run its first op correctly, or only
a benchmark run would notice.  prop25-recover's ops must also answer over
the Prop-25 view as over the materialized list."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

from firstreturn import gallery
from firstreturn.path import DenseSequence

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.IN_PROCESS))
def test_first_op_of_each_workload_runs_and_checks(name):
    ops = workloads.IN_PROCESS[name](1, contextlib.nullcontext)
    outcome = ops[0].check(ops[0].run(), True)
    assert ops and outcome.failure is None and outcome.text


def test_prop25_ops_over_the_view_match_the_materialized_list(monkeypatch):
    # prop25-recover's set-up reads the bounded view; its ops must answer as
    # they do over the list of the same 5,864 terms
    def outcomes():
        ops = workloads.setup_prop25(1, contextlib.nullcontext)[:400]
        return [op.check(op.run(), True) for op in ops]

    over_view = outcomes()
    assert any(o.traces[0].terminated == "budget" for o in over_view)
    size = 2 * gallery.default_table().size
    materialized = DenseSequence([gallery.x_seq_point(p) for p in range(size)])
    monkeypatch.setattr(gallery, "prop25_dense", lambda: materialized)
    assert [(o.text, o.failure) for o in outcomes()] == [(o.text, o.failure) for o in over_view]
