"""The benchmark's in-process workloads call the package by name and
signature; each must still set up and run its first op correctly, or only
a benchmark run would notice."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import pytest

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
