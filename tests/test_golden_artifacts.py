"""Golden artifacts: digests over the artifacts of fixed sets of runs.

Each config runs in process through `cli.run_config`.  The digest covers
every job's exit code and, file by file in sorted order, the relative name
and the bytes of its artifacts; the run.meta sidecar (wall-clock metadata)
is excluded.  GOLDEN_FN adds the stderr line of each config error in
MISMATCH_ARGV, run through `cli.main`.  GOLDEN_TRACES covers traces that
no CLI config reaches: their CSVs, recovery audits and verdicts.  A change
that alters artifacts on purpose updates the constant and says why in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from firstreturn import cli
from firstreturn.dense_builder import ClosedSet
from firstreturn.gallery import (
    I25,
    ebc1_cover,
    first_one_scale,
    indicator_of,
    prop25_dense,
    thm13_dense,
    thm13_target,
    z_F_indicator,
)
from firstreturn.path import PATH, ROUTE, DenseSequence, PastTableIndex, trace_to_csv
from firstreturn.recover import recover_at
from firstreturn.space import (
    BAIRE,
    UnitPoint,
    baire_point,
    cantor_point,
    good_basis,
)

CONFIGS = [
    # criterion 10's suite
    {"command": "rank", "n": 2, "A": "1000", "B": "0011", "diff": "true"},
    {"command": "recover", "fn": "I25", "alpha": "cantor:|110",
     "horizon": 48, "max_points": 6},
    {"command": "build-dense", "family": "two-bits"},
    {"command": "ebc1", "cover": "cantor-bits", "pairs": 100, "seed": 5},
    {"command": "gallery", "action": "demo-z", "horizon": 200},
    {"command": "gallery", "action": "eval", "fn": "I16",
     "alpha": "cantor:|1", "beta": "cantor:1|0"},
    # route mode, Z, the mixed builder family, the unit covers, a Baire set
    {"command": "recover", "fn": "I25", "alpha": "cantor:|110", "mode": "route",
     "horizon": 40, "window": 6, "max_points": 8},
    {"command": "recover", "fn": "zF", "dense": "thm13", "mode": "route",
     "horizon": 100, "max_points": 8},
    {"command": "build-dense", "family": "mixed"},
    {"command": "ebc1", "cover": "unit-halves", "pairs": 200, "seed": 7},
    {"command": "ebc1", "cover": "unit-step", "pairs": 200, "seed": 7},
    {"command": "gallery", "action": "eval", "fn": "singleton:baire:3,1|2",
     "beta": "baire:5|0"},
]

# recorded at 5b7a1cb; equal under PYTHONHASHSEED 1, 2, 3 and 5
GOLDEN = "dc0a60502a9ac5ff7bbffe3df4b6ed9ab401f3b9fcf6aedc4cb2f565011e0314"


# the function sources of `cli._fn_from_config` that CONFIGS leaves out: the
# rational range, a Cantor cylinder and singleton, and the Z indicator
FN_CONFIGS = [
    {"command": "recover", "fn": "first-one-scale", "horizon": 32,
     "points": "cantor:|0;cantor:|01;cantor:0|001;cantor:1|0"},
    {"command": "recover", "fn": "indicator:01", "horizon": 32, "max_points": 6},
    {"command": "recover", "fn": "singleton:cantor:1|0", "horizon": 32, "max_points": 6},
    {"command": "gallery", "action": "eval", "fn": "zF", "beta": "z:[1/2,3/2];a=1;b=1/2"},
]

# a function and a point or dense sequence from different spaces
MISMATCH_ARGV = [
    ["recover", "--fn", "zF"],
    ["recover", "--fn", "I16", "--alpha", "cantor:|1", "--dense", "dyadic"],
    ["gallery", "eval", "--fn", "singleton:baire:3,1|2", "--beta", "cantor:1|0"],
]

# recorded at 4cea802; equal under PYTHONHASHSEED 1, 2 and 3
GOLDEN_FN = "f9a3a96428bb425844348f0648a5a814f5ee4b4c3d41b145ae5122add3e174bf"


def artifacts_digest(root, configs=CONFIGS):
    digest = hashlib.sha256()
    for i, cfg in enumerate(configs):
        out = root / f"job{i:02d}"
        code = cli.run_config(dict(cfg), out)
        digest.update(f"job{i:02d} exit={code}\n".encode())
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.meta"):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(out).as_posix()} {len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest()


def mismatch_digest(root, digest):
    for i, argv in enumerate(MISMATCH_ARGV):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main([*argv, "--out", str(root / f"err{i:02d}")])
        digest.update(f"err{i:02d} exit={code}\n{err.getvalue()}".encode())


def fn_digest(root):
    digest = hashlib.sha256(artifacts_digest(root, FN_CONFIGS).encode())
    mismatch_digest(root, digest)
    return digest.hexdigest()


def test_golden_artifacts(tmp_path):
    assert artifacts_digest(tmp_path) == GOLDEN


# criterion 10's jobs over Cantor words: recover I25, build-dense two-bits,
# ebc1 cantor-bits and gallery eval
WORD_JOBS = [CONFIGS[i] for i in (1, 2, 3, 5)]


def test_word_artifacts_do_not_depend_on_the_hash_seed(tmp_path):
    # Cantor words are bytes, and bytes hash differently under each
    # PYTHONHASHSEED; each seed writes the jobs in a fresh interpreter, and
    # every artifact but the run.meta sidecar must be byte-identical
    script = ("import json, sys\n"
              "from pathlib import Path\n"
              "from firstreturn import cli\n"
              "for i, cfg in enumerate(json.loads(sys.argv[2])):\n"
              "    print(cli.run_config(cfg, Path(sys.argv[1]) / f'job{i}'))\n")
    src = str(Path(cli.__file__).parents[1])
    runs = []
    for seed in ("1", "2"):
        out = tmp_path / f"seed{seed}"
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-c", script, str(out), json.dumps(WORD_JOBS)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        files = {p.relative_to(out).as_posix(): p.read_bytes()
                 for p in sorted(out.rglob("*")) if p.is_file() and p.name != "run.meta"}
        runs.append((proc.stdout, files))
    assert runs[0][0] == "0\n" * len(WORD_JOBS)
    assert len(runs[0][1]) > len(WORD_JOBS) and runs[0] == runs[1]
    # and this interpreter, under its own seed, replays them unchanged
    for i in range(len(WORD_JOBS)):
        rep = cli.replay(tmp_path / "seed1" / f"job{i}", tmp_path / f"replay{i}")
        assert rep["ok"] and rep["divergence"] is None, rep


def test_golden_function_sources(tmp_path):
    assert fn_digest(tmp_path) == GOLDEN_FN


# ---------------------------------------------------------------------------
# traces that no CLI config reaches
# ---------------------------------------------------------------------------


def _baire_list():
    # the path toward x runs through symbol 9 to x itself, as the route does;
    # both stop on the list's budget off the point (1, 9, 2, 1, 1, ...)
    x = baire_point((1, 9), (2,))
    return DenseSequence([baire_point((), (0,)), baire_point((1,), (0,)), x,
                          baire_point((1, 9, 2), (0,))])


@pytest.fixture(scope="module")
def trace_runs(dense25, seq25, dyadics, builder_dense, cantor_basis, unit_basis):
    """(name, f, dense, RecoveryResult) for path and route recoveries over the
    Prop-25 list and sequence, the dyadics, the Theorem-13 list over Z, a
    builder list and a short Baire list; each sequence has a point off it
    and a point on it, whose trace ends in fixed steps."""
    i25 = I25(cantor_point("", "110"))
    baire = _baire_list()
    z_dense = thm13_dense()
    cantor_points = [cantor_point("", "10"), cantor_point("1", "0011"),
                     cantor_point("11", "011"), cantor_point("0", "001")]
    cases = [
        ("dense25", i25, dense25, cantor_basis, cantor_points + [dense25[5]], 32),
        ("dense25-scale", first_one_scale(), dense25, cantor_basis,
         [cantor_point("0", "001"), cantor_point("", "0")], 24),
        ("seq25", i25, seq25, cantor_basis,
         [cantor_point("", "10"), cantor_point("0", "001"), seq25[7]], 32),
        ("dyadics", ebc1_cover("unit-step")[1][0], dyadics, unit_basis,
         [UnitPoint(F(1, 3)), UnitPoint(F(5, 7)), UnitPoint(F(2, 3)), UnitPoint(F(3, 4))], 24),
        ("builder", i25, builder_dense, cantor_basis,
         [cantor_point("101", "0110"), cantor_point("", "10"), builder_dense[20]], 32),
        ("baire", indicator_of(ClosedSet(BAIRE, cylinders=((1,),), name="N(1)")), baire,
         good_basis(BAIRE), [baire[2], baire_point((1, 9, 2), (1,)), baire[1]], 8),
    ]
    runs = []
    for name, f, dense, basis, points, N in cases:
        for mode in (PATH, ROUTE):
            for x in points:
                runs.append((name, f, dense, recover_at(f, x, dense, mode, N, basis, window=8)))
    for x in (thm13_target(), thm13_target(F(1, 50)), z_dense[10]):
        f = z_F_indicator()
        runs.append(("thm13", f, z_dense, recover_at(f, x, z_dense, ROUTE, 60)))
    return runs


def traces_digest(runs):
    digest = hashlib.sha256()
    for name, _, _, res in runs:
        tr = res.trace
        digest.update(f"{name} {tr.mode} {tr.x} {tr.terminated} {tr.budget} "
                      f"{json.dumps(res.audit)} {res.verdict} {res.expected} "
                      f"{res.correct}\n".encode())
        digest.update(trace_to_csv(tr).encode())
    return digest.hexdigest()


# recorded once the Baire basis listed the cylinders of every symbol (its
# "baire" runs no longer stop at symbol 9; the digest of the other runs is
# the one recorded at 61cfd86); equal under PYTHONHASHSEED 1, 2 and 3
GOLDEN_TRACES = "0ddb9fa8fca3dfdb8efdd08e5987b0d673dd4d53cf64e3239a0a921aed1727f7"


def test_golden_traces(trace_runs):
    assert traces_digest(trace_runs) == GOLDEN_TRACES


def test_trace_points_are_terms_of_their_sequence(trace_runs, seq25):
    # the oracle for recover_at's audit: every step's point is the term at
    # its index, the first occurrence of that point
    steps = [s for _, _, _, res in trace_runs for s in res.trace.steps]
    assert any(isinstance(s.index, PastTableIndex) for s in steps)
    assert any(s.dist_to_x.is_zero() and s.step > 0 for s in steps)  # fixed steps
    for name, _, dense, res in trace_runs:
        for s in res.trace.steps:
            if isinstance(s.index, PastTableIndex):
                assert dense is seq25 and seq25.first_index_of(s.point) == s.index
                continue
            assert dense[s.index] == s.point, (name, s.step)
            assert dense.first_index_of(s.point) == s.index, (name, s.step)
            assert dense.contains(s.point), (name, s.step)


def test_budget_stops_carry_their_source_budget(trace_runs):
    stops = [(name, dense, res.trace) for name, _, dense, res in trace_runs
             if res.trace.terminated == "budget"]
    assert {name for name, _, _ in stops} == {"dense25", "dense25-scale", "dyadics", "builder",
                                              "baire"}
    for name, dense, tr in stops:
        assert tr.budget == dense.budget, (name, tr.mode, str(tr.x))


def test_view_traces_equal_list_traces(trace_runs, dense25, cantor_basis):
    # the bounded view `prop25_dense()` in place of the materialized list
    view = prop25_dense()
    runs = [(f, res) for _, f, dense, res in trace_runs if dense is dense25]
    assert {res.trace.mode for _, res in runs} == {PATH, ROUTE}
    assert {res.trace.terminated for _, res in runs} == {"horizon", "budget"}
    for f, res in runs:
        tr = res.trace
        got = recover_at(f, tr.x, view, tr.mode, tr.horizon, cantor_basis, window=8)
        assert (trace_to_csv(got.trace), got.trace.terminated, got.trace.budget,
                got.audit, got.verdict) == (trace_to_csv(tr), tr.terminated, tr.budget,
                                            res.audit, res.verdict), (tr.mode, str(tr.x))
