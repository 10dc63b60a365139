"""Golden artifacts: digests over the artifacts of fixed sets of runs.

Each config runs in process through `cli.run_config`.  The digest covers
every job's exit code and, file by file in sorted order, the relative name
and the bytes of its artifacts; the run.meta sidecar (wall-clock metadata)
is excluded.  GOLDEN_FN adds the stderr line of each config error in
MISMATCH_ARGV, run through `cli.main`.  A change that alters artifacts on
purpose updates the constant and says why in CHANGES.md.
"""

import contextlib
import hashlib
import io

from firstreturn import cli

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


def test_golden_function_sources(tmp_path):
    assert fn_digest(tmp_path) == GOLDEN_FN
