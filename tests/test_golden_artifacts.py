"""Golden artifacts: one digest over the artifacts of a fixed set of runs.

Each config runs in process through `cli.run_config`.  The digest covers
every job's exit code and, file by file in sorted order, the relative name
and the bytes of its artifacts; the run.meta sidecar (wall-clock metadata)
is excluded.  A change that alters artifacts on purpose updates GOLDEN and
says why in CHANGES.md.
"""

import hashlib

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


def artifacts_digest(root):
    digest = hashlib.sha256()
    for i, cfg in enumerate(CONFIGS):
        out = root / f"job{i:02d}"
        code = cli.run_config(dict(cfg), out)
        digest.update(f"job{i:02d} exit={code}\n".encode())
        for path in sorted(p for p in out.rglob("*") if p.is_file() and p.name != "run.meta"):
            data = path.read_bytes()
            digest.update(f"{path.relative_to(out).as_posix()} {len(data)}\n".encode())
            digest.update(data)
    return digest.hexdigest()


def test_golden_artifacts(tmp_path):
    assert artifacts_digest(tmp_path) == GOLDEN
