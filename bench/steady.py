"""Steadiness check: repeat bench/run.py over seeds and compare sets of runs.

    python3 bench/steady.py [--workload NAME ...] [--out FILE]

For each workload, runs `bench/run.py` once per seed 1-10 for
BENCHMARK.json's run_seconds, twice over the same seeds.  For every
metric it reports each set's median, first and third quartile
(statistics.quantiles, n=4), the spread (q3 - q1) / median, and whether
the spread stays within the metric's bound from BENCHMARK.json and
whether the second set's median is no worse than the first set's by more
than the bound.  Every run's
commit, Python version, nproc and seed are kept beside its result.  The
report is printed and, with --out, written as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
SETS = 2


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    meta = dict(tok.split("=", 1) for tok in lines[0][2:].split())
    result = json.loads(lines[-1])
    return {"meta": meta, "info": lines[1][2:], "result": result}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def worse_by(new, old, better):
    """Relative amount by which `new` is worse than `old` (<= 0: not worse)."""
    return (new - old) / old if better == "lower" else (old - new) / old


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = spec["end_to_end"]
    report = {"workloads": {}, "ok": True}
    for workload in args.workload or names:
        sets = [[run_once(workload, seed, spec["run_seconds"]) for seed in SEEDS]
                for _ in range(SETS)]
        rows = {}
        for m in metrics:
            per_set = [spread([r["result"]["metrics"][m["name"]]["value"] for r in runs])
                       for runs in sets]
            bound = m["bound"]
            row = {"unit": m["unit"], "sets": per_set, "bound": bound,
                   "spread_ok": all(s["spread"] <= bound for s in per_set),
                   "sets_agree": all(
                       worse_by(s["median"], per_set[0]["median"], m["better"]) <= bound
                       for s in per_set[1:])}
            report["ok"] &= row["spread_ok"] and row["sets_agree"]
            rows[m["name"]] = row
        correct = all(r["result"]["correct"] for runs in sets for r in runs)
        report["ok"] &= correct
        report["workloads"][workload] = {
            "metrics": rows, "all_correct": correct,
            "runs": [{"seed": r["meta"]["seed"], "commit": r["meta"]["commit"],
                      "python": r["meta"]["python"], "nproc": r["meta"]["nproc"],
                      "info": r["info"], "result": r["result"]}
                     for runs in sets for r in runs],
        }
        print(f"== {workload} ({len(SEEDS)} seeds x {SETS} sets; all correct: {correct})")
        for name, row in rows.items():
            cells = "  ".join(f"med={s['median']:.5g} iqr/med={s['spread']:.3f}"
                              for s in row["sets"])
            print(f"  {name:<16} {row['unit']:<6} {cells}  bound={row['bound']} "
                  f"spread_ok={row['spread_ok']} sets_agree={row['sets_agree']}")
        sys.stdout.flush()
    print(f"steady: {'ok' if report['ok'] else 'NOT ok'}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
