"""firstreturn benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is imported from
src/).  Every repetition runs in a fresh interpreter, so module caches are
paid inside set-up as a user pays them.  Repetitions run one at a time,
on one thread, until S seconds have passed.  The output ends with one JSON
line: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics, measured without tracing; with
--trace 1 they are the per-layer metrics of traced repetitions, plus the
tracing overhead against untraced repetitions of the same run.  Lines
before it, starting with "#", record the commit, Python version, nproc,
seed, results digest and the rates behind the metrics.

All times are CPU time (the worker's own, or a CLI child's from
getrusage): on a shared machine the wall clock also counts the time other
tenants held the CPU.  Every time is scaled to reference seconds by
calibration samples taken around it (see calibrate.py).  The raw wall
time of a repetition is printed on a "#" line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"

IN_PROCESS = ("prop25-recover", "ladder-path", "exact-scan")
WORKLOADS = IN_PROCESS + ("cli-suite",)
MIN_REPS = 3          # in-process repetitions per untraced run (set-up median)
CLI_SETUP_REPS = 9    # no-op CLI invocations per cli-suite run
CLI_MIN_PASSES = 2    # untraced passes per cli-suite run (p90 pool)

END_TO_END = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("steps_per_s", "1/s"),
    ("op_ok_rate", "ratio"),
    ("horizon_rate", "ratio"),
    ("peak_rss_mb", "MB"),
]


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read directly; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def run_child(argv, tmpdir=None):
    """Run `python3 ARGV...` on the checkout's sources, one child at a time.

    Returns (process, wall seconds, CPU seconds of the child)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    if tmpdir:
        env["TMPDIR"] = str(tmpdir)
    start, cpu = time.perf_counter(), _children_cpu()
    proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=170)
    return proc, time.perf_counter() - start, _children_cpu() - cpu


def repeat(one_rep, seconds, traced, min_reps):
    """Repetitions until `seconds` have passed: untraced ones only, or
    untraced and traced ones alternating.  No repetition starts that the
    previous one says would end past the deadline, once enough have run."""
    reps = {False: [], True: []}
    start = time.perf_counter()
    last = 0.0
    while True:
        n_plain, n_traced = len(reps[False]), len(reps[True])
        late = time.perf_counter() - start + last > seconds
        if late and n_plain >= min_reps and (n_traced or not traced):
            return reps[False], reps[True]
        use_tracer = traced and n_traced < n_plain
        t0 = time.perf_counter()
        reps[use_tracer].append(one_rep(use_tracer, n_plain + n_traced))
        last = time.perf_counter() - t0


# ---------------------------------------------------------------------------
# In-process workloads: repetitions of bench/worker.py
# ---------------------------------------------------------------------------


def in_process_rep(workload, seed):
    span_dir = OUT / "spans"

    def one_rep(use_tracer, index):
        argv = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(seed)]
        if index == 0:
            argv.append("--verify")
        if use_tracer:
            span_dir.mkdir(parents=True, exist_ok=True)
            argv += ["--trace-out", str(span_dir / f"{workload}-seed{seed}-rep{index}.jsonl")]
        proc, wall, cpu = run_child(argv)
        if proc.returncode != 0:
            die(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        rep = json.loads(proc.stdout.strip().splitlines()[-1])
        rep["wall_s"] = wall
        # Set-up and ops are scaled by the calibration samples around them,
        # the rest (interpreter start, import) by the repetition's median;
        # calibration and checks are left out.
        rest = cpu - rep["own_s"] - rep["measured_s"]
        rep["run_s"] = rest * rep["scale"] + rep["setup_s"] + sum(rep["lat_ms"]) / 1e3
        return rep

    return one_rep


# ---------------------------------------------------------------------------
# cli-suite: a closed loop of CLI invocations, one subprocess at a time
# ---------------------------------------------------------------------------


def _artifacts(directory: Path):
    return sorted((p.relative_to(directory).as_posix(), p.read_bytes())
                  for p in directory.rglob("*") if p.is_file() and p.name != "run.meta")


def _expected_path_steps(job_dir: Path) -> int:
    """path_step calls one recover invocation makes, from its own artifacts:
    each point's trace is extracted twice (report and CSV), and each
    extraction calls path_step once per step not starting at x, plus once
    for a budget stop."""
    summary = json.loads((job_dir / "summary.json").read_text())
    if summary["report"]["mode"] != "path":
        return 0
    total = 0
    for i, entry in enumerate(summary["report"]["per_point"]):
        rows = (job_dir / "traces" / f"point{i:03d}.csv").read_text().splitlines()[1:]
        points = [row.split(",")[2] for row in rows]
        total += sum(p != entry["x"] for p in points[:-1])
        total += entry["terminated"] == "budget"
    return 2 * total


def cli_pass(jobs, work: Path, traced: bool) -> dict:
    """One pass over the jobs, each followed by a replay of its artifacts."""
    rep = {"lat_ms": [], "failed_ops": [], "failures": [], "inconsistent": [],
           "missed": 0, "traces": 0, "budget_stops": 0, "steps": 0}
    snapshots, digest = [], hashlib.sha256()
    artifact_bytes = expected_path_steps = 0
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    marks, own_s = [], 0.0

    def calibration_mark():
        nonlocal own_s
        t0 = time.perf_counter()
        marks.append((len(rep["lat_ms"]), calibrate.sample()))
        own_s += time.perf_counter() - t0

    def invoke(args, tag):
        calibration_mark()
        if traced:
            snap = work / f"{tag}.trace.json"
            proc, _, cpu = run_child([str(BENCH / "cli_child.py"), str(snap), *args], tmp)
            if snap.exists():
                snapshots.append(json.loads(snap.read_text()))
        else:
            proc, _, cpu = run_child(["-m", "firstreturn.cli", *args], tmp)
        rep["lat_ms"].append(cpu * 1e3)
        return proc

    def fail(message):
        rep["failed_ops"].append(len(rep["lat_ms"]) - 1)
        rep["failures"].append(message)

    start = time.perf_counter()
    for i, args in enumerate(jobs):
        job_dir = work / f"job{i:02d}"
        proc = invoke([*args, "--out", str(job_dir)], f"job{i:02d}")
        label = " ".join(args[:2])
        summary_path = job_dir / "summary.json"
        if proc.returncode not in (0, 1) or not summary_path.exists():
            fail(f"{label}: exit {proc.returncode}: {proc.stderr[-300:]}")
        else:
            summary = json.loads(summary_path.read_text())
            per_point = summary.get("report", {}).get("per_point", [])
            wrong = [e["x"] for e in per_point if e["correct"] is False]
            if proc.returncode != (0 if summary["ok"] else 1):
                fail(f"{label}: exit {proc.returncode} but summary ok={summary['ok']}")
            elif wrong:
                fail(f"{label}: wrong verdict at {', '.join(wrong[:3])}")
            elif proc.returncode == 1 and args[0] != "recover":
                fail(f"{label}: exit 1, summary {json.dumps(summary)[:300]}")
            elif proc.returncode == 1:  # only undecided verdicts are left
                rep["missed"] += 1
            for entry in per_point:
                rep["traces"] += 2  # the invocation and its replay
                rep["steps"] += 2 * entry["steps"]
                rep["budget_stops"] += 2 * (entry["terminated"] == "budget")
            if args[0] == "recover":
                expected_path_steps += 2 * _expected_path_steps(job_dir)
        files = _artifacts(job_dir) if job_dir.exists() else []
        artifact_bytes += sum(len(data) for _, data in files)
        digest.update(f"{args} -> {proc.returncode}\n".encode())
        for name, data in files:
            digest.update(name.encode() + b"\0" + data)

        proc = invoke(["replay", str(job_dir)], f"replay{i:02d}")
        try:
            report = json.loads(proc.stdout)
        except ValueError:
            report = {}
        if proc.returncode != 0 or not report.get("ok"):
            fail(f"replay of {label}: exit {proc.returncode}, {report}")
        digest.update(f"replay -> {proc.returncode} {report.get('files_compared')}\n".encode())
    calibration_mark()
    rep["lat_ms"] = calibrate.scaled(rep["lat_ms"], marks)
    rep["scale"] = calibrate.span_factor(marks)
    rep["wall_s"] = time.perf_counter() - start - own_s
    rep["run_s"] = sum(rep["lat_ms"]) / 1e3
    rep["digest"] = digest.hexdigest()
    if traced:
        import tracer as tracing

        rep["layers"] = tracing.layer_values(tracing.merge(snapshots), artifact_bytes)
        calls = rep["layers"]["path.path_step.calls"]
        if calls != expected_path_steps:
            rep["inconsistent"].append(f"tracer saw {calls} path_step calls; the "
                                       f"artifacts show {expected_path_steps}")
    shutil.rmtree(work, ignore_errors=True)
    return rep


def run_cli_suite(seed, seconds, traced):
    """Returns (untraced passes, traced passes, set-up seconds, peak RSS)."""
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    jobs = workloads.cli_jobs(seed)
    work = OUT / f"cli-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        setup_cpu, marks = [], []
        for k in range(CLI_SETUP_REPS):
            marks.append((k, calibrate.sample()))
            proc, _, cpu = run_child(["-m", "firstreturn.cli", "gallery", "list",
                                      "--out", str(work / f"setup{k}")])
            if proc.returncode != 0:
                die(f"no-op invocation failed: {proc.stderr[-2000:]}")
            setup_cpu.append(cpu)
        marks.append((CLI_SETUP_REPS, calibrate.sample()))
        setup_s = statistics.median(calibrate.scaled(setup_cpu, marks))
        plain, traced_passes = repeat(
            lambda use_tracer, index: cli_pass(jobs, work / f"pass{index}", use_tracer),
            seconds, traced, min_reps=1 if traced else CLI_MIN_PASSES)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    peak_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    return plain, traced_passes, setup_s, peak_rss


# ---------------------------------------------------------------------------
# Summary
# ---------------------------------------------------------------------------


def summarize(plain, traced_reps, setup_s=None, peak_rss_mb=None):
    """Metrics of untraced repetitions; per-layer values of traced ones."""
    everything = plain + traced_reps
    first = plain[0]
    ops = len(first["lat_ms"])
    attempted = ops * len(everything)
    failed = sum(len(r["failed_ops"]) for r in everything)
    problems = [f for r in everything for f in r["failures"][:3] + r["inconsistent"]]
    digests = {r["digest"] for r in everything}
    if len(digests) != 1:
        problems.append(f"results digest differs between repetitions: {sorted(digests)}")
    latencies = []
    for r in plain:
        bad = set(r["failed_ops"])
        latencies += [math.inf if i in bad else v for i, v in enumerate(r["lat_ms"])]
    op_time = sum(sum(r["lat_ms"]) for r in plain) / 1e3
    if setup_s is None:
        setup_s = statistics.median(r["setup_s"] for r in plain)
    if peak_rss_mb is None:
        peak_rss_mb = statistics.median(r["rss_mb"] for r in plain)
    metrics = {
        "setup_s": setup_s,
        "run_s": statistics.median(r["run_s"] for r in plain),
        "op_p50_ms": nearest_rank(latencies, 0.5),
        "op_p90_ms": nearest_rank(latencies, 0.9),
        "steps_per_s": sum(r["steps"] for r in plain) / op_time,
        "op_ok_rate": 1 - (first["missed"] + len(first["failed_ops"])) / ops,
        "horizon_rate": 1 - first["budget_stops"] / first["traces"],
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "reps": len(plain), "traced_reps": len(traced_reps), "ops_per_rep": ops,
        "scale": statistics.median(r["scale"] for r in everything),
        "wall_s_raw": statistics.median(r["wall_s"] for r in plain),
        "digest": first["digest"], "op_fail_rate": failed / attempted,
        "op_miss_rate": first["missed"] / ops,
        "budget_stop_rate": first["budget_stops"] / first["traces"],
    }
    layers = None
    if traced_reps:
        layers = {key: statistics.median(r["layers"][key] for r in traced_reps)
                  for key in traced_reps[0]["layers"]}
        layers["tracing_overhead_s"] = (statistics.median(r["run_s"] for r in traced_reps)
                                        - metrics["run_s"])
    return attempted, failed, problems, metrics, layers, info


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "firstreturn" / "__init__.py").is_file():
        die(f"no firstreturn sources under {ROOT / 'src'}; run from a source checkout")
    # One CPU for this process and every child it starts: the calibration
    # samples then run on the CPU the measured work runs on.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError) as exc:  # not Linux, or not permitted
        print(f"bench: running unpinned: {exc}", file=sys.stderr)

    traced = bool(args.trace)
    if args.workload == "cli-suite":
        plain, traced_reps, setup_s, peak = run_cli_suite(args.seed, args.seconds, traced)
        result = summarize(plain, traced_reps, setup_s, peak)
    else:
        one_rep = in_process_rep(args.workload, args.seed)
        result = summarize(*repeat(one_rep, args.seconds, traced,
                                   min_reps=1 if traced else MIN_REPS))
    attempted, failed, problems, metrics, layers, info = result

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"commit={commit_id()} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    for problem in problems[:20]:
        print(f"# problem: {problem}")
    for name, unit in END_TO_END:
        print(f"# {name} = {metrics[name]:.6g} {unit}")
    if traced:
        import tracer as tracing

        units = {m: u for m, u, _ in tracing.LAYER_METRICS}
        units["tracing_overhead_s"] = "s"
        reported = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
    else:
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
