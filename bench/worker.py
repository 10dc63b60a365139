"""One repetition of an in-process workload, in a fresh interpreter.

    python3 bench/worker.py --workload NAME --seed N [--verify] [--trace-out FILE]

Times the workload's set-up and each op of one pass, summarizes every
op (with --verify, including the exact trace checks) and prints one JSON
line.  Set-up and op times are CPU time of this process
(time.process_time): on a shared machine the wall clock also counts the
time other tenants held the CPU, which is not the program's cost.  The
workload's input generation runs inside its `quiet` blocks and is
excluded from set-up time, as the checks are from op time.  The
calibration kernel runs before and after set-up and about every
calibrate.SEGMENT_S of ops, and every time is reported in reference
units (see calibrate.py).  With --trace-out the outside-in tracer is
installed before set-up, and its spans are written to FILE at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import firstreturn.cli  # noqa: E402,F401  (imports every module of the package)

import calibrate  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.IN_PROCESS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--verify", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    tracer = tracing.Tracer().install() if args.trace_out else None
    pause = tracer.paused if tracer else contextlib.nullcontext
    cpu = time.process_time
    hidden = [0.0]  # CPU time inside quiet(): input generation and checks

    @contextlib.contextmanager
    def quiet():
        t = cpu()
        try:
            with pause():
                yield
        finally:
            hidden[0] += cpu() - t

    t0 = cpu()
    setup_marks = [(0, calibrate.sample())]
    own_s = cpu() - t0  # CPU time of the benchmark's own work: calibration, checks
    t0 = cpu()
    ops = workloads.IN_PROCESS[args.workload](args.seed, quiet)
    setup_s = cpu() - t0 - hidden[0]
    own_s += hidden[0]
    t0 = cpu()
    marks = [(0, calibrate.sample())]
    setup_marks.append((1, marks[0][1]))
    own_s += cpu() - t0
    segment = 0.0

    latencies, failures, failed_ops = [], [], []
    missed = traces = budget_stops = steps = path_calls = 0
    digest = hashlib.sha256()
    for i, op in enumerate(ops):
        start = cpu()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            result, error = None, f"{op.label}: {type(exc).__name__}: {exc}"
        latencies.append((cpu() - start) * 1e3)
        segment += latencies[-1] / 1e3
        checked = cpu()
        with quiet():
            outcome = (workloads.Outcome([], f"{op.label} raised\n", error)
                       if error else op.check(result, args.verify))
            for tr in outcome.traces:
                traces += 1
                budget_stops += tr.terminated == "budget"
                steps += len(tr.steps)
                if tr.mode == "path":
                    path_calls += tracing.nonfixed_steps(tr)
        if outcome.failure:
            failures.append(outcome.failure)
            failed_ops.append(i)
        missed += outcome.missed and not outcome.failure
        digest.update(outcome.text.encode())
        if segment >= calibrate.SEGMENT_S or i == len(ops) - 1:
            marks.append((i + 1, calibrate.sample()))
            segment = 0.0
        own_s += cpu() - checked

    out = {
        "setup_s": calibrate.scaled([setup_s], setup_marks)[0],
        "scale": calibrate.span_factor(setup_marks + marks),
        "own_s": own_s,
        "measured_s": setup_s + sum(latencies) / 1e3,  # before scaling
        "lat_ms": calibrate.scaled(latencies, marks),
        "failed_ops": failed_ops,
        "failures": failures,
        "inconsistent": [],
        "missed": missed,
        "traces": traces,
        "budget_stops": budget_stops,
        "steps": steps,
        "digest": digest.hexdigest(),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        tracer.uninstall()
        snap = tracer.snapshot()
        out["layers"] = tracing.layer_values(snap)
        calls = out["layers"]["path.path_step.calls"]
        if calls != path_calls:
            out["inconsistent"].append(f"tracer saw {calls} path_step calls; the traces "
                            f"extracted {path_calls} steps")
        tracer.write_spans(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
