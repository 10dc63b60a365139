"""Recovery engine: evaluate a function along extracted subsequences and
diagnose convergence, plus the G-delta witness construction.

A function oracle carries its space and the kind of its range, and the
kind decides one thing: the metric on values (`y_distance`), 0/1 on a
discrete range and |v - w| on a rational one.  A run "converged" when the
values of its tail window lie within TOL of each other, and is correct
within TOL of the truth; the Lemma-5 sets O_k are 2^-k neighbourhoods.
Everything short of convergence is reported as not converged or, with
enough tail flips, as divergence evidence.  The oracle is queried only on
points of the dense sequence, with one separate ground-truth query at the
probe point; each result's audit follows from its trace (see `recover_at`).
Recovery reads the values alone: an oracle's declared decomposition into
closed pieces is built on its first read, which no recovery makes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Callable, Dict, List, Optional, Sequence

from . import Record
from .path import PATH, ROUTE, DenseSequence, PathTrace, path_trace, route_trace
from .space import GoodBasis, PointCode

DISCRETE = "discrete"
RATIONAL = "rational"

# values closer than TOL count as equal in a tail and against the truth
TOL_EXP = 10
TOL = Fraction(1, 2 ** TOL_EXP)


def y_distance(y_kind: str, v1, v2):
    """The metric on a range: 0 or 1 on a discrete one, |v1 - v2| on a
    rational one."""
    if y_kind == DISCRETE:
        return 0 if v1 == v2 else 1
    return abs(v1 - v2)


class FunctionOracle(Record):
    """Total deterministic evaluator with a declared range kind, defined on
    the points of `space`.

    decompose, when given, is a builder taking no arguments.  It returns the
    decomposition: a dict mapping each range value to the closed pieces of
    its preimage.  Recovery never reads it; the EBC1 cover
    `ebc1.cover_from_function` does, and refuses a function without one.
    So the builder runs on the first read of `decomposition`, and its dict
    is kept for every later read.
    """

    _fields = ("fid", "evaluator", "y_kind", "decomposition", "space")
    __hash__ = None
    # the built decomposition: an instance attribute over a class default,
    # not a field, set on the first read of `decomposition`
    _decomposition = None

    def __init__(self, fid: str, evaluator: Callable[[PointCode], object],
                 y_kind: str = DISCRETE, decompose: Optional[Callable[[], dict]] = None, *,
                 space: str):
        self.fid = fid
        self.evaluator = evaluator
        self.y_kind = y_kind
        self._decompose = decompose
        self.space = space

    @property
    def decomposition(self) -> Optional[dict]:
        """The declared decomposition, built on first read; None without a
        builder."""
        if self._decomposition is None and self._decompose is not None:
            self._decomposition = self._decompose()
        return self._decomposition

    def __call__(self, p: PointCode):
        return self.evaluator(p)


class Verdict(Record):
    _fields = ("kind", "value", "since", "flips")
    __hash__ = None

    def __init__(self, kind: str, value: object = None, since: Optional[int] = None,
                 flips: int = 0):
        self.kind = kind  # "converged" | "not-converged-at-horizon" | "diverged-evidence"
        self.value = value
        self.since = since
        self.flips = flips

    def __str__(self):
        if self.kind == "converged":
            return f"converged({self.value}, since={self.since})"
        if self.kind == "diverged-evidence":
            return f"diverged-evidence({self.flips} flips)"
        return self.kind


class RecoveryResult(Record):
    _fields = ("verdict", "expected", "correct", "trace", "audit")
    __hash__ = None

    def __init__(self, verdict: Verdict, expected: object, correct: Optional[bool],
                 trace: PathTrace, audit: dict):
        self.verdict = verdict
        self.expected = expected
        self.correct = correct
        self.trace = trace
        self.audit = audit


def _tail_run_length(values: Sequence) -> int:
    n = 1
    while n < len(values) and values[-n - 1] == values[-n]:
        n += 1
    return n


def _flips_in(values: Sequence) -> int:
    return sum(1 for i in range(len(values) - 1) if values[i + 1] != values[i])


def classify_values(values: Sequence, y_kind: str, window: int = 16) -> Verdict:
    """Finite-horizon verdict over a value trace.

    Converged: the last `window` values lie within TOL of each other (on a
    discrete range, are equal), `since` the start of the final run.  Two or
    more tail flips count as divergence evidence; anything else is simply
    not converged at this horizon.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    tail = values[-window:]
    if len(values) >= window and y_distance(y_kind, max(tail), min(tail)) < TOL:
        return Verdict("converged", values[-1], since=len(values) - _tail_run_length(values))
    flips = _flips_in(tail)
    if flips >= 2:
        return Verdict("diverged-evidence", flips=flips)
    return Verdict("not-converged-at-horizon")


def recover_at(f: FunctionOracle, x: PointCode, dense: DenseSequence, mode: str,
               N: int, basis: Optional[GoodBasis] = None,
               window: int = 16) -> RecoveryResult:
    """Evaluate f along the extracted subsequence for x and classify the tail.

    f is queried on the trace's points plus one ground-truth query at x.
    `PathTrace.values_under` calls f once per run of steps holding one
    point, so a trace that settles on x costs one call for its whole fixed
    tail.  The audit follows from the trace, whose points are all terms of
    the sequence: it counts the values the verdict reads, one per trace
    position, not the calls of f.
    """
    if mode == PATH:
        trace = path_trace(x, dense, basis, N)
    elif mode == ROUTE:
        trace = route_trace(x, dense, N)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    values = trace.values_under(f)
    expected = f(x)
    # s_0 = x_0, each lookup returns some x_p, and a fixed step copies a
    # term; positions, not calls of f, so that summary.json keeps its counts
    audit = {"on_dense": len(values), "off_dense": 0, "ground_truth": 1}
    verdict = classify_values(values, f.y_kind, window)
    correct: Optional[bool] = None
    if verdict.kind == "converged":
        correct = y_distance(f.y_kind, verdict.value, expected) <= TOL
    return RecoveryResult(verdict, expected, correct, trace, audit)


def recovery_report(f: FunctionOracle, dense: DenseSequence, mode: str,
                    test_points: Sequence[PointCode], N: int,
                    basis: Optional[GoodBasis] = None, window: int = 16) -> dict:
    """Per-point verdicts plus summary rates; deterministic."""
    per_point = []
    counts: Dict[str, int] = {}
    correct = 0
    for x in test_points:
        res = recover_at(f, x, dense, mode, N, basis, window)
        counts[res.verdict.kind] = counts.get(res.verdict.kind, 0) + 1
        if res.correct:
            correct += 1
        per_point.append({
            "x": str(x),
            "verdict": str(res.verdict),
            "kind": res.verdict.kind,
            "expected": str(res.expected),
            "correct": res.correct,
            "steps": len(res.trace.steps),
            "terminated": res.trace.terminated,
            "audit": res.audit,
        })
    total = len(test_points)
    return {
        "fid": f.fid,
        "mode": mode,
        "horizon": N,
        "per_point": per_point,
        "counts": dict(sorted(counts.items())),
        "converged_rate": (counts.get("converged", 0) / total) if total else None,
        "correct_rate": (correct / total) if total else None,
    }


# ---------------------------------------------------------------------------
# Lemma-5 style G-delta witnesses
# ---------------------------------------------------------------------------


class GdeltaWitness(Record):
    """The level-k witness data for a closed value set F_y.

    p_list enumerates (1-1, increasing) the dense-sequence indices whose
    value falls in O_k, the values within 2^-k of F_y (on a discrete range,
    F_y itself); U_j membership is decided by running the path and
    checking whether x_{p_j} is visited.
    """

    _fields = ("f", "F_y", "k", "i_max", "horizon", "p_list", "dense", "basis", "notes")
    __hash__ = None

    def __init__(self, f: FunctionOracle, F_y: tuple, k: int, i_max: int, horizon: int,
                 p_list: List[int], dense: DenseSequence, basis: GoodBasis,
                 notes: Optional[List[str]] = None):
        self.f = f
        self.F_y = F_y
        self.k = k
        self.i_max = i_max
        self.horizon = horizon
        self.p_list = p_list
        self.dense = dense
        self.basis = basis
        self.notes = [] if notes is None else notes
        self.bound = Fraction(1, 2 ** k)

    def in_O(self, value) -> bool:
        return any(y_distance(self.f.y_kind, value, c) < self.bound for c in self.F_y)

    def in_closure_O(self, value) -> bool:
        return any(y_distance(self.f.y_kind, value, c) <= self.bound for c in self.F_y)

    def membership(self, x: PointCode) -> dict:
        """Finite-i approximation of "x in H_k" with full detail.

        x is in H_k at i < i_max when it is in some U_j with j >= i (the
        path visits x_{p_j}) or is some x_{p_m} with m < i.  The first
        condition holds exactly for i <= max(hits), and the second, once it
        holds, holds for every larger i.  So the first failing i is
        i = max(hits) + 1 (0 without hits), when i < i_max and no
        exceptional index lies below it; otherwise none fails.
        """
        trace = path_trace(x, dense=self.dense, basis=self.basis, N=self.horizon)
        visited = trace.visited()
        hits = [j for j, p in enumerate(self.p_list) if self.dense[p] in visited]
        exceptional = [m for m, p in enumerate(self.p_list) if self.dense[p] == x]
        i = max(hits, default=-1) + 1
        failed_at = i if i < self.i_max and all(m >= i for m in exceptional) else None
        return {"member": failed_at is None, "hits": hits, "exceptional": exceptional,
                "failed_at": failed_at, "trace_terminated": trace.terminated}

    def contains(self, x: PointCode) -> bool:
        return self.membership(x)["member"]


def gdelta_witness(f: FunctionOracle, F_y, dense: DenseSequence,
                   basis: GoodBasis, k: int, i_max: int, horizon: int,
                   j_budget: int = 64) -> GdeltaWitness:
    """Materialize the (p_j) subsequence and the H_k membership test; k >= 1,
    since at k = 0 a discrete value set's closed O_k is the whole range.  A
    note says whether the list stopped at j_budget, at the last term, or,
    on an unbounded source, at the end of the table its iteration counts."""
    if k < 1:
        raise ValueError(f"level k must be >= 1, got {k}")
    wit = GdeltaWitness(f, tuple(F_y), k, i_max, horizon, [], dense, basis)
    seen_points = set()
    for p, pt in enumerate(dense):
        if pt in seen_points:
            continue  # enumerate points 1-1
        seen_points.add(pt)
        if wit.in_O(f(pt)):
            wit.p_list.append(p)
            if len(wit.p_list) >= j_budget:
                wit.notes.append(f"p_list truncated at {j_budget}")
                break
    else:
        counts = f"{len(seen_points)} distinct terms with {len(wit.p_list)} of {j_budget} p_j"
        wit.notes.append(f"enumeration ended at {counts}" if dense.budget is not None else
                         f"the sequence's table ended after {counts}; the sequence goes on")
    return wit


def evaluation_map(family: Sequence[FunctionOracle], dense: DenseSequence,
                   P: int) -> dict:
    """Truncated evaluation map I(f) = (f(x_p))_{p<P} with injectivity check."""
    if P < 1:
        raise ValueError("width must be >= 1")
    terms = list(islice(dense, P))
    rows = [tuple(f(pt) for pt in terms) for f in family]
    collisions = []
    for i in range(len(family)):
        for j in range(i + 1, len(family)):
            if rows[i] == rows[j]:
                collisions.append((family[i].fid, family[j].fid))
    return {
        "width": len(terms),
        "rows": {f.fid: rows[i] for i, f in enumerate(family)},
        "collisions": collisions,
        "injective_at_width": not collisions,
    }
