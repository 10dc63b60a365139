"""Subsequence extraction from a dense sequence.

Two algorithms are implemented over exactly represented points:

* the good-basis *path*: s_{n+1} is x_p for the minimal p such that some
  basic open W contains x and x_p and avoids all earlier terms, with a
  per-step witness neighborhood O(x,D,n) (the minimal-index such W);
* the metric *route* (first return): s_{n+1} is x_p for the minimal p with
  d(x, x_p) < d(x, s_n), exact comparisons.

Both run one extraction loop: s_0 = x_0, and a term equal to x repeats.
In Cantor and Baire space both steps are one word lookup, the first x_p
extending x|(k+1) with k = |x /\\ s_n|: the metric is an ultrametric, so
d(x, x_p) < d(x, s_n) iff x_p extends that word, and each path term
extends the previous term's common prefix with x.  On the unit interval
the path scans for the open region of admissible points, bounded by the
distance from x to the prior terms; unit and Z routes scan exact distances.

A dense sequence is either a materialized finite list (`DenseSequence`)
or an unbounded sequence with a closed-form lookup (the Prop-25 sequence of
`gallery.Prop25Sequence`); both implement the word lookup
`first_extending(word)`.  Scans over a finite list stop at the list length
and report an explicit budget signal instead of silently truncating; an
unbounded sequence always finds the next term, and where its index lies
past the table it can count exactly, it reports a `PastTableIndex` marker
instead of a number.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .space import (
    BasicOpen,
    Cylinder,
    CylinderGoodBasis,
    Dist,
    GoodBasis,
    PointCode,
    UnitGoodBasis,
    UnitPoint,
    WordPoint,
    dist,
    member,
)

PATH = "path"
ROUTE = "route"


class SearchBudgetExceeded(RuntimeError):
    """An index scan over the dense sequence ran out of materialized points."""

    def __init__(self, message: str, budget: int):
        super().__init__(f"{message} (search budget exceeded, budget={budget})")
        self.budget = budget


@dataclass(frozen=True)
class PastTableIndex:
    """Index marker for a term past the first `size` terms of a sequence.

    The term itself is exact; only its position is left uncounted.
    """

    size: int

    def __str__(self):
        return f">={self.size}"


class DenseSequence:
    """Indexed, possibly repeating, ordered list of points with provenance.

    provenance tags: "handwritten", "staged-builder", "prop25", ...
    """

    _TRIE_DEPTH = 8

    def __init__(self, space: str, points: Sequence[PointCode], tag: str = "handwritten"):
        if not points:
            raise ValueError("dense sequence must be nonempty")
        self.space = space
        self.points: List[PointCode] = list(points)
        self.tag = tag
        self._first_of = {}
        for i, pt in enumerate(self.points):
            self._first_of.setdefault(pt, i)
        self._trie = None
        self._buckets = None

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i: int) -> PointCode:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def first_index_of(self, point: PointCode) -> Optional[int]:
        return self._first_of.get(point)

    def contains(self, point: PointCode) -> bool:
        return point in self._first_of

    def _build_word_index(self):
        trie, buckets = {}, {}
        depth = self._TRIE_DEPTH
        for i, pt in enumerate(self.points):
            w = pt.prefix(depth)
            for k in range(depth + 1):
                trie.setdefault(w[:k], i)
            buckets.setdefault(w, []).append(i)
        self._trie, self._buckets = trie, buckets

    def first_index_extending(self, word: Tuple[int, ...]) -> Optional[int]:
        """Minimal p with word a prefix of x_p, or None if none materialized."""
        if self._trie is None:
            self._build_word_index()
        if len(word) <= self._TRIE_DEPTH:
            return self._trie.get(tuple(word))
        depth = self._TRIE_DEPTH
        bucket = self._buckets.get(tuple(word[:depth]), ())
        # positions below the bucket depth already match; compare the rest
        # back to front (mismatches cluster near the end for deep queries)
        tail = range(len(word) - 1, depth - 1, -1)
        for i in bucket:
            pt = self.points[i]
            if all(pt.at(j) == word[j] for j in tail):
                return i
        return None

    def first_extending(self, word: Tuple[int, ...]) -> Tuple[int, PointCode]:
        """(p, x_p) for the minimal p with word a prefix of x_p; raises
        SearchBudgetExceeded when no materialized point extends word."""
        p = self.first_index_extending(word)
        if p is None:
            raise SearchBudgetExceeded(
                f"no point extending prefix of length {len(word)}", budget=len(self)
            )
        return p, self.points[p]


@dataclass
class TraceStep:
    step: int
    index: Union[int, PastTableIndex]
    point: PointCode
    dist_to_x: Dist
    witness: Optional[BasicOpen] = None  # O(x,D,n); None encodes the empty set
    witness_index: Optional[int] = None


@dataclass
class PathTrace:
    """Extracted subsequence with per-step witnesses.

    terminated is "horizon" when all requested steps were computed, or
    "budget" when the scan exhausted the materialized sequence (the step
    count then falls short of the horizon; never silently padded).
    """

    x: PointCode
    mode: str
    horizon: int
    steps: List[TraceStep] = field(default_factory=list)
    terminated: str = "horizon"
    budget: Optional[int] = None

    def points(self) -> List[PointCode]:
        return [s.point for s in self.steps]

    def values_under(self, fn) -> list:
        return [fn(s.point) for s in self.steps]

    def visited(self) -> set:
        return set(self.points())

    def is_eventually_fixed(self) -> bool:
        return bool(self.steps) and self.steps[-1].point == self.x


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def _word_step(x: WordPoint, dense, k: int):
    """(p, x_p, w) for the first term extending w = x|(k+1), that is the
    minimal p with |x /\\ x_p| > k."""
    want = x.prefix(k + 1)
    p, pt = dense.first_extending(want)
    return p, pt, want


def _unit_admissible_region(basis: UnitGoodBasis, xv: Fraction,
                            prior_vals: Sequence[Fraction]):
    """The set of x_p admitting a common prior-free interval with x.

    It is the union, over the enumeration, of the intervals through x that
    avoid the prior set.  All intervals contain x, so the union is a single
    open interval; and it stabilizes at the first scale whose intervals are
    shorter than the distance from x to the prior set (from there on every
    interval through x avoids the priors and both grid neighbours of x are
    usable, covering everything finer scales could add).
    """
    g_prior = min(abs(xv - s) for s in prior_vals)
    lo = hi = xv
    r = 0
    while True:
        for _, iv in basis.blocks_containing(r, xv):
            if all(not (iv.lo < s < iv.hi) for s in prior_vals):
                lo = min(lo, iv.lo)
                hi = max(hi, iv.hi)
        if Fraction(1, 2 ** r) <= g_prior:
            return lo, hi
        if r > 300:  # unreachable; guards against malformed priors
            raise RuntimeError("unit admissibility scan did not terminate")
        r += 1


def _unit_min_witness(basis: UnitGoodBasis, xv: Fraction, sv: Fraction,
                      prior_vals: Sequence[Fraction]):
    r = 0
    while r <= 300:
        for k, iv in basis.blocks_containing(r, xv):
            if iv.lo < sv < iv.hi and all(not (iv.lo < s < iv.hi) for s in prior_vals):
                return iv, basis.index_of(r, k)
        r += 1
    raise RuntimeError("no witness interval found for an admissible step")


def _unit_path_step(x: UnitPoint, dense: DenseSequence, prior: Sequence[UnitPoint],
                    basis: UnitGoodBasis):
    xv = x.value
    prior_vals = [s.value for s in prior]
    lo, hi = _unit_admissible_region(basis, xv, prior_vals)
    # the region straddles x strictly (both grid neighbours at the final
    # scale are usable), so x itself qualifies whenever it is enumerated
    for p, cand in enumerate(dense.points):
        if lo < cand.value < hi:
            witness, widx = _unit_min_witness(basis, xv, cand.value, prior_vals)
            return p, cand, witness, widx
    raise SearchBudgetExceeded("no admissible unit point", budget=len(dense))


def path_step(x: PointCode, dense: DenseSequence, prior: Sequence[PointCode],
              basis: GoodBasis):
    """One non-fixed path step: minimal p with {x, x_p} inside a basic open
    avoiding the prior terms.  Returns (p, point, witness, witness_index).

    Precondition: prior is the path so far, s_0..s_n, and x differs from
    s_n (the caller handles the fixed-point branch of the extraction).
    """
    if isinstance(x, WordPoint):
        # A cylinder through x and x_p misses every prior term iff
        # |x /\ x_p| > max_i |x /\ s_i|; each term extends the previous
        # one's common prefix with x, so that maximum is the last term's.
        p, pt, want = _word_step(x, dense, x.common_prefix_len(prior[-1]))
        widx = basis.index_of_word(want) if isinstance(basis, CylinderGoodBasis) else None
        return p, pt, Cylinder(x.space, want), widx
    if isinstance(x, UnitPoint):
        return _unit_path_step(x, dense, prior, basis)
    raise ValueError(f"path mode needs a good basis; unsupported for {x.space}")


def route_step(x: PointCode, dense: DenseSequence, current: Dist):
    """Minimal p with d(x, x_p) < current; exact comparisons.

    In Cantor and Baire space d(x, x_p) < 2^(-k) iff x_p extends x|(k+1),
    which is the word step of path mode; other spaces scan the list.
    """
    if isinstance(x, WordPoint) and current.kind == "pow2":
        return _word_step(x, dense, int(current.value))[:2]
    for p, cand in enumerate(dense.points):
        if dist(x, cand) < current:
            return p, cand
    raise SearchBudgetExceeded("no closer point within index budget", budget=len(dense))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _extract(x: PointCode, dense, N: int, mode: str, step, on_budget: str) -> PathTrace:
    """s_0 = x_0, then s_{n+1} from step(s_n) until N terms; a term equal
    to x repeats.  on_budget: "truncate" records an explicit budget stop;
    "raise" propagates SearchBudgetExceeded."""
    if N < 1:
        raise ValueError("horizon must be >= 1")
    trace = PathTrace(x=x, mode=mode, horizon=N)
    s0 = dense[0]
    trace.steps.append(TraceStep(0, 0, s0, dist(x, s0)))
    for n in range(N - 1):
        cur = trace.steps[-1]
        if cur.point == x:
            trace.steps.append(TraceStep(n + 1, cur.index, cur.point, Dist.zero()))
            continue
        try:
            p, pt = step(cur)
        except SearchBudgetExceeded as exc:
            if on_budget == "raise":
                raise
            trace.terminated = "budget"
            trace.budget = exc.budget
            break
        trace.steps.append(TraceStep(n + 1, p, pt, dist(x, pt)))
    return trace


def path_trace(x: PointCode, dense: DenseSequence, basis: GoodBasis, N: int,
               on_budget: str = "truncate") -> PathTrace:
    """Path-mode trace of length <= N with witnesses."""
    prior: List[PointCode] = []

    def step(cur: TraceStep):
        prior.append(cur.point)
        p, pt, cur.witness, cur.witness_index = path_step(x, dense, prior, basis)
        return p, pt

    return _extract(x, dense, N, PATH, step, on_budget)


def route_trace(x: PointCode, dense: DenseSequence, N: int,
                on_budget: str = "truncate") -> PathTrace:
    """Route-mode trace: strictly decreasing exact distances to x."""
    return _extract(x, dense, N, ROUTE,
                    lambda cur: route_step(x, dense, cur.dist_to_x), on_budget)


# ---------------------------------------------------------------------------
# Diagnostics used by tests and reports
# ---------------------------------------------------------------------------


def witness_violations(trace: PathTrace) -> List[str]:
    """Exact witness-soundness check: every nonempty O(x,D,n) must contain
    {x, s_{n+1}} and exclude s_0..s_n."""
    problems = []
    for n, step in enumerate(trace.steps[:-1]):
        w = step.witness
        if w is None:
            continue
        nxt = trace.steps[n + 1]
        if not member(trace.x, w):
            problems.append(f"step {n}: witness misses x")
        if not member(nxt.point, w):
            problems.append(f"step {n}: witness misses s_{n + 1}")
        for k in range(n + 1):
            if member(trace.steps[k].point, w):
                problems.append(f"step {n}: witness contains s_{k}")
    return problems


def route_descent_violations(trace: PathTrace) -> List[str]:
    problems = []
    for n in range(len(trace.steps) - 1):
        a, b = trace.steps[n], trace.steps[n + 1]
        if a.point == trace.x:
            continue
        if not b.dist_to_x < a.dist_to_x:
            problems.append(f"step {n + 1}: distance did not strictly decrease")
    return problems


def trace_to_csv(trace: PathTrace) -> str:
    """Deterministic CSV: step, index_p, point, dist_to_x, witness.

    An index past the table a sequence can count is written as its
    `PastTableIndex` marker, ">=" followed by the table's term count (">=5864"
    over the default Prop-25 table); it is never a guessed number.
    """
    lines = ["step,index_p,point,dist_to_x,witness"]
    for s in trace.steps:
        wit = "" if s.witness is None else str(s.witness)
        lines.append(f"{s.step},{s.index},{s.point},{s.dist_to_x},{wit}")
    return "\n".join(lines) + "\n"
