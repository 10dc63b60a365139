"""Subsequence extraction from a dense sequence.

Two algorithms are implemented over exactly represented points:

* the good-basis *path*: s_{n+1} is x_p for the minimal p such that some
  basic open W contains x and x_p and avoids all earlier terms, with a
  per-step witness neighborhood O(x,D,n) (the minimal-index such W);
* the metric *route* (first return): s_{n+1} is x_p for the minimal p with
  d(x, x_p) < d(x, s_n), exact comparisons.

Both run one extraction loop: s_0 = x_0, and a term equal to x repeats.
Each space has one lookup that both steps call.  In Cantor and Baire space
it is the word lookup `first_extending(x|(k+1))` with k = |x /\\ s_n|: the
metric is an ultrametric, so d(x, x_p) < d(x, s_n) iff x_p extends that
word, and each path term extends the previous term's common prefix with x.
Both cylinder bases list every cylinder and give an extension a larger
index than its word, so the path's witness is N_{x|(k+1)} and its term is
the route's, whatever the symbols of x.
On the unit interval it is the interval lookup `first_inside(lo, hi)`: a
route asks for the ball (x - r, x + r), a path for the union of the basis
intervals through x that avoid the prior terms.  An interval through x
holds a prior term iff it holds a or b, the nearest priors below and above
x (a prior s in it below x has s <= a < x, so a lies in it too; likewise
above).  Terms lie between a and b, so a step reads a and b off the
trace's last terms on each side of x and tests each block's intervals
through x against them with integer comparisons (see `_unit_prior_free`).
Z has no good basis, so it has routes only; their lookup is the
entry-prefix lookup `first_closer(x, e, k)`: with k the least n such that
x_n > e, a point is within 2^-e of x iff it agrees with x on entries
0..k-1 and its entry k exceeds e.  A Z trace carries k from step to step:
the new term agrees with x on entries 0..k-1, so its distance is one
comparison of entries from k, and the entry n0 where it first differs
from x gives the next k with no search of x's entries, n0 + 1 if x_n0 is
the smaller entry and n0 otherwise (proofs at `route_step`).  No step
compares a list point other than the new term with x.  Z entries are
compared as the int pairs (numerator, denominator) that each point caches
(`ZPoint.pair`): equal iff the pairs are, ordered by the cross-product of
the pairs, and the trie keys its nodes by pairs, so a Z step after a
trace's first makes no Fraction comparison and hashes no Fraction.

Every dense source D, whatever holds its terms, keeps one contract:

* `space`, the space of its terms;
* `budget`: its length, or None when it is unbounded;
* `__getitem__`, and `__iter__` over the terms it can count;
* `first_index_of(point)`, the point's least index or None, and
  `contains(point)`;
* the one lookup of its space, `first_extending(word)` on Cantor and Baire
  space, `first_closer(x, e, k=None)` on Z or `first_inside(lo, hi)` on
  the unit interval, which returns (p, x_p) for the least p whose term
  qualifies.
  On a miss it raises `SearchBudgetExceeded` carrying `budget`, which the
  extraction records as the trace's `budget` stop: a trace neither raises
  nor silently truncates.  An unbounded source never misses a word of its
  alphabet; a term whose index lies past the table it can count is
  answered with a `PastTableIndex` marker in place of the index.

No library code reads `len()` of a source: an unbounded one has none.  The
sources are the list `DenseSequence`, which answers from an index built on
first use, and the closed-form `gallery.Prop25Sequence`, unbounded or as
the bounded view `gallery.prop25_dense()` of the terms its table counts.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from itertools import accumulate
from math import lcm
from operator import attrgetter
from typing import List, Optional, Sequence, Tuple, Union

from . import Record
from .space import (
    BasicOpen,
    Cylinder,
    Dist,
    GoodBasis,
    PointCode,
    UnitGoodBasis,
    UnitPoint,
    WordPoint,
    ZPoint,
    common_space,
    dist,
    good_basis,
)

PATH = "path"
ROUTE = "route"


class SearchBudgetExceeded(RuntimeError):
    """A lookup found no term where the next one must lie.

    It marks a finite list or view that holds no such term, and a route
    asked for a point closer than distance 0.  budget is the source's
    `budget`, the bound that ran out (None for an unbounded one).
    """

    def __init__(self, message: str, budget: Optional[int]):
        super().__init__(f"{message} (search budget exceeded, budget={budget})")
        self.budget = budget


class PastTableIndex(Record):
    """Index marker for a term past the first `size` terms of a sequence.

    The term itself is exact; only its position is left uncounted.
    """

    _fields = ("size",)

    def __init__(self, size: int):
        self.size = size

    def __str__(self):
        return f">={self.size}"


def _range_index(keys: list):
    """The keys in ascending order, and a sparse table of range minima over
    the list indices in that order: mins[j][a] is the least index at sorted
    positions a..a + 2^j - 1."""
    order = sorted(range(len(keys)), key=keys.__getitem__)
    mins = [order]
    while 1 << len(mins) <= len(order):
        prev, half = mins[-1], 1 << (len(mins) - 1)
        mins.append(list(map(min, prev[:-half], prev[half:])))
    return [keys[i] for i in order], mins


def _least(mins, a: int, b: int) -> int:
    """The least index at sorted positions a..b-1, a < b: two runs of 2^j
    positions, the longest that fit, cover them from each end."""
    j = (b - a).bit_length() - 1
    return min(mins[j][a], mins[j][b - (1 << j)])


class _PrefixNode:
    """The points of a Z list that share a prefix of entries: the least of
    their indices, and either all of them, ascending, or, once split, the
    nodes of the prefixes one entry longer, keyed by that entry's pair
    (numerator, denominator) (`ZPoint.pair`).  A query that ends at a split
    node reads `suffixes`, built on first use: D, the lcm of the
    denominators of the node's keys; the keys times D, integers in
    ascending order; and the least index of each suffix of them."""

    __slots__ = ("first", "indices", "children", "suffixes")

    def __init__(self, indices: List[int]):
        self.first = indices[0]
        self.indices: Optional[List[int]] = indices
        self.children: Optional[dict] = None
        self.suffixes = None

    def partition(self, points: Sequence[ZPoint], d: int) -> dict:
        """Split the node by the pair of entry d, one read per index."""
        parts = {}
        for i in self.indices:
            parts.setdefault(points[i].pair(d), []).append(i)
        self.children = {s: _PrefixNode(indices) for s, indices in parts.items()}
        self.indices = None
        return self.children


class DenseSequence:
    """Indexed, possibly repeating, ordered list of points of one space;
    a list that mixes spaces raises SpaceMismatch.  A word or unit list
    answers its lookup from its points' keys in ascending order and a
    sparse table of range minima over them (`_range_index`), a Z list from
    a prefix trie.  Each index is built on first use, and so is the table
    of first indices that `first_index_of` and `contains` read."""

    # No lookup reads this depth: the benchmark's tracer counts words longer
    # than it as deep lookups (its `deep_share` metric).
    _TRIE_DEPTH = 8

    def __init__(self, points: Sequence[PointCode]):
        if not points:
            raise ValueError("dense sequence must be nonempty")
        self.points: List[PointCode] = list(points)
        self.space = common_space(self.points)
        self._first_of = None
        self._order = None
        self._root = None

    def __len__(self):
        return len(self.points)

    @property
    def budget(self) -> int:
        return len(self.points)

    def __getitem__(self, i: int) -> PointCode:
        return self.points[i]

    def __iter__(self):
        return iter(self.points)

    def first_index_of(self, point: PointCode) -> Optional[int]:
        if self._first_of is None:
            self._first_of = {}
            for i, pt in enumerate(self.points):
                self._first_of.setdefault(pt, i)
        return self._first_of.get(point)

    def contains(self, point: PointCode) -> bool:
        return self.first_index_of(point) is not None

    def _build_word_index(self):
        """The sorted keys of a word list with their range-minima table, the
        key length L, and the word type of the space (`space.Word`).

        Two distinct canonical words h1.c1^inf and h2.c2^inf differ before
        max(|h1|, |h2|) + |c1| + |c2| - gcd(|c1|, |c2|) (Fine-Wilf), so any
        two distinct points of the list differ before L = (longest head) +
        (the two longest cycles) - 1, and keys of at least L symbols order
        the points as their infinite words are ordered.  A key is the head
        and whole cycles, in the point's own word type: bytes on Cantor
        space, so no symbol is converted, and a tuple on Baire space.
        """
        points = self.points
        cycles = sorted(map(len, map(attrgetter("cycle"), points)))
        L = max(map(len, map(attrgetter("head"), points))) + sum(cycles[-2:]) - 1
        keys = [pt.head + pt.cycle * -(-(L - len(pt.head)) // len(pt.cycle))
                for pt in points]
        self._order = *_range_index(keys), L, type(points[0].head)

    def first_index_extending(self, word: Sequence[int]) -> Optional[int]:
        """Minimal p with word a prefix of x_p, or None if none materialized.

        The keys a word w of at most L symbols begins are one run of the
        sorted keys, from bisect_left(keys, w) up to bisect_left(keys, w'),
        with w' the word w with its last symbol raised by one; the least
        index of the run is one lookup in the table.  Distinct points differ
        before L, so the run of a longer word's first L symbols holds one
        point, perhaps repeated, and that point is asked whether it extends
        the whole word.  A lookup reads no list point for a word of at most
        L symbols, and one for a longer word.  A word of the keys' type, as
        `WordPoint.word` gives, is used as it is; any other is converted.
        """
        if self._order is None:
            self._build_word_index()
        keys, mins, L, kind = self._order
        w = word[:L]
        try:
            if type(w) is not kind:
                w = kind(w)
            b = bisect_left(keys, w[:-1] + kind((w[-1] + 1,))) if w else len(keys)
        except ValueError:  # no Cantor key holds a symbol past 1
            return None
        a = bisect_left(keys, w, 0, b)
        if a < b:
            p = _least(mins, a, b)
            if len(word) <= L or self.points[p].starts_with(word):
                return p
        return None

    def first_extending(self, word: Sequence[int]) -> Tuple[int, PointCode]:
        """(p, x_p) for the minimal p with word a prefix of x_p; raises
        SearchBudgetExceeded when no materialized point extends word."""
        p = self.first_index_extending(word)
        if p is None:
            raise SearchBudgetExceeded(
                f"no point extending prefix of length {len(word)}", budget=self.budget
            )
        return p, self.points[p]

    def first_closer(self, x: ZPoint, e: Fraction,
                     k: Optional[int] = None) -> Tuple[int, PointCode]:
        """(p, x_p) for the minimal p with d(x, x_p) < 2^-e (space Z); raises
        SearchBudgetExceeded when no materialized point is that close.

        With k the least n such that x_n > e, d(x, y) < 2^-e iff y agrees
        with x on entries 0..k-1 and y_k > e (see `route_step`).  A caller
        that knows k passes it, as a Z route trace does, which carries it
        from the step before; otherwise it is `x.first_entry_above(e)`, a
        bisect over x's prefix in Fractions.  The walk by the pairs of
        x's entries (`ZPoint.pair`) reaches the trie node of x's first k
        entries, splitting each node it is the first to pass.  Its children
        whose entry k exceeds e are a suffix of its sorted keys, so the
        answer is one bisect into the keys and one read of the least index
        of that suffix.  The bisect runs over integers: the node keeps each
        key n / d, a pair (n, d), as K = n * (D // d), with D the lcm of its
        keys' denominators.  For an integer K, K / D <= e iff K <= e * D iff
        K <= floor(e * D), so the keys at most e are those at most
        e.numerator * D // e.denominator.  A query for the same x object as
        the last one found, with no fewer entries, walks on from that one's
        node.
        """
        if self._root is None:
            self._root = _PrefixNode(list(range(len(self.points))))
            self._finger = None, 0, self._root
        if k is None:
            k = x.first_entry_above(e)
        last, d, node = self._finger
        if last is not x or k < d:
            node, d = self._root, 0
        for d in range(d, k):
            node = (node.children or node.partition(self.points, d)).get(x.pair(d))
            if node is None:
                break
        if node is not None:
            self._finger = x, k, node
            if node.suffixes is None:
                children = node.children or node.partition(self.points, k)
                D = lcm(*(den for _, den in children))
                scaled = sorted((num * (D // den), child.first)
                                for (num, den), child in children.items())
                firsts = accumulate((first for _, first in reversed(scaled)), min)
                node.suffixes = D, [K for K, _ in scaled], list(firsts)[::-1]
            D, keys, firsts = node.suffixes
            pos = bisect_right(keys, e.numerator * D // e.denominator)
            if pos < len(keys):
                return firsts[pos], self.points[firsts[pos]]
        raise SearchBudgetExceeded(f"no point within 2^(-{e})", budget=self.budget)

    def first_inside(self, lo: Fraction, hi: Fraction) -> Tuple[int, PointCode]:
        """(p, x_p) for the minimal p with lo < x_p < hi (unit interval);
        raises SearchBudgetExceeded when no materialized point lies there.

        The values are sorted once, with a sparse table of range minima
        over their indices (`_range_index`): the open bounds are two
        bisects, and the least index between them is one lookup in the
        table.  The values stay Fractions: integer keys over one lcm
        denominator, as a Z node keeps, would grow with the whole list and
        not with one node's keys.
        """
        if self._order is None:
            self._order = _range_index([pt.value for pt in self.points])
        values, mins = self._order
        a, b = bisect_right(values, lo), bisect_left(values, hi)
        if a >= b:
            raise SearchBudgetExceeded(f"no point inside ({lo}, {hi})", budget=self.budget)
        p = _least(mins, a, b)
        return p, self.points[p]


class TraceStep(Record):
    _fields = ("step", "index", "point", "dist_to_x", "witness")
    __hash__ = None

    def __init__(self, step: int, index: Union[int, PastTableIndex], point: PointCode,
                 dist_to_x: Dist, witness: Optional[BasicOpen] = None):
        self.step = step
        self.index = index
        self.point = point
        self.dist_to_x = dist_to_x
        self.witness = witness  # O(x,D,n), by least index; None: empty set


class PathTrace(Record):
    """Extracted subsequence with per-step witnesses.

    terminated is "horizon" when all requested steps were computed, or
    "budget" when the scan exhausted the materialized sequence (the step
    count then falls short of the horizon; never silently padded).
    """

    _fields = ("x", "mode", "horizon", "steps", "terminated", "budget")
    __hash__ = None

    def __init__(self, x: PointCode, mode: str, horizon: int,
                 steps: Optional[List[TraceStep]] = None, terminated: str = "horizon",
                 budget: Optional[int] = None):
        self.x = x
        self.mode = mode
        self.horizon = horizon
        self.steps = [] if steps is None else steps
        self.terminated = terminated
        self.budget = budget

    def points(self) -> List[PointCode]:
        return [s.point for s in self.steps]

    def values_under(self, fn) -> list:
        """[fn(s.point) for s in steps], with one call of fn per run of
        consecutive steps that hold the same point object; fn must be
        deterministic.  A settled trace's fixed tail shares one object, so
        it costs one call; equal points held by distinct objects are simply
        evaluated again."""
        values, last, value = [], None, None
        for s in self.steps:
            if s.point is not last:
                last, value = s.point, fn(s.point)
            values.append(value)
        return values

    def visited(self) -> set:
        return set(self.points())


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


def _unit_prior_free(basis: UnitGoodBasis, v: Fraction, a: Fraction, b: Fraction):
    """The basis intervals through v that avoid the prior terms, as (r, k)
    pairs for the block-r interval (k / D, (k + 2) / D), D = 2^(r+1), in
    basis order, from scale 0 to the last scale R.

    a and b are the nearest priors below and above v, or -1 and 2 where
    there is none: outside every basis interval, and at least 1 from v.
    An interval (lo, hi) through v holds a prior term iff it holds a or b:
    a prior s in it below v has lo < s <= a < v, and one above v has
    v < b <= s < hi.  So it is prior-free iff a <= lo and hi <= b, and with
    a = an / ad and b = bn / bd both tests compare integers:
    an * D <= k * ad and (k + 2) * bd <= bn * D.

    All of them contain v, so their union is one open interval: the set of
    x_p admitting a common prior-free interval with v.  R is the first
    scale whose intervals are no longer than v - a and b - v: from there on
    every interval through v avoids the priors and both grid neighbours of
    v are usable, covering everything finer scales could add.  With
    g / G such a distance, 2^-r <= g / G iff 2^r >= ceil(G / g).
    """
    R = max((-(-g.denominator // g.numerator) - 1).bit_length() for g in (v - a, b - v))
    an, ad, bn, bd = a.numerator, a.denominator, b.numerator, b.denominator
    return [(r, k) for r in range(R + 1) for k in basis.blocks_containing(r, v)
            if an << (r + 1) <= k * ad and (k + 2) * bd <= bn << (r + 1)]


def path_step(x: PointCode, dense: DenseSequence, prior: Sequence[TraceStep],
              basis: GoodBasis):
    """One non-fixed path step: minimal p with {x, x_p} inside a basic open
    avoiding the prior terms.  Returns (p, point, witness), the least-index
    such open; its index only orders the choice and is never computed.
    On a word space the step is the route's lookup of x|(k+1), with
    2^-k = d(x, s_n), plus the witness N_{x|(k+1)}, so a word path has the
    terms of the word route and reads nothing from the basis.

    Precondition: prior is the trace's steps s_0..s_n, and x differs from
    s_n (the caller handles the fixed-point branch of the extraction).
    """
    if type(x) is WordPoint:
        # A cylinder through x and x_p misses every prior term iff
        # |x /\ x_p| > max_i |x /\ s_i|; each term extends the previous one's
        # common prefix with x, so that maximum is k in d(x, s_n) = 2^-k, and
        # N_want, the shortest such cylinder through x, has the least index
        # (an extension's index is larger in both cylinder bases).  want is
        # in the space's word type, which the lookup and the cylinder keep.
        want = x.word(prior[-1].dist_to_x.value + 1)
        p, pt = dense.first_extending(want)
        return p, pt, Cylinder(x.space, want)
    if isinstance(x, UnitPoint):
        # a term lies inside the union of the intervals that avoid the terms
        # before it, so terms below x increase and terms above x decrease
        v = x.value
        a = next((s.point.value for s in reversed(prior) if s.point.value < v), Fraction(-1))
        b = next((s.point.value for s in reversed(prior) if s.point.value > v), Fraction(2))
        free = _unit_prior_free(basis, v, a, b)
        # the union's ends on the last scale's grid; it straddles x strictly
        # (both grid neighbours at that scale are usable), so x itself
        # qualifies whenever it is enumerated
        R = free[-1][0]
        lo = min(k << (R - r) for r, k in free)
        hi = max((k + 2) << (R - r) for r, k in free)
        p, pt = dense.first_inside(Fraction(lo, 2 << R), Fraction(hi, 2 << R))
        # every later scale has larger indices, so the first listed interval
        # holding x_p = n / d is the minimal-index witness
        n, d = pt.value.numerator, pt.value.denominator
        r, k = next((r, k) for r, k in free if k * d < n << (r + 1) < (k + 2) * d)
        return p, pt, basis.interval(r, k)
    raise ValueError(f"path mode needs a good basis; unsupported for {x.space}")


def route_step(x: PointCode, dense: DenseSequence, current: Dist):
    """Minimal p with d(x, x_p) < current; exact comparisons, and no list
    point is compared with x.  Word and unit route traces step with it; a
    Z route trace steps with `_z_route_step`, which gives the same terms
    and distances, and route_step stays its reference.

    On the unit interval d(x, x_p) < r iff x - r < x_p < x + r, the
    interval lookup.  Cantor, Baire and Z distances are powers 2^-e:

    * Cantor and Baire (e an integer): d(x, x_p) < 2^-e iff x_p extends x|(e+1),
      the word lookup.
    * Z: let k be the least n with x_n > e.  Then d(x, y) < 2^-e iff y
      agrees with x on entries 0..k-1 and y_k > e.  For y = x both sides
      hold; otherwise let n0 be the first index where y and x differ, so
      d(x, y) = 2^-min(x_n0, y_n0):
        - n0 < k: min(x_n0, y_n0) <= x_n0 <= e, so y is not closer, and y
          does not agree with x on 0..k-1;
        - n0 = k: y agrees on 0..k-1 and x_k > e, so y is closer iff y_k > e;
        - n0 > k: y_k = x_k > e, and both sequences increase strictly, so
          x_n0 > x_k and y_n0 > y_k: y is closer, and y satisfies the test.
      This is the entry-prefix lookup `first_closer`.

      A Z trace carries k, so no step searches x's entries for it.  The
      term y that the lookup found agrees with x on entries 0..k-1, so the
      first index n0 where they differ is at least k, and the comparison
      of entries starts at k.  If there is no n0, y = x and the trace is
      fixed.  Otherwise d(x, y) = 2^-e' with e' = min(x_n0, y_n0), and k',
      the least n with x_n > e', is:
        - n0 + 1 when x_n0 < y_n0: then e' = x_n0, and x increases
          strictly, so x_n <= x_n0 for n <= n0 and x_(n0+1) > x_n0;
        - n0 when y_n0 < x_n0: then e' = y_n0, x_n = y_n < y_n0 for n < n0
          (y increases strictly too), and x_n0 > y_n0.
      So one comparison of x_n0 with y_n0 gives both e' and k'.  It is
      made on the entries' pairs (n, d) and (n', d'), both in lowest terms
      with positive denominators: x_n0 < y_n0 iff n * d' < n' * d.

    Nothing is closer than distance 0: that is a budget stop as well, on
    every sequence, with the sequence's own budget.
    """
    if isinstance(x, UnitPoint):
        r = current.as_fraction()
        return dense.first_inside(x.value - r, x.value + r)
    if current.is_zero():
        raise SearchBudgetExceeded("no point closer than distance 0", budget=dense.budget)
    if isinstance(x, ZPoint):
        return dense.first_closer(x, current.value)
    return dense.first_extending(x.word(current.value + 1))


# ---------------------------------------------------------------------------
# Extraction
# ---------------------------------------------------------------------------


def _extract(x: PointCode, dense, N: int, mode: str, step) -> PathTrace:
    """s_0 = x_0, then (p, s_{n+1}, d(x, s_{n+1})) from step(s_0..s_n), the
    trace's steps so far, until N terms; a term equal to x repeats.  A step
    that runs out of points ends the trace with an explicit budget stop.

    Once a term s_n equals x, every later term is that term again: a fixed
    step repeats its term, so it equals x too.  The remaining N - 1 - n
    steps are therefore appended at once.  They share the term's point
    object and index and one zero distance, and carry no witness, which is
    the list of steps that copying the term one step at a time gives.  The
    test is d(x, s_n) = 0, which holds iff s_n = x in every space: words
    and Z points are canonical, so distinct fields denote distinct points.
    """
    if N < 1:
        raise ValueError("horizon must be >= 1")
    trace = PathTrace(x=x, mode=mode, horizon=N)
    s0 = dense[0]
    trace.steps.append(TraceStep(0, 0, s0, dist(x, s0)))
    for n in range(N - 1):
        cur = trace.steps[-1]
        if cur.dist_to_x.is_zero():
            zero = Dist.zero()
            trace.steps.extend(TraceStep(k, cur.index, cur.point, zero) for k in range(n + 1, N))
            break
        try:
            p, pt, d = step(trace.steps)
        except SearchBudgetExceeded as exc:
            trace.terminated = "budget"
            trace.budget = exc.budget
            break
        trace.steps.append(TraceStep(n + 1, p, pt, d))
    return trace


def _term_dist(x: PointCode, pt: PointCode, prev: Dist) -> Dist:
    """d(x, pt) for the term a path step or a word or unit route step found
    after a term at nonzero distance prev from x.  In a word space both
    steps look that term up by the word x|(k+1), with prev = 2^-k, so the
    comparison with x starts at k + 1."""
    if type(x) is WordPoint:
        d = x.first_difference(pt, prev.value + 1)
        return Dist.zero() if d is None else Dist.pow2(d)
    return dist(x, pt)


def path_trace(x: PointCode, dense: DenseSequence, basis: Optional[GoodBasis],
               N: int) -> PathTrace:
    """Path-mode trace of length <= N with witnesses.  A basis of None means
    the space's `good_basis` (NoGoodBasis on Z)."""
    if basis is None:
        basis = good_basis(x.space)

    def step(steps: List[TraceStep]):
        p, pt, steps[-1].witness = path_step(x, dense, steps, basis)
        return p, pt, _term_dist(x, pt, steps[-1].dist_to_x)

    return _extract(x, dense, N, PATH, step)


def route_trace(x: PointCode, dense: DenseSequence, N: int) -> PathTrace:
    """Route-mode trace: strictly decreasing exact distances to x."""
    if isinstance(x, ZPoint):
        return _extract(x, dense, N, ROUTE, _z_route_step(x, dense))

    def step(steps: List[TraceStep]):
        p, pt = route_step(x, dense, steps[-1].dist_to_x)
        return p, pt, _term_dist(x, pt, steps[-1].dist_to_x)

    return _extract(x, dense, N, ROUTE, step)


def _z_route_step(x: ZPoint, dense: DenseSequence):
    """The step of a Z route trace: the terms and distances of `route_step`
    and `dist`, with k, the least n such that x_n > e for the last term's
    distance 2^-e, carried from one step to the next (see `route_step`).
    Only the first step finds k by `first_entry_above`.  The entries are
    compared as int pairs: `first_difference` tests the pairs for equality,
    and x_n0 and y_n0 are ordered by the cross-product of theirs, so a step
    makes no Fraction comparison; the distance keeps the Fraction entry."""
    k = None

    def step(steps: List[TraceStep]):
        nonlocal k
        e = steps[-1].dist_to_x.value
        if k is None:
            k = x.first_entry_above(e)
        p, pt = dense.first_closer(x, e, k)
        n0 = x.first_difference(pt, k)
        if n0 is None:
            return p, pt, Dist.zero()
        (an, ad), (bn, bd) = x.pair(n0), pt.pair(n0)
        if an * bd < bn * ad:
            k, e = n0 + 1, x.entry(n0)
        else:
            k, e = n0, pt.entry(n0)
        return p, pt, Dist.pow2(e)

    return step


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
        if not w.member(trace.x):
            problems.append(f"step {n}: witness misses x")
        if not w.member(nxt.point):
            problems.append(f"step {n}: witness misses s_{n + 1}")
        for k in range(n + 1):
            if w.member(trace.steps[k].point):
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
