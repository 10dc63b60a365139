"""Staged construction of a dense sequence adapted to finitely many closed sets.

Given closed sets F_0..F_{I-1} and a globally fixed dense enumeration (q_i),
the builder orders a subset of (q_i) in stages D_0, D_1, ...  Stage i seeds
G_0 = {q_i} and then, for each sigma in the lexicographically ordered
subsets of {0..I-1}, augments G with

    A^F(G) = union over x in G\\F and basic opens W <= m_budget with
             x in W and W meeting F, of the first enumerated q inside W /\\ F

where F is the intersection of the sigma-selected closed sets.  When G
lies inside F (always so at sigma = 0..0, which selects none, so F = X),
G\\F is empty, A^F(G) is empty and the step is skipped.  Within a stage,
points whose own sigma-class is lexicographically largest are put first.
The stage-priority ordering is what later makes paths extracted from the
flattened sequence stay inside each F_i at almost every step.

All truncations (index bounds, scan budgets, per-stage caps) are recorded
in the build log; nothing is silently dropped.  The closed sets are the
exact `space.ClosedSet`s, so membership, "does this basic open meet F" and
the intersections F_sigma are all decided exactly.  The output holds the
stage blocks and their flattened `DenseSequence`, in which a point's
position is `dense.first_index_of(point)`.

Inside a build a point is an int id, its first index in (q_i), so each
point is hashed once per build; G, the picks and the memo tables shared by
the build's a_f_of_g calls are all keyed by ints.  Each id's membership in
the I closed sets is decided once, as a bit mask, and the masks decide
membership in every F_sigma, which steps to skip and the stage order.  The
log is kept as small records and formatted only when read.

What a stage does is fixed by its seed's class: the stage width, the
seed's family mask and the basis indices of the seed's walk up to
m_budget.  Its picks, drops, truncations and G follow from the class, so
a later stage of a stored class replays the stored steps and makes no
a_f_of_g call.  Two guards keep this exact: a stage whose seed is among
its own a_f_of_g picks is not stored (another seed of its class would
take that pick), and a stage whose seed is among the stored picks does
not replay (it would skip that pick).  The memo shared by the a_f_of_g
calls keeps, per id, only the basis indices of its point's walk.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, List, Optional, Sequence, Tuple

from . import Record
from .path import DenseSequence, path_trace
from .space import ClosedSet, GoodBasis, PointCode, whole_space


# ---------------------------------------------------------------------------
# The A^F(G) augmentation
# ---------------------------------------------------------------------------


def _walk(memo: dict, x: int, basis: GoodBasis, q_enum: Sequence[PointCode],
          m_budget: int) -> Tuple[int, ...]:
    """The basis indices m <= m_budget of the opens through q_enum[x],
    ascending, worked out once per id and kept in `memo` under x."""
    walk = memo.get(x)
    if walk is None:
        walk = memo[x] = tuple(basis.indices_through(q_enum[x], m_budget))
    return walk


def a_f_of_g(F: ClosedSet, G: Sequence[int], basis: GoodBasis,
             q_enum: Sequence[PointCode], m_budget: int,
             pick_cache: Optional[dict] = None):
    """One augmentation step.

    G holds point ids: the id of a point is its first index in q_enum.
    For each x in G\\F and each basic open W_m (m <= m_budget) with q_enum[x]
    in W_m and W_m meeting F, picks the first q_i lying in W_m /\\ F.  Returns
    (picks, truncations) where picks are (i, via_m) in deterministic
    first-found order -- the first such i is its point's id -- and
    truncations record min-index scans that exhausted the enumeration.

    `pick_cache` may be shared by calls over one basis, enumeration and
    m_budget.  It maps each id x to the basis indices of its point's walk,
    the tuple of m <= m_budget with q_enum[x] in W_m, and each closed set F
    to two int-keyed tables: membership in F by id, a bytearray holding 0
    until asked and then 1 outside F and 2 inside, and answers by basis
    index m, each False if W_m misses F, None if the scan for a q_i in
    W_m /\\ F exhausted the enumeration, and else the first such i.  The
    cache holds no open: W_m is rebuilt as `basis.at(m)` only to work out
    an answer or to name it in a truncation.  F is looked up once per
    call, so no lookup hashes a point or an open, and a `ClosedSet` keeps
    its hash.  A standalone call fills the membership table as it asks;
    `build_dense` hands its calls tables already filled from its per-point
    family masks, so they ask no F.member of a point of G.
    """
    memo = pick_cache if pick_cache is not None else {}
    tables = memo.get(F)
    if tables is None:
        tables = memo[F] = (bytearray(len(q_enum)), {})
    inside, answers = tables
    picks: List[Tuple[int, int]] = []
    seen = set()
    truncations: List[str] = []
    for x in G:
        if not inside[x]:
            inside[x] = 1 + F.member(q_enum[x])
        if inside[x] == 2:
            continue
        for m in _walk(memo, x, basis, q_enum, m_budget):
            if m not in answers:
                W = basis.at(m)
                answers[m] = F.meets(W) and next(
                    (i for i, q in enumerate(q_enum) if W.member(q) and F.member(q)), None)
            found = answers[m]
            if found is False:  # W misses F (index 0 is not False)
                continue
            if found is None:
                truncations.append(f"minidx scan exhausted for W={basis.at(m)} F={F}")
                continue
            if found not in seen:
                seen.add(found)
                picks.append((found, m))
    return picks, truncations


# ---------------------------------------------------------------------------
# The staged build
# ---------------------------------------------------------------------------


# a stage's G holds at most G_CAP points (extra picks are dropped and
# logged); the builder takes at most MAX_FAMILIES closed sets
G_CAP = 64
MAX_FAMILIES = 8


class StagedDense(Record):
    """Builder output: per-stage blocks plus the flattened dense sequence."""

    _fields = ("blocks", "dense", "records", "truncations")
    __hash__ = None

    def __init__(self, blocks: List[List[PointCode]], dense: DenseSequence,
                 records: Optional[List[tuple]] = None,
                 truncations: Optional[List[str]] = None):
        self.blocks = blocks
        self.dense = dense
        self.records = [] if records is None else records
        self.truncations = [] if truncations is None else truncations

    @property
    def log(self) -> List[str]:
        """The build log, one line per stage seed and per pick or drop.

        The build keeps small records, (i, seed) and (i, bits, action,
        point, via_m, id), and they are formatted on read, so a caller
        that never reads the log formats no line.
        """
        lines = []
        for r in self.records:
            if len(r) == 2:
                lines.append(f"stage={r[0]} seed={r[1]}")
            else:
                i, bits, action, pt, via_m, x = r
                sigma = "".join(map(str, bits))
                lines.append(f"stage={i} sigma={sigma} {action}={pt} via m={via_m} minidx={x}")
        return lines


def build_dense(families: Sequence[ClosedSet], q_enum: Sequence[PointCode],
                basis: GoodBasis, *, stages: Optional[int] = None,
                m_budget: int = 30) -> StagedDense:
    """Run the staged construction over a caller-fixed enumeration (q_i).

    The family list is finite (I <= MAX_FAMILIES); stage i works with the
    effective sigma width min(i, I) since absent sets act as the whole
    space.  The enumeration is never reordered globally: stages only select
    and order picks, and every q_i enters the sequence at its own stage at
    the latest.

    Each build forms all 2^I sets F_sigma once, before the first stage, by
    intersecting the whole space with the selected sets in index order; a
    stage of width w < I reads sigma padded with zeros.  Points are
    tracked by id, their first index in q_enum, so each point is hashed
    once per build.  One memo serves every a_f_of_g call of the build, so
    each point's basis walk and each (W, F) answer are worked out once;
    each F_sigma keeps its own tables in it.

    Each id's membership in the I families is decided once, as a mask
    whose bit j is set iff the point lies in F_j.  `intersect` is exact,
    so a point lies in F_sigma iff its mask holds `need`, sigma's bits;
    each F_sigma's membership table in the memo is filled from the masks
    before the first stage, and no a_f_of_g call of the build asks
    F.member of a point of G.

    A stage keeps the AND of its G's masks and skips every sigma whose
    `need` it holds: then G lies inside F_sigma, G \\ F is empty and
    A^F(G) is empty, so the step would add no pick, truncation, memo entry
    or log line.  Sigma = 0..0 (need 0, F = X) is always skipped.  A
    stage's fresh points are then ordered by one stable sort on an int
    key, members of the earlier sets first: bit I-1-j of a point's key is
    set when it lies outside F_j, and a stage of width w shifts the key
    right by I - w.  A block of at most one point is not sorted.

    A stage whose seed lies in every set of its width skips every sigma,
    asks nothing and takes no key.  Any other stage is keyed by its seed's
    class, (width, mask, walk): the walk is the tuple of basis indices
    m <= m_budget of the seed's opens, as the a_f_of_g memo keeps it.
    With the class, the stage's first G is fixed (seed aside), and with G
    each a_f_of_g answer, so the stage's steps (bits, action, point,
    via_m, id), its truncations and the ids it adds to G are too.  The
    seed itself is the one exception, as a pick that is already in G is
    skipped.  So a stage that computes stores its steps under its class,
    unless a_f_of_g returned its seed among the picks, and a later stage
    of the class replays them with its own stage index, and its own
    `stage={i}` prefix on each truncation, unless its seed is among the
    stored steps' ids.  Replayed stages make no a_f_of_g call.
    """
    I = len(families)
    if I > MAX_FAMILIES:
        raise ValueError(f"too many closed sets ({I} > {MAX_FAMILIES})")
    if not q_enum:
        raise ValueError("empty enumeration: the builder needs at least one point")
    space = families[0].space if families else q_enum[0].space
    stages = len(q_enum) if stages is None else min(stages, len(q_enum))

    first: Dict[PointCode, int] = {}
    canon = [first.setdefault(q, k) for k, q in enumerate(q_enum)]
    # masks[k]: bit j set iff q_k lies in F_j; outside[k]: bit I-1-j set
    # iff it does not, so the sort key of width w is outside[k] >> (I - w);
    # I <= MAX_FAMILIES = 8, so each fits a byte
    masks = bytearray(len(q_enum))
    outside = bytearray(len(q_enum))
    for k, x in enumerate(canon):
        if x < k:
            masks[k], outside[k] = masks[x], outside[x]
            continue
        for j, F in enumerate(families):
            if F.member(q_enum[k]):
                masks[k] |= 1 << j
            else:
                outside[k] |= 1 << (I - 1 - j)

    memo: dict = {}
    full = whole_space(space)
    f_sigma: Dict[Tuple[int, ...], Tuple[ClosedSet, int]] = {}
    for bits in product((0, 1), repeat=I):
        F, need = full, 0
        for j, b in enumerate(bits):
            if b:
                F = F.intersect(families[j])
                need |= 1 << j
        f_sigma[bits] = F, need
        if need:  # sigma = 0..0 is always skipped, so X needs no tables
            # a_f_of_g's membership table: 2 inside F, 1 outside
            memo[F] = (bytearray(masks.translate(
                bytes(1 + (m & need == need) for m in range(256)))), {})
    # the (sigma, F_sigma, need) a stage of width w walks, in lex order
    sigmas = [[(bits, *f_sigma[bits + (0,) * (I - w)]) for bits in product((0, 1), repeat=w)]
              for w in range(I + 1)]

    id_blocks: List[List[int]] = []
    placed = set()
    records: List[tuple] = []
    truncations: List[str] = []

    # (width, seed mask, seed walk) -> (steps, truncations, G past the seed,
    # ids of the steps) of the first stage of that class that was stored
    stage_memo: Dict[tuple, tuple] = {}

    for i in range(stages):
        seed = canon[i]
        width = min(i, I)
        G = [seed]
        records.append((i, q_enum[i]))
        every = (1 << width) - 1
        if masks[seed] & every != every:  # else G lies inside each F_sigma
            key = (width, masks[seed], _walk(memo, seed, basis, q_enum, m_budget))
            stored = stage_memo.get(key)
            if stored is not None and seed not in stored[3]:
                steps, trunc, picked, _ = stored
                G += picked
            else:
                steps, trunc = [], []
                g_members = {seed}
                inside_all = masks[seed]
                seed_picked = False
                for bits, F, need in sigmas[width]:
                    if inside_all & need == need:  # G lies inside F
                        continue
                    picks, found = a_f_of_g(F, G, basis, q_enum, m_budget, memo)
                    trunc += found
                    for x, via_m in picks:
                        if x in g_members:
                            seed_picked |= x == seed
                            continue
                        if len(G) >= G_CAP:
                            trunc.append("g_cap reached; pick dropped")
                            action = "drop"
                        else:
                            G.append(x)
                            g_members.add(x)
                            inside_all &= masks[x]
                            action = "pick"
                        steps.append((bits, action, q_enum[x], via_m, x))
                if not seed_picked:
                    stage_memo[key] = steps, trunc, G[1:], {s[4] for s in steps}
            records += [(i, *s) for s in steps]
            truncations += [f"stage={i} {t}" for t in trunc]
        # lex largest sigma class first; the stable sort keeps first-appearance
        # order inside a class
        block = [x for x in G if x not in placed]
        if len(block) > 1:
            shift = I - width
            block.sort(key=lambda x: outside[x] >> shift)
        placed.update(block)
        id_blocks.append(block)

    blocks = [[q_enum[x] for x in block] for block in id_blocks]
    flat = [pt for block in blocks for pt in block]
    return StagedDense(blocks, DenseSequence(flat), records, truncations)


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------


def approximates_check(dense: DenseSequence, F: ClosedSet,
                       xs: Sequence[PointCode], N: int, basis: GoodBasis,
                       window: int = 32) -> dict:
    """Count path terms outside F for x in F\\D.

    Verdict per point is "finitely many so far" iff the tail window
    [N-window, N] (within the computed steps) is free of violations.
    """
    per_point = []
    for x in xs:
        if not F.member(x):
            raise ValueError(f"{x} is not in F")
        if dense.contains(x):
            raise ValueError(f"{x} is in D")
        trace = path_trace(x, dense, basis, N)
        violations = [(s.step, str(s.point)) for s in trace.steps
                      if not F.member(s.point)]
        tail_start = max(0, len(trace.steps) - window)
        tail_bad = [v for v in violations if v[0] >= tail_start]
        per_point.append({
            "x": str(x),
            "computed_steps": len(trace.steps),
            "terminated": trace.terminated,
            "violations": violations,
            "tail_window_start": tail_start,
            "verdict": "finitely many so far" if not tail_bad else "violations in tail",
        })
    clean = sum(1 for r in per_point if r["verdict"] == "finitely many so far")
    return {"set": str(F), "points": per_point,
            "clean": clean, "total": len(per_point)}
