"""Explicit examples: word predicates, the prime encoding of finite words,
the induced dense sequence of Cantor space, two two-parameter function
families, the product sets with clopen sections, and the ultrametric space
whose closed set defeats first-return recovery.

The encoding phi maps a finite binary word s to the product of the first
|s| primes with exponents s(i)+1 (phi of the empty word is 0); it is
injective, and strict extension strictly increases phi.  Enumerating the
words that end in 1 (plus the empty word) by increasing phi value gives a
bijection psi with psi^{-1} monotone under strict extension, and the dense
sequence x_{2n} = psi(n).1^inf, x_{2n+1} = psi(n).0^inf.  The table built
here is provably an exact initial segment of that infinite enumeration:
all candidate words up to a length cap are generated and everything at or
beyond the phi value of the smallest excluded word is cut off.

The infinite sequence itself (`Prop25Sequence`) needs no table to find a
term.  A path step asks for the first x_p extending a word u, and x_p =
s.c^inf extends u iff s extends u, or s is a prefix of u and the rest of u
is all c.  Since phi grows strictly under extension, only three S-words
can be least:

* u with its trailing 0s stripped, with a 0-cycle (the only S-word s with
  u = s.0^k, and a prefix of every S-word extending u);
* the shortest S-prefix of u whose remainder is all 1s, if any, with a
  1-cycle;
* u itself if u is in S, otherwise u.1, with a 1-cycle (every longer
  S-word u.w has phi(u.w) > phi(u.1), since q_{|u|+1} > q_{|u|}).

Every candidate is a prefix of u.1, so the shortest one has the least phi
value; on a tie (the same word) the 1-cycle term, of even index, comes
first.  The term is thus exact without computing phi.  Only its index
needs the enumeration: it is 2 psi^{-1}(s) + [c = 0] when s is in the
table, and otherwise a `PastTableIndex` marker.  Counting the S-words
below phi(s) instead would cost seconds by index 10^6, and a path's
indices grow 4-7 fold per step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Dict, List, Optional, Sequence, Tuple

from .dense_builder import ClosedSet
from .path import DenseSequence, PastTableIndex, route_trace, path_trace
from .recover import DISCRETE, RATIONAL, FunctionOracle, recover_at
from .space import (
    CANTOR,
    Z,
    Dist,
    PointCode,
    WordPoint,
    ZPoint,
    cantor_point,
    dist,
    eq,
    good_basis,
)

# ---------------------------------------------------------------------------
# Word predicates
# ---------------------------------------------------------------------------


def in_S(word: Sequence[int]) -> bool:
    """S: the empty word together with the words ending in 1."""
    word = tuple(word)
    return word == () or word[-1] == 1


def is_P_inf(p: WordPoint) -> bool:
    """Infinitely many 1s (decidable on the cycle)."""
    return 1 in p.cycle


def is_P_f(p: WordPoint) -> bool:
    return not is_P_inf(p)


def in_G(p: WordPoint) -> bool:
    """Adjacent 1-pairs occur cofinally (cycle contains 11, wrapping)."""
    doubled = p.cycle + p.cycle
    return any(doubled[i] == 1 and doubled[i + 1] == 1 for i in range(len(p.cycle)))


def pf_decomposition(p: WordPoint) -> Tuple[int, ...]:
    """The unique s in S with p = s.0^inf (requires p in P_f)."""
    if not is_P_f(p):
        raise ValueError(f"{p} has infinitely many 1s")
    # canonical form of an eventually-0 point has cycle (0,) and a head
    # that is empty or ends in 1
    return p.head


# ---------------------------------------------------------------------------
# Prime encoding and the psi table
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def primes(count: int) -> Tuple[int, ...]:
    """The first `count` primes; cached, since phi_encode asks per word."""
    out, n = [], 2
    while len(out) < count:
        if all(n % p for p in out if p * p <= n):
            out.append(n)
        n += 1
    return tuple(out)


def phi_encode(word: Sequence[int]) -> int:
    """0 for the empty word, else the product of q_i^(s(i)+1) over i < |s|."""
    word = tuple(word)
    if not word:
        return 0
    qs = primes(len(word))
    value = 1
    for i, s in enumerate(word):
        value *= qs[i] ** (s + 1)
    return value


class PsiBudgetExceeded(LookupError):
    pass


class PsiTable:
    """phi-sorted initial segment of the S-word enumeration.

    Generates every S-word of length <= max_len and keeps those with phi
    below the phi value of the smallest excluded word (the all-zero word of
    length max_len + 1); the kept, sorted list is then exactly the first
    `size` entries of the infinite enumeration.
    """

    def __init__(self, max_len: int = 14):
        self.max_len = max_len
        cutoff = phi_encode((0,) * max_len + (1,))
        entries = [(0, ())]
        for length in range(1, max_len + 1):
            for bits in iter_product((0, 1), repeat=length - 1):
                word = bits + (1,)
                value = phi_encode(word)
                if value < cutoff:
                    entries.append((value, word))
        entries.sort()
        self.cutoff = cutoff
        self.words: List[Tuple[int, ...]] = [w for _, w in entries]
        self.phis: List[int] = [v for v, _ in entries]
        self.index: Dict[Tuple[int, ...], int] = {w: n for n, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def psi(self, n: int) -> Tuple[int, ...]:
        if n >= len(self.words):
            raise PsiBudgetExceeded(f"psi({n}) beyond materialized table "
                                    f"(size {len(self.words)})")
        return self.words[n]

    def psi_inv(self, word: Sequence[int]) -> int:
        word = tuple(word)
        if not in_S(word):
            raise ValueError(f"{word} is not in S")
        if word not in self.index:
            raise PsiBudgetExceeded(f"psi_inv({word}) beyond materialized table")
        return self.index[word]


_DEFAULT_TABLE: Optional[PsiTable] = None


def default_table() -> PsiTable:
    global _DEFAULT_TABLE
    if _DEFAULT_TABLE is None:
        _DEFAULT_TABLE = PsiTable()
    return _DEFAULT_TABLE


def x_seq_point(p: int, table: Optional[PsiTable] = None) -> WordPoint:
    """x_{2n} = psi(n).1^inf, x_{2n+1} = psi(n).0^inf (duplicates permitted)."""
    table = table or default_table()
    word = table.psi(p // 2)
    return WordPoint(CANTOR, word, (1,) if p % 2 == 0 else (0,))


def prop25_dense(table: Optional[PsiTable] = None,
                 limit: Optional[int] = None) -> DenseSequence:
    """The materialized dense sequence (x_p) of Cantor space."""
    table = table or default_table()
    count = 2 * table.size if limit is None else min(limit, 2 * table.size)
    return DenseSequence(CANTOR, [x_seq_point(p, table) for p in range(count)],
                         tag="prop25")


class Prop25Sequence:
    """The whole sequence (x_p), unbounded, for path and route extraction.

    Terms are looked up by the closed form in the module docstring, so a
    trace never runs out of them; indices come from the default psi table,
    and a term past it carries a `PastTableIndex` marker.
    """

    def __init__(self):
        self.table = default_table()

    def __getitem__(self, p: int) -> WordPoint:
        return x_seq_point(p, self.table)

    def _index(self, s: Tuple[int, ...], c: int):
        n = self.table.index.get(s)
        if n is None:
            return PastTableIndex(2 * self.table.size)
        return 2 * n + (c == 0)

    def contains(self, point: PointCode) -> bool:
        """The terms are exactly the eventually constant points."""
        return (isinstance(point, WordPoint) and point.space == CANTOR
                and point.cycle in ((0,), (1,)))

    def first_index_of(self, point: PointCode):
        if not self.contains(point):
            return None
        if point.cycle == (0,):
            return self._index(point.head, 0)  # canonical head is in S
        # canonical head of h.1^inf is empty or ends in 0
        return self._index(point.head + (1,) if point.head else (), 1)

    def first_extending(self, word: Sequence[int]):
        """(p, x_p) for the minimal p with word a prefix of x_p."""
        u = tuple(word)
        k = len(u)
        while k and u[k - 1] == 0:
            k -= 1
        j = len(u)
        while j and u[j - 1] == 1:
            j -= 1
        # u[:k] is u without its trailing 0s; u[j:] is its maximal suffix of 1s
        if j == 0:
            s1 = ()
        elif j < len(u):
            s1 = u[:j + 1]
        else:
            s1 = u + (1,)
        s, c = (s1, 1) if len(s1) <= k else (u[:k], 0)
        return self._index(s, c), WordPoint(CANTOR, s, (c,))


# ---------------------------------------------------------------------------
# The function families
# ---------------------------------------------------------------------------


def _complement_pieces(avoid: ClosedSet, depth: int) -> List[ClosedSet]:
    """Clopen pieces exhausting the complement of a closed set, to a depth.

    Every emitted cylinder genuinely misses the set (exact tree oracle);
    regions still meeting it at the depth cap are left uncovered, so the
    piece list is sound but only budget-complete.
    """
    pieces = []

    def rec(word):
        if not avoid.hits(word):
            pieces.append(ClosedSet(CANTOR, cylinders=(word,),
                                    name=f"N({''.join(map(str, word))})"))
            return
        if len(word) >= depth:
            return
        for a in (0, 1):
            rec(word + (a,))

    rec(())
    return pieces


def _singleton(pt: WordPoint) -> ClosedSet:
    return ClosedSet(CANTOR, singletons=(pt,), name=f"{{{pt}}}")


def I16(alpha: WordPoint, decomp_depth: int = 8) -> FunctionOracle:
    """Indicator beta -> 1 iff beta = s.0^inf for some s in S below alpha.

    The 1-set is {0^inf} plus the points alpha|(n+1).0^inf at the 1s of
    alpha; its only accumulation point is alpha itself, which carries value
    0 exactly when alpha has infinitely many 1s.
    """

    def ev(beta: WordPoint) -> int:
        if not is_P_f(beta):
            return 0
        return 1 if alpha.starts_with(pf_decomposition(beta)) else 0

    ones = [WordPoint(CANTOR, (), (0,))]
    n = 0
    while len(ones) < decomp_depth and n < 64:
        if alpha.at(n) == 1:
            ones.append(WordPoint(CANTOR, alpha.prefix(n + 1), (0,)))
        n += 1
    avoid = ClosedSet(CANTOR, singletons=tuple(ones) + (alpha,))
    zero_pieces = _complement_pieces(avoid, decomp_depth)
    if not is_P_f(alpha):
        zero_pieces = zero_pieces + [_singleton(alpha)]
    decomposition = {1: [_singleton(pt) for pt in ones], 0: zero_pieces}
    return FunctionOracle(f"I16({alpha})", ev, DISCRETE, "baire-one", decomposition)


def I25(alpha: WordPoint, decomp_depth: int = 8) -> FunctionOracle:
    """0 iff beta = s.0^inf with s in S and s.1 an initial segment of alpha."""

    def ev(beta: WordPoint) -> int:
        if not is_P_f(beta):
            return 1
        s = pf_decomposition(beta)
        return 0 if alpha.starts_with(s + (1,)) else 1

    zeros = []
    n = 0
    while len(zeros) < decomp_depth and n < 64:
        s = alpha.prefix(n)
        if in_S(s) and alpha.at(n) == 1:
            zeros.append(WordPoint(CANTOR, s, (0,)))
        n += 1
    avoid = ClosedSet(CANTOR, singletons=tuple(zeros) + (alpha,))
    decomposition = {
        0: [_singleton(pt) for pt in zeros],
        1: _complement_pieces(avoid, decomp_depth) + [_singleton(alpha)],
    }
    return FunctionOracle(f"I25({alpha})", ev, DISCRETE, "baire-one", decomposition)


def indicator_of(closed: ClosedSet, fid: Optional[str] = None,
                 complement_depth: int = 8) -> FunctionOracle:
    """Indicator of an exact closed set, with a declared decomposition."""
    tag = "continuous" if not closed.singletons else "baire-one"
    decomposition = {
        1: [closed],
        0: _complement_pieces(closed, complement_depth),
    }
    return FunctionOracle(fid or f"1_{closed}", lambda p: 1 if closed.member(p) else 0,
                          DISCRETE, tag, decomposition)


def first_one_scale(decomp_depth: int = 8) -> FunctionOracle:
    """beta -> 2^-(first index of a 1), 0 for the zero point; continuous."""

    def ev(beta: WordPoint):
        n = 0
        while n <= len(beta.head) + len(beta.cycle):
            if beta.at(n) == 1:
                return Fraction(1, 2 ** n)
            n += 1
        return Fraction(0)

    decomposition = {Fraction(0): [ClosedSet(CANTOR,
                                             singletons=(WordPoint(CANTOR, (), (0,)),),
                                             name="{0^inf}")]}
    for n in range(decomp_depth):
        piece = ClosedSet(CANTOR, cylinders=((0,) * n + (1,),),
                          name=f"N(0^{n}1)")
        decomposition[Fraction(1, 2 ** n)] = [piece]
    return FunctionOracle("first-one-scale", ev, RATIONAL, "continuous",
                          decomposition)


# ---------------------------------------------------------------------------
# Product sets E (membership and finite-horizon section checks)
# ---------------------------------------------------------------------------


def E24_member(beta: WordPoint, alpha: WordPoint) -> bool:
    """(P_inf x 2^w) union over s in S of {s.0^inf} x (comp(N_s) union N_{s0})."""
    if is_P_inf(beta):
        return True
    s = pf_decomposition(beta)
    return (not alpha.starts_with(s)) or alpha.starts_with(s + (0,))


def psi27(p: int, table: Optional[PsiTable] = None) -> WordPoint:
    """The fixed bijection omega -> P_f: psi27(p) = psi(p).0^inf."""
    table = table or default_table()
    return WordPoint(CANTOR, table.psi(p), (0,))


def E27_member(beta: WordPoint, alpha: WordPoint,
               table: Optional[PsiTable] = None) -> bool:
    """(2^w x {0^inf}) union over p of (2^w minus {psi27(p)}) x N_{0^p 1}."""
    zero = WordPoint(CANTOR, (), (0,))
    if alpha == zero:
        return True
    p = 0
    while alpha.at(p) == 0:
        p += 1
    return beta != psi27(p, table)


def e24_section_size(alpha: WordPoint, depth: int = 64) -> int:
    """|{beta : (beta, alpha) not in E24}| scanned to a prefix depth; the
    section is finite iff alpha is outside G."""
    count = 0
    for n in range(depth):
        s = alpha.prefix(n)
        if in_S(s) and alpha.at(n) == 1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# The ultrametric space Z: closed set F, non-discreteness, the demo
# ---------------------------------------------------------------------------


def z_F_member(q: ZPoint) -> bool:
    """F = {Q in Z : n < q_n < n+1 for every n}; decided symbolically."""
    for n, v in enumerate(q.prefix):
        if not (n < v < n + 1):
            return False
    # the affine tail satisfies n < a n + b < n+1 for all large n only when
    # a = 1 and 0 < b < 1, and then it does so for every n
    return q.a == 1 and 0 < q.b < 1


def z_F_indicator() -> FunctionOracle:
    return FunctionOracle("1_F(Z)", lambda q: 1 if z_F_member(q) else 0,
                          DISCRETE, "baire-one")


def prop12_point(n: int) -> ZPoint:
    """The indicator step sequence whose successive distances are
    2^(-1 + 2^(-n-1)), strictly decreasing with infimum 1/2."""
    return ZPoint((Fraction(0), 1 - Fraction(1, 2 ** (n + 1))), Fraction(1), Fraction(0))


def prop12_distance(n: int) -> Dist:
    return dist(prop12_point(n), prop12_point(n + 1))


def prop12_expected(n: int) -> Dist:
    return Dist.pow2(1 - Fraction(1, 2 ** (n + 1)))


# -- the fixed dense sequence and the witness search ------------------------


def thm13_target(offset: Fraction = Fraction(1, 97)) -> ZPoint:
    """Proof-shaped plateau point (n + 1 - eps_n form): q_n = n + 1/2 + offset
    from index 2 on."""
    if not 0 < offset < Fraction(1, 4):
        raise ValueError("offset must be in (0, 1/4)")
    return ZPoint((Fraction(1, 2), Fraction(3, 2)), Fraction(1),
                  Fraction(1, 2) + offset)


def thm13_dense(ladder: int = 360, approach_depth: int = 60,
                offset: Fraction = Fraction(1, 97)) -> DenseSequence:
    """The repo's fixed dense sequence over Z.

    Layout: an alternating in-F/out-of-F ladder at strictly decreasing
    distances from the target (distance exponents increase through (2, 5/2),
    realizable inside and outside F at the same exponent), then an approach
    tail converging to the target with alternating membership, then a
    generic filler grid for density at the probed scales.
    """
    target = thm13_target(offset)
    pts: List[ZPoint] = []
    half = Fraction(1, 2)
    for k in range(ladder):
        v = 2 + Fraction(k + 1, 2 * (ladder + 1))
        if k % 2 == 0:
            pts.append(ZPoint((half, 3 * half, v), 1, half))  # inside F
        else:
            pts.append(ZPoint((half, 3 * half, v), 1, 4))  # outside F
    for m in range(3, approach_depth + 1):
        prefix = tuple(target.entry(n) for n in range(m))
        if m % 2 == 0:
            pts.append(ZPoint(prefix, 1, half + offset + Fraction(1, 4)))
        else:
            pts.append(ZPoint(prefix, 1, 5))
    # density filler: coarse grid plus approximators for the declared probes
    for b in (Fraction(1, 4), half, Fraction(3, 4), Fraction(1), Fraction(2)):
        pts.append(ZPoint((), 1, b))
    for first in (Fraction(1, 8), Fraction(1), Fraction(5, 2)):
        pts.append(ZPoint((first,), 1, 3))
    for probe in _density_probes(offset):
        prefix = tuple(probe.entry(n) for n in range(6))
        pts.append(ZPoint(prefix, 1, probe.entry(6) - 6 + Fraction(1, 3)))
    return DenseSequence(Z, pts, tag="handwritten")


def _density_probes(offset: Fraction) -> List[ZPoint]:
    return [
        thm13_target(offset),
        ZPoint((), 1, Fraction(3, 4)),
        ZPoint((Fraction(1, 3),), 1, Fraction(7, 8)),
    ]


def density_report(dense: DenseSequence, probes: Sequence[ZPoint],
                   scales: Sequence[int]) -> List[dict]:
    """Probe-verified density: per (probe, r), the first index within 2^-r."""
    out = []
    for probe in probes:
        for r in scales:
            found = None
            radius = Dist.pow2(r)
            for p, pt in enumerate(dense.points):
                if dist(probe, pt) < radius:
                    found = p
                    break
            out.append({"probe": str(probe), "scale": r, "index": found})
    return out


@dataclass
class Thm13Report:
    found: bool
    witness: Optional[str]
    flips_after: int
    total_flips: int
    horizon: int
    after_step: int
    candidates: List[dict] = field(default_factory=list)
    density: List[dict] = field(default_factory=list)
    positive_control: Optional[dict] = None
    note: str = ("empirical demonstration for one fixed dense sequence; "
                 "the flip counts are observed values, not a proof")


def _flips_after(values: Sequence[int], step: int) -> int:
    return sum(1 for n in range(step, len(values) - 1) if values[n + 1] != values[n])


def thm13_demo(dense: Optional[DenseSequence] = None, horizon: int = 400,
               after_step: int = 50, flip_threshold: int = 5,
               offset: Fraction = Fraction(1, 97),
               extra_candidates: Sequence[ZPoint] = ()) -> Thm13Report:
    """Search proof-shaped candidates for a route trace of 1_F that keeps
    flipping; returns the best witness found (or an honest failure report)."""
    dense = dense or thm13_dense(offset=offset)
    f = z_F_indicator()
    candidates = [
        thm13_target(offset),
        thm13_target(Fraction(1, 89)),
        ZPoint((Fraction(1, 2), Fraction(3, 2), Fraction(9, 4)), 1, 4),
        ZPoint((), 1, 10),
        dense[0],  # excluded: member of D
    ] + list(extra_candidates)
    report = Thm13Report(False, None, 0, 0, horizon, after_step)
    best = None
    for cand in candidates:
        if dense.contains(cand):
            report.candidates.append({"x": str(cand), "skipped": "x in D"})
            continue
        trace = route_trace(cand, dense, horizon)
        values = trace.values_under(f)
        fa = _flips_after(values, after_step)
        entry = {"x": str(cand), "steps": len(trace.steps),
                 "terminated": trace.terminated,
                 "flips_after": fa, "total_flips": _flips_after(values, 0),
                 "in_F": z_F_member(cand)}
        report.candidates.append(entry)
        if best is None or fa > best[0]:
            best = (fa, cand, values)
    if best and best[0] >= flip_threshold:
        report.found = True
        report.witness = str(best[1])
        report.flips_after = best[0]
        report.total_flips = _flips_after(best[2], 0)
    report.density = density_report(dense, _density_probes(offset), (1, 2, 3))
    report.positive_control = _cantor_positive_control()
    return report


def _cantor_positive_control() -> dict:
    """Contrast case: path-mode recovery on Cantor space converges."""
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    dense = prop25_dense()
    basis = good_basis(CANTOR)
    x = WordPoint(CANTOR, (1,), (0, 1))
    res = recover_at(f, x, dense, "path", 40, basis, window=8)
    return {"x": str(x), "fid": f.fid, "verdict": str(res.verdict),
            "correct": res.correct}
