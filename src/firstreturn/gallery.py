"""Explicit examples: word predicates, the prime encoding of finite words,
the induced dense sequence of Cantor space, two two-parameter function
families, the product sets with clopen sections, and the ultrametric space
whose closed set defeats first-return recovery.  The two families, I16 and
I25, share one construction, `_s_word_indicator`, with one decomposition
rule and one depth contract.

The encoding phi maps a finite binary word s to the product of the first
|s| primes with exponents s(i)+1 (phi of the empty word is 0); it is
injective, and strict extension strictly increases phi.  Enumerating the
words that end in 1 (plus the empty word) by increasing phi value gives a
bijection psi with psi^{-1} monotone under strict extension, and the dense
sequence x_{2n} = psi(n).1^inf, x_{2n+1} = psi(n).0^inf.  The table built
here is provably an exact initial segment of that infinite enumeration:
it holds every S-word whose phi value lies below that of the smallest
excluded word.

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
first.  So the last symbol of u decides: if it is 0, no S-prefix has an
all-1 remainder and u.1 is longer, so the first candidate is least;
otherwise u is in S, and the second candidate (the empty word when u has
no 0) is no longer than u.  The term is thus exact without computing phi.
Only its index needs the enumeration: it is 2 psi^{-1}(s) + [c = 0] when
s is in the table, and otherwise a `PastTableIndex` marker.  Counting the
S-words below phi(s) instead would cost seconds by index 10^6, and a
path's indices grow 4-7 fold per step.

The table is an exact initial segment of the enumeration, so the same
lookup also answers for the finite list of the 2 * size terms it counts:
the least index is the list's answer when s is in the table, and
otherwise no listed term extends u.  `prop25_dense()` is that bounded view;
it never materializes the list.  In either mode a term in the table is
built once, when first read, and kept in a memo by index, since building
the `WordPoint` costs more than the lookup itself.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .path import (DenseSequence, PastTableIndex, SearchBudgetExceeded, route_step,
                   route_trace)
from .recover import DISCRETE, RATIONAL, FunctionOracle, _flips_in, recover_at
from .space import (
    CANTOR,
    UNIT,
    Z,
    ClosedSet,
    Cylinder,
    Dist,
    PointCode,
    WordPoint,
    ZPoint,
    dist,
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
    return tuple(p.head)


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


# length of the longest S-word the psi table holds
PSI_MAX_LEN = 14


class PsiTable:
    """phi-sorted initial segment of the S-word enumeration.

    Holds every S-word of length <= PSI_MAX_LEN with phi below the phi value
    of the smallest excluded word (the all-zero word of length PSI_MAX_LEN
    followed by 1), grown depth first: phi grows under extension, so a prefix
    whose phi reaches that cutoff is pruned.  The sorted list is exactly the
    first `size` entries of the infinite enumeration.
    """

    def __init__(self):
        qs = primes(PSI_MAX_LEN)
        cutoff = phi_encode((0,) * PSI_MAX_LEN + (1,))
        entries = [(0, ())]

        def grow(word, value):
            q = qs[len(word)]
            for bit in (0, 1):
                longer, v = word + (bit,), value * q ** (bit + 1)
                if v >= cutoff:
                    return  # bit 1 multiplies by more than bit 0
                if bit:
                    entries.append((v, longer))
                if len(longer) < PSI_MAX_LEN:
                    grow(longer, v)

        grow((), 1)  # the product over no primes; phi(()) = 0 is listed above
        entries.sort()
        self.words: List[Tuple[int, ...]] = [w for _, w in entries]
        self.index: Dict[bytes, int] = {bytes(w): n for n, w in enumerate(self.words)}

    @property
    def size(self) -> int:
        return len(self.words)

    def psi(self, n: int) -> Tuple[int, ...]:
        if n < 0:
            raise IndexError(f"psi({n}): the enumeration starts at psi(0)")
        if n >= len(self.words):
            raise PsiBudgetExceeded(f"psi({n}) beyond materialized table "
                                    f"(size {len(self.words)})")
        return self.words[n]

    def psi_inv(self, word: Sequence[int]) -> int:
        if not in_S(word):
            raise ValueError(f"{word} is not in S")
        try:
            return self.index[bytes(word)]
        except (KeyError, ValueError):  # past the table, or a symbol no byte holds
            raise PsiBudgetExceeded(f"psi_inv({word}) beyond materialized table") from None


@lru_cache(maxsize=None)
def default_table() -> PsiTable:
    return PsiTable()


def x_seq_point(p: int) -> WordPoint:
    """x_{2n} = psi(n).1^inf, x_{2n+1} = psi(n).0^inf (duplicates permitted)."""
    word = default_table().psi(p // 2)
    return WordPoint(CANTOR, word, (1,) if p % 2 == 0 else (0,))


def prop25_dense() -> Prop25Sequence:
    """The dense sequence (x_p) of Cantor space, cut at the 2 * size terms
    the default psi table counts (5,864): a bounded `Prop25Sequence`.

    It answers every lookup exactly as the materialized list of those terms
    would, by the closed form, so no term, first-index table or word trie is
    built up front; a term is built when first read and kept in the view's
    memo.
    """
    return Prop25Sequence(bounded=True)


class Prop25Sequence:
    """The sequence (x_p) as a dense source (the contract is in the module
    docstring of `path`), looked up by the closed form in the module
    docstring.

    Unbounded is the default.  Bounded, it is the view of the first
    2 * size terms, the ones the default psi table counts, and answers
    exactly as their list would.  The least index in the whole sequence is
    the answer when it lies in the table; a term past the table is a miss
    of the view and a `PastTableIndex` marker of the unbounded sequence.

    Terms in the table are built on first use and memoized by index, in
    either mode; the memo holds at most 2 * size terms, and terms past the
    table are never kept.
    """

    space = CANTOR

    def __init__(self, bounded: bool = False):
        self.table = default_table()
        self._size = 2 * self.table.size  # the terms the table counts
        self.budget = self._size if bounded else None
        self._past = None if bounded else PastTableIndex(self._size)
        self._terms: Dict[int, WordPoint] = {}

    def __len__(self):
        if self.budget is None:
            raise TypeError("the unbounded Prop-25 sequence has no length")
        return self.budget

    def _term(self, p: int) -> WordPoint:
        pt = self._terms.get(p)
        if pt is None:
            pt = self._terms[p] = x_seq_point(p)
        return pt

    def __getitem__(self, p: int) -> WordPoint:
        if 0 <= p < self._size:
            return self._term(p)
        if p < 0:
            raise IndexError(f"x_{p}: the sequence starts at x_0")
        if self.budget is not None:
            raise IndexError(f"x_{p} is past the {self._size} terms of the view")
        return x_seq_point(p)  # raises PsiBudgetExceeded past the table

    def __iter__(self):
        """The terms whose index the table counts, x_0 .. x_{2 size - 1}."""
        return map(self._term, range(self._size))

    def _index(self, s: bytes, c: int):
        n = self.table.index.get(s)
        if n is None:
            return self._past
        return 2 * n + 1 - c

    def first_index_of(self, point: PointCode):
        """The point's least index, or None when it is no term (of the view)."""
        if not (isinstance(point, WordPoint) and point.space == CANTOR
                and point.cycle in (b"\x00", b"\x01")):
            return None  # the terms are exactly the eventually constant points
        if point.cycle == b"\x00":
            return self._index(point.head, 0)  # canonical head is in S
        # canonical head of h.1^inf is empty or ends in 0
        return self._index(point.head + b"\x01" if point.head else b"", 1)

    def contains(self, point: PointCode) -> bool:
        return self.first_index_of(point) is not None

    @staticmethod
    def _least(word: Sequence[int]) -> Optional[Tuple[bytes, int]]:
        """(s, c) with s.c^inf the least term extending word; None if none does."""
        try:
            u = bytes(word)
        except ValueError:  # a symbol that no byte holds
            return None
        if u.translate(None, b"\x00\x01"):  # a symbol that is no bit
            return None
        if u.endswith(b"\x00"):
            # u without its trailing 0s: the other candidates are longer
            return u[:u.rfind(1) + 1], 0
        # u is in S, so the 1-cycle candidate, u up to its last 0 and one 1
        # (the empty word if u has no 0), is no longer than u
        return (u[:u.rfind(0) + 2] if 0 in u else b""), 1

    def first_index_extending(self, word: Sequence[int]):
        """Minimal p with word a prefix of x_p; past the table, None on a
        bounded view and a `PastTableIndex` marker otherwise."""
        least = self._least(word)
        return None if least is None else self._index(*least)

    def first_extending(self, word: Sequence[int]):
        """(p, x_p) for the minimal p with word a prefix of x_p; raises
        SearchBudgetExceeded where `first_index_extending` answers None."""
        least = self._least(word)
        p = None if least is None else self._index(*least)
        if p is None:
            raise SearchBudgetExceeded(
                f"no point extending prefix of length {len(word)}", budget=self.budget)
        if p is self._past:
            s, c = least
            return p, WordPoint(CANTOR, s, (c,))
        return p, self._term(p)


# ---------------------------------------------------------------------------
# The function families
# ---------------------------------------------------------------------------


def _complement_pieces(avoid: ClosedSet) -> List[ClosedSet]:
    """Clopen pieces exhausting the complement of a closed set, to a depth.

    The pieces are cylinders of the set's own word space, of length at
    most DECOMP_DEPTH and, on Baire space, with symbols below it.  Every
    emitted cylinder genuinely misses the set (exact tree oracle); regions
    still meeting it at the depth cap, and Baire cylinders with a larger
    symbol, are left uncovered, so the piece list is sound but only
    budget-complete, to the depth contract `_s_word_indicator` states.  No
    piece lies inside one of the set's cylinders, so the search does not
    descend into them.
    """
    space, pieces = avoid.space, []
    # words in the space's word type, as the set keeps its cylinder words
    kind = bytes if space == CANTOR else tuple
    letters = [kind((a,)) for a in range(2 if space == CANTOR else DECOMP_DEPTH)]

    def rec(word):
        if not avoid.hits(word):
            pieces.append(ClosedSet(space, cylinders=(word,), name=str(Cylinder(space, word))))
            return
        if len(word) >= DECOMP_DEPTH or any(word[:len(w)] == w for w in avoid.cylinders):
            return
        for a in letters:
            rec(word + a)

    rec(kind())
    return pieces


def _first_one(beta: WordPoint) -> Optional[int]:
    """Index of the first 1 of a Cantor point, None for 0^inf (a 1, if there
    is one, shows within the head and one cycle)."""
    word = beta.prefix(len(beta.head) + len(beta.cycle))
    return word.index(1) if 1 in word else None


def _s_before_one(word: Tuple[int, ...]) -> List[int]:
    """The n, ascending, with word[:n] in S and word[n] = 1."""
    return [n for n, bit in enumerate(word) if bit == 1 and in_S(word[:n])]


def _singleton(pt: WordPoint) -> ClosedSet:
    return ClosedSet(CANTOR, singletons=(pt,), name=f"{{{pt}}}")


# the depth of `_complement_pieces`, and its bound on Baire symbols, so of
# every declared decomposition
DECOMP_DEPTH = 8


def _s_word_indicator(fid: str, alpha: WordPoint, suffix: bytes, inside: int) -> FunctionOracle:
    """`inside` at the points s.0^inf with s in S and s.suffix an initial
    segment of alpha, and 1 - inside elsewhere: I16 (no suffix, inside 1)
    and I25 (suffix 1, inside 0).

    The declared decomposition: the first DECOMP_DEPTH such points, in
    order of |s| and with s.suffix within alpha's first 64 symbols, as
    singletons under `inside`; the `_complement_pieces` of these listed
    points and alpha under 1 - inside; and {alpha} under f(alpha) when
    alpha is not listed.  Its depth contract: every piece holds only points
    of its value, and a point lies in some piece if it is a listed point,
    or alpha, or differs from all of them before symbol DECOMP_DEPTH.  (An
    unlisted point of value `inside` agrees with alpha on DECOMP_DEPTH
    symbols, so no complement piece holds it.)
    """
    outside = 1 - inside

    def ev(beta: WordPoint) -> int:
        if not is_P_f(beta):
            return outside
        # beta.head is pf_decomposition(beta)
        return inside if alpha.starts_with(beta.head + suffix) else outside

    def decompose():
        word, tail = alpha.prefix(64), tuple(suffix)
        listed = [WordPoint(CANTOR, word[:n], (0,)) for n in range(len(word) + 1 - len(tail))
                  if in_S(word[:n]) and word[n:n + len(tail)] == tail][:DECOMP_DEPTH]
        avoid = ClosedSet(CANTOR, singletons=tuple(listed) + (alpha,))
        pieces = {inside: [_singleton(pt) for pt in listed], outside: _complement_pieces(avoid)}
        if alpha not in listed:
            pieces[ev(alpha)].append(_singleton(alpha))
        return pieces

    return FunctionOracle(fid, ev, DISCRETE, decompose, space=CANTOR)


def I16(alpha: WordPoint) -> FunctionOracle:
    """Indicator beta -> 1 iff beta = s.0^inf for some s in S below alpha.

    The 1-set is {0^inf} plus the points alpha|(n+1).0^inf at the 1s of
    alpha; its only accumulation point is alpha itself, which carries value
    0 exactly when alpha has infinitely many 1s.  One construction with
    I25: see `_s_word_indicator`.
    """
    return _s_word_indicator(f"I16({alpha})", alpha, b"", 1)


def I25(alpha: WordPoint) -> FunctionOracle:
    """0 iff beta = s.0^inf with s in S and s.1 an initial segment of alpha.
    One construction with I16: see `_s_word_indicator`."""
    return _s_word_indicator(f"I25({alpha})", alpha, b"\x01", 0)


def indicator_of(closed: ClosedSet, fid: Optional[str] = None) -> FunctionOracle:
    """Indicator of an exact closed set, with a declared decomposition."""

    def decompose():
        return {
            1: [closed],
            0: _complement_pieces(closed),
        }

    return FunctionOracle(fid or f"1_{closed}", lambda p: 1 if closed.member(p) else 0,
                          DISCRETE, decompose, space=closed.space)


def first_one_scale() -> FunctionOracle:
    """beta -> 2^-(first index of a 1), 0 for the zero point; continuous."""

    def ev(beta: WordPoint):
        n = _first_one(beta)
        return Fraction(0) if n is None else Fraction(1, 2 ** n)

    def decompose():
        decomposition = {Fraction(0): [ClosedSet(CANTOR,
                                                 singletons=(WordPoint(CANTOR, (), (0,)),),
                                                 name="{0^inf}")]}
        for n in range(DECOMP_DEPTH):
            piece = ClosedSet(CANTOR, cylinders=((0,) * n + (1,),),
                              name=f"N(0^{n}1)")
            decomposition[Fraction(1, 2 ** n)] = [piece]
        return decomposition

    return FunctionOracle("first-one-scale", ev, RATIONAL, decompose, space=CANTOR)


def ebc1_cover(name: str) -> Tuple[ebc1.ClosedCover, List[FunctionOracle]]:
    """The ordered cover and the family of the CLI's EBC1 check `name`:
    unit-halves, unit-step or cantor-bits."""
    from . import ebc1

    F = Fraction
    if name == "unit-halves":
        pieces = [ClosedSet(UNIT, intervals=((F(0), F(1, 2)),), name="[0,1/2]"),
                  ClosedSet(UNIT, intervals=((F(1, 2), F(1)),), name="[1/2,1]")]
        fam = [FunctionOracle("x/2", lambda p: p.value / 2, RATIONAL, space=UNIT),
               FunctionOracle("1-x/2", lambda p: 1 - p.value / 2, RATIONAL, space=UNIT)]
        return ebc1.ClosedCover(F(1, 3), pieces), fam
    if name == "unit-step":
        pieces = [ClosedSet(UNIT, intervals=((F(1, 2), F(1)),), name="[1/2,1]")]
        for k in range(2, 10):
            pieces.append(ClosedSet(UNIT, intervals=((F(0), F(1, 2) - F(1, 2 ** k)),),
                                    name=f"[0,1/2-2^-{k}]"))
        step = FunctionOracle("step", lambda p: 1 if p.value >= F(1, 2) else 0, DISCRETE,
                              space=UNIT)
        co_step = FunctionOracle("co-step", lambda p: 0 if p.value >= F(1, 2) else 1,
                                 DISCRETE, space=UNIT)
        return ebc1.ClosedCover(F(1, 2), pieces), [step, co_step]
    if name != "cantor-bits":
        raise ValueError(f"unknown cover {name!r}: use unit-halves, unit-step or cantor-bits")
    # the pieces N(0), N(1) of the indicator of N(1)
    one = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"), "1_N(1)")
    cover = ebc1.cover_from_function(one, F(1, 2))
    return cover, [one, indicator_of(cover.pieces[0], "1_N(0)")]


# ---------------------------------------------------------------------------
# Product sets E (membership and finite-horizon section checks)
# ---------------------------------------------------------------------------


def E24_member(beta: WordPoint, alpha: WordPoint) -> bool:
    """(P_inf x 2^w) union over s in S of {s.0^inf} x (comp(N_s) union N_{s0})."""
    if is_P_inf(beta):
        return True
    s = pf_decomposition(beta)
    return (not alpha.starts_with(s)) or alpha.starts_with(s + (0,))


def psi27(p: int) -> WordPoint:
    """The fixed bijection omega -> P_f: psi27(p) = psi(p).0^inf."""
    return WordPoint(CANTOR, default_table().psi(p), (0,))


def E27_member(beta: WordPoint, alpha: WordPoint) -> bool:
    """(2^w x {0^inf}) union over p of (2^w minus {psi27(p)}) x N_{0^p 1}."""
    p = _first_one(alpha)
    return p is None or beta != psi27(p)


def e24_section_size(alpha: WordPoint, depth: int = 64) -> int:
    """|{beta : (beta, alpha) not in E24}| scanned to a prefix depth; the
    section is finite iff alpha is outside G."""
    return len(_s_before_one(alpha.prefix(depth)))


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
    return FunctionOracle("1_F(Z)", lambda q: 1 if z_F_member(q) else 0, DISCRETE,
                          space=Z)


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


# thm13_dense's layout: THM13_LADDER ladder points, then approach points
# that agree with the target on entries 0..m-1 for m = 3..THM13_APPROACH_DEPTH
THM13_LADDER = 360
THM13_APPROACH_DEPTH = 60
# thm13_demo counts a trace's flips from step THM13_AFTER_STEP on, and a
# witness needs at least THM13_FLIP_THRESHOLD of them
THM13_AFTER_STEP = 50
THM13_FLIP_THRESHOLD = 5


def thm13_dense() -> DenseSequence:
    """The repo's fixed dense sequence over Z.

    Layout: an alternating in-F/out-of-F ladder at strictly decreasing
    distances from the target (distance exponents increase through (2, 5/2),
    realizable inside and outside F at the same exponent), then an approach
    tail converging to the target with alternating membership, then a
    generic filler grid for density at the probed scales.
    """
    target = thm13_target()
    pts: List[ZPoint] = []
    half = Fraction(1, 2)
    for k in range(THM13_LADDER):
        v = 2 + Fraction(k + 1, 2 * (THM13_LADDER + 1))
        if k % 2 == 0:
            pts.append(ZPoint((half, 3 * half, v), 1, half))  # inside F
        else:
            pts.append(ZPoint((half, 3 * half, v), 1, 4))  # outside F
    for m in range(3, THM13_APPROACH_DEPTH + 1):
        prefix = tuple(target.entry(n) for n in range(m))
        if m % 2 == 0:
            pts.append(ZPoint(prefix, 1, target.b + Fraction(1, 4)))
        else:
            pts.append(ZPoint(prefix, 1, 5))
    # density filler: coarse grid plus approximators for the declared probes
    for b in (Fraction(1, 4), half, Fraction(3, 4), Fraction(1), Fraction(2)):
        pts.append(ZPoint((), 1, b))
    for first in (Fraction(1, 8), Fraction(1), Fraction(5, 2)):
        pts.append(ZPoint((first,), 1, 3))
    for probe in _density_probes():
        prefix = tuple(probe.entry(n) for n in range(6))
        pts.append(ZPoint(prefix, 1, probe.entry(6) - 6 + Fraction(1, 3)))
    return DenseSequence(pts)


def _density_probes() -> List[ZPoint]:
    return [
        thm13_target(),
        ZPoint((), 1, Fraction(3, 4)),
        ZPoint((Fraction(1, 3),), 1, Fraction(7, 8)),
    ]


def density_report(dense: DenseSequence, probes: Sequence[ZPoint],
                   scales: Sequence[int]) -> List[dict]:
    """Probe-verified density: per (probe, r), the first index within 2^-r."""
    out = []
    for probe in probes:
        for r in scales:
            try:
                found, _ = route_step(probe, dense, Dist.pow2(r))
            except SearchBudgetExceeded:
                found = None
            out.append({"probe": str(probe), "scale": r, "index": found})
    return out


def thm13_demo(horizon: int = 400) -> dict:
    """Search proof-shaped candidates for a route trace of 1_F that keeps
    flipping; returns the summary `gallery demo-z` writes, with the best
    witness found (or an honest failure report)."""
    dense = thm13_dense()
    f = z_F_indicator()
    candidates = [
        thm13_target(),
        thm13_target(Fraction(1, 89)),
        ZPoint((Fraction(1, 2), Fraction(3, 2), Fraction(9, 4)), 1, 4),
        ZPoint((), 1, 10),
        dense[0],  # excluded: member of D
    ]
    report = {"found": False, "witness": None, "flips_after": 0, "total_flips": 0,
              "horizon": horizon, "after_step": THM13_AFTER_STEP, "candidates": []}
    best = None
    for cand in candidates:
        if dense.contains(cand):
            report["candidates"].append({"x": str(cand), "skipped": "x in D"})
            continue
        trace = route_trace(cand, dense, horizon)
        values = trace.values_under(f)
        fa = _flips_in(values[THM13_AFTER_STEP:])
        entry = {"x": str(cand), "steps": len(trace.steps),
                 "terminated": trace.terminated,
                 "flips_after": fa, "total_flips": _flips_in(values),
                 "in_F": z_F_member(cand)}
        report["candidates"].append(entry)
        if best is None or fa > best["flips_after"]:
            best = entry
    if best and best["flips_after"] >= THM13_FLIP_THRESHOLD:
        report.update(found=True, witness=best["x"], flips_after=best["flips_after"],
                      total_flips=best["total_flips"])
    report["density"] = density_report(dense, _density_probes(), (1, 2, 3))
    report["positive_control"] = _cantor_positive_control()
    report["note"] = ("empirical demonstration for one fixed dense sequence; "
                      "the flip counts are observed values, not a proof")
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
