"""Definitions that only tests read: checks of the package against the
definitions of the paper, kept out of `src/` because no library code uses
them."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Sequence, Tuple

from firstreturn.dense_builder import ClosedSet
from firstreturn.rank import FiniteAlgebra, NotDisjoint, RankChain
from firstreturn.recover import FunctionOracle, y_distance
from firstreturn.space import BasicOpen, Dist, GoodBasis, PointCode, ZPoint, dist


def opens_through(basis: GoodBasis, x: PointCode,
                  top: Optional[int] = None) -> Iterator[Tuple[int, BasicOpen]]:
    """(m, W_m) for every basic open through x, ascending m, up to top when
    it is given: the basis's index walk with each open built by `at(m)`."""
    return ((m, basis.at(m)) for m in basis.indices_through(x, top))


@dataclass(frozen=True)
class ZBall:
    """Open ball of radius 2^(-radius_exp) around a Z point, by the metric
    itself.  Z has no good basis, so no library code builds one."""

    center: ZPoint
    radius_exp: Fraction

    def member(self, p: ZPoint) -> bool:
        return dist(p, self.center) < Dist.pow2(self.radius_exp)


def tree_consistency_violations(closed: ClosedSet, depth: int) -> List[str]:
    """Pruned-tree check of a word-space closed set to a depth: a word hits
    iff some child hits.  Children run over 0, 1 and up to the set's
    largest symbol; a larger one hits only inside a cylinder of the set,
    where all children hit."""
    symbols = [s for w in closed.cylinders for s in w]
    symbols += [s for p in closed.singletons for s in p.head + p.cycle]
    problems, alphabet = [], range(max((1, *symbols)) + 1)

    def rec(word):
        if len(word) >= depth:
            return
        h = closed.hits(word)
        child = any(closed.hits(word + (a,)) for a in alphabet)
        if h != child:
            problems.append(f"inconsistent at {word}")
        for a in alphabet:
            rec(word + (a,))

    rec(())
    return problems


def piece_image_diameter(f: FunctionOracle, piece: ClosedSet,
                         probes: Sequence[PointCode]) -> Optional[Fraction]:
    """Probe-grid estimate of diam(f[piece]); None if no probe lands in it."""
    values = [f(p) for p in probes if piece.member(p)]
    if not values:
        return None
    worst = Fraction(0)
    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            worst = max(worst, y_distance(f.y_kind, values[i], values[j]))
    return worst


def gauge_by_prefix_walk(pieces: Sequence[ClosedSet], x: PointCode) -> Tuple[int, Dist]:
    """The EBC1 gauge (m, delta) at a word point, by its definition: m is the
    first piece whose `member` holds, and delta is 2^-n for the largest n at
    which some earlier piece still `hits` x|n, found by walking the prefixes
    up from n = 0; infinite when no earlier piece hits the empty prefix, as
    when m = 0.  It reads no `dist`.  x lies off every earlier closed piece,
    so the walk ends; the bound turns a faulty `member` or `hits` into an
    error in place of a hang."""
    m = next(i for i, piece in enumerate(pieces) if piece.member(x))
    earlier = pieces[:m]
    n = next(n for n in range(4096) if not any(piece.hits(x.prefix(n)) for piece in earlier))
    return m, Dist.infinity() if n == 0 else Dist.pow2(n - 1)


def atom_word(algebra: FiniteAlgebra, i: int) -> Tuple[int, ...]:
    """The word of atom i, atoms in lexicographic word order."""
    return tuple((i >> (algebra.n - 1 - j)) & 1 for j in range(algebra.n))


def _supersets(g: int, full: int):
    free = full & ~g
    s = free
    while s:
        yield g | s
        s = (s - 1) & free


def chains(algebra: FiniteAlgebra, A: int, B: int, top: int) -> Iterator[RankChain]:
    """Every valid, strictly increasing chain 0 = G_0 < ... < G_top = X for
    (A, B), top >= 1, depth first, each step's supersets in `_supersets`
    order.  It shares no reasoning with `rank_LAB`'s closed form, which the
    tests compare against it."""
    full = algebra.full

    def extend(prefix: List[int], steps_left: int) -> Iterator[RankChain]:
        g = prefix[-1]
        if steps_left == 1:  # the last step goes to X
            diff = full & ~g
            if diff and not (diff & A and diff & B):
                yield RankChain(algebra, tuple(prefix) + (full,), A, B)
            return
        for succ in _supersets(g, full):
            diff = succ & ~g
            if not (diff & A and diff & B):
                yield from extend(prefix + [succ], steps_left - 1)

    return extend([0], top)


def brute_force_min_chain(algebra: FiniteAlgebra, A: int, B: int) -> Tuple[int, RankChain]:
    """Independent oracle: iterative deepening over strictly increasing chains."""
    if A & B:
        raise NotDisjoint("not disjoint")
    for beta in range(1, algebra.atom_count + 2):
        found = next(chains(algebra, A, B, beta), None)
        if found is not None:
            return beta, found
    raise RuntimeError("no chain found below the cap")


def all_min_chains(algebra: FiniteAlgebra, A: int, B: int) -> List[RankChain]:
    """Every chain of minimal length (small depths only)."""
    beta, _ = brute_force_min_chain(algebra, A, B)
    return list(chains(algebra, A, B, beta))
