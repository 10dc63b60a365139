"""Definitions that only tests read: checks of the package against the
definitions of the paper, kept out of `src/` because no library code uses
them."""

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence

from firstreturn.dense_builder import ClosedSet
from firstreturn.recover import FunctionOracle, y_distance
from firstreturn.space import Dist, PointCode, ZPoint, dist


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
