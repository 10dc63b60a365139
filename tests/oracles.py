"""Definitions that only tests read: checks of the package against the
definitions of the paper, kept out of `src/` because no library code uses
them."""

from dataclasses import dataclass
from fractions import Fraction

from firstreturn.space import Dist, ZPoint, dist


@dataclass(frozen=True)
class ZBall:
    """Open ball of radius 2^(-radius_exp) around a Z point, by the metric
    itself.  Z has no good basis, so no library code builds one."""

    center: ZPoint
    radius_exp: Fraction

    def member(self, p: ZPoint) -> bool:
        return dist(p, self.center) < Dist.pow2(self.radius_exp)
