"""Equi-Baire-class-one machinery: the delta gauge built from an ordered
closed cover and the oscillation check it controls.

Given an ordered cover (G_0, ..., G_{M-1}) by closed pieces on which every
function of the family has small image diameter, the gauge at x is the
pair (m, delta) of `delta_from_cover`: m = m(x) is the index of the first
piece containing x, and delta = delta(x) the exact distance from x to the
union of the pieces before it (an infinity sentinel when that union is
empty: the gauge must be strictly positive, and the sentinel wins every
min comparison).
Whenever two points are closer than both their gauge values, neither can
lie in the other's earlier union, so their first-cover indices agree and
both sit in the same piece; the family's oscillation between them is then
below epsilon.  The check asserts exactly that implication, pointwise.

Oscillation is measured with the range metric `recover.y_distance`: on a
discrete range any change of value counts 1, on a rational one |v - w|.
The covers and families the CLI runs are built in `gallery.ebc1_cover`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence, Tuple

from . import Record
from .recover import FunctionOracle, y_distance
from .space import ClosedSet, Dist, PointCode, common_space, dist


class CoverViolation(ValueError):
    pass


class ClosedCover(Record):
    """Ordered list of exact closed pieces; order matters for the gauge.
    Its space is its pieces' (SpaceMismatch if they mix spaces)."""

    _fields = ("eps", "pieces")
    __hash__ = None

    def __init__(self, eps: Fraction, pieces: List[ClosedSet]):
        self.eps = eps
        self.pieces = pieces
        self.space = common_space(pieces)

    def uncovered(self, probes: Sequence[PointCode]) -> List[PointCode]:
        return [p for p in probes if not any(g.member(p) for g in self.pieces)]


def delta_from_cover(cover: ClosedCover, x: PointCode) -> Tuple[int, Dist]:
    """The gauge (m, delta) at x: m = m^eps(x), the least index of a piece
    holding x, and delta the distance to the union of the earlier pieces
    (infinite if there are none)."""
    m = next((i for i, g in enumerate(cover.pieces) if g.member(x)), None)
    if m is None:
        raise CoverViolation(f"cover violation at {x}")
    return m, min((cover.pieces[r].dist(x) for r in range(m)), default=Dist.infinity())


def ebc1_check(family: Sequence[FunctionOracle], cover: ClosedCover,
               pairs: Sequence[Tuple[PointCode, PointCode]]) -> dict:
    """Pairwise oscillation check under the gauge constraint.

    For each pair with d(x, x') < min(delta(x), delta(x')): asserts the
    first-cover indices agree, that neither point meets the other's earlier
    union, and that every family member moves by less than eps.  Pairs not
    meeting the constraint are skipped (counted).
    """
    eps = cover.eps
    violations: List[dict] = []
    constrained = 0
    for x, xp in pairs:
        (m, delta), (mp, deltap) = delta_from_cover(cover, x), delta_from_cover(cover, xp)
        d = dist(x, xp)
        if not d < min(delta, deltap):
            continue
        constrained += 1
        problems = []
        if m != mp:
            problems.append(f"indices differ: {m} vs {mp}")
        if any(cover.pieces[r].member(xp) for r in range(m)):
            problems.append("x' meets an earlier piece of x")
        if any(cover.pieces[r].member(x) for r in range(mp)):
            problems.append("x meets an earlier piece of x'")
        for f in family:
            osc = y_distance(f.y_kind, f(x), f(xp))
            if not osc < eps:
                problems.append(f"{f.fid}: oscillation {osc} >= {eps}")
        if problems:
            violations.append({"x": str(x), "x'": str(xp), "problems": problems})
    return {
        "eps": str(eps),
        "pairs": len(pairs),
        "constrained": constrained,
        "violations": violations,
        "ok": not violations,
    }


def cover_from_function(f: FunctionOracle, eps: Fraction) -> ClosedCover:
    """Cover by the declared closed preimage pieces, one group per range
    value (a point cover of the range by eps/2 balls); each piece has image
    diameter zero, hence below eps by construction.  The groups come in the
    string order of their values, and no piece is dropped."""
    decomposition = f.decomposition
    if decomposition is None:
        raise CoverViolation(f"missing decomposition for {f.fid}")
    return ClosedCover(Fraction(eps), [piece for value in sorted(decomposition, key=str)
                                       for piece in decomposition[value]])

