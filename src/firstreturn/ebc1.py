"""Equi-Baire-class-one machinery: the delta gauge built from an ordered
closed cover and the oscillation check it controls.

Given an ordered cover (G_0, ..., G_{M-1}) by closed pieces on which every
function of the family has small image diameter, the gauge at x is the
exact distance from x to the union of the pieces preceding the first one
containing x (an infinity sentinel when that union is empty: the gauge
must be strictly positive, and the sentinel wins every min comparison).
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


class DeltaResult(Record):
    _fields = ("x", "index", "delta")
    __hash__ = None

    def __init__(self, x: PointCode, index: int, delta: Dist):
        self.x = x
        self.index = index  # m^eps(x): least cover index containing x
        self.delta = delta  # distance to the union of earlier pieces; infinite if none


def delta_from_cover(cover: ClosedCover, x: PointCode) -> DeltaResult:
    m = next((i for i, g in enumerate(cover.pieces) if g.member(x)), None)
    if m is None:
        raise CoverViolation(f"cover violation at {x}")
    if m == 0:
        return DeltaResult(x, 0, Dist.infinity())
    delta = min(cover.pieces[r].dist(x) for r in range(m))
    return DeltaResult(x, m, delta)


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
        dx, dxp = delta_from_cover(cover, x), delta_from_cover(cover, xp)
        d = dist(x, xp)
        if not d < min(dx.delta, dxp.delta):
            continue
        constrained += 1
        problems = []
        if dx.index != dxp.index:
            problems.append(f"indices differ: {dx.index} vs {dxp.index}")
        if any(cover.pieces[r].member(xp) for r in range(dx.index)):
            problems.append("x' meets an earlier piece of x")
        if any(cover.pieces[r].member(x) for r in range(dxp.index)):
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

