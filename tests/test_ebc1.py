import random
from fractions import Fraction as F

import pytest

from firstreturn.dense_builder import ClosedSet, whole_space
from firstreturn.ebc1 import (
    ClosedCover,
    CoverViolation,
    cover_from_function,
    delta_from_cover,
    ebc1_check,
)
from firstreturn.gallery import I16, I25, indicator_of
from firstreturn.recover import DISCRETE, RATIONAL, FunctionOracle
from firstreturn.space import (CANTOR, UNIT, Dist, SpaceMismatch, UnitPoint, WordPoint,
                               cantor_point)

from oracles import gauge_by_prefix_walk, piece_image_diameter

HALVES = ClosedCover(F(1, 3), [
    ClosedSet(UNIT, intervals=((F(0), F(1, 2)),), name="[0,1/2]"),
    ClosedSet(UNIT, intervals=((F(1, 2), F(1)),), name="[1/2,1]"),
])


def u(v):
    return UnitPoint(F(v) if not isinstance(v, tuple) else F(*v))


# ---------------------------------------------------------------------------
# the delta gauge
# ---------------------------------------------------------------------------


def test_delta_second_piece_distance():
    m, delta = delta_from_cover(HALVES, u((3, 5)))
    assert m == 1
    assert delta.as_fraction() == F(1, 10)


def test_delta_first_piece_is_infinite():
    m, delta = delta_from_cover(HALVES, u((3, 10)))
    assert m == 0 and delta == Dist.infinity()


def test_delta_boundary_point_takes_least_index():
    m, delta = delta_from_cover(HALVES, u((1, 2)))
    assert m == 0 and delta == Dist.infinity()


def test_cover_takes_its_space_from_its_pieces():
    assert HALVES.space == UNIT
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    assert cover_from_function(f, F(1, 2)).space == CANTOR
    with pytest.raises(SpaceMismatch):
        ClosedCover(F(1, 2), [HALVES.pieces[0], whole_space(CANTOR)])


def test_delta_uncovered_point_is_an_error():
    cover = ClosedCover(F(1, 2), [
        ClosedSet(UNIT, intervals=((F(0), F(1, 4)),), name="[0,1/4]")])
    with pytest.raises(CoverViolation):
        delta_from_cover(cover, u((1, 2)))
    assert cover.uncovered([u((1, 2)), u((1, 8))]) == [u((1, 2))]


# ---------------------------------------------------------------------------
# the oscillation check
# ---------------------------------------------------------------------------

_FAMILY = [
    FunctionOracle("x/2", lambda p: p.value / 2, RATIONAL, space=UNIT),
    FunctionOracle("1-x/2", lambda p: 1 - p.value / 2, RATIONAL, space=UNIT),
]


def test_constrained_pair_same_index_and_small_oscillation():
    rep = ebc1_check(_FAMILY, HALVES, [(u((3, 5)), u((13, 20)))])
    # d = 1/20 < min(1/10, 3/20): constrained, no violations
    assert rep["constrained"] == 1 and rep["ok"]


def test_unconstrained_pair_skipped():
    rep = ebc1_check(_FAMILY, HALVES, [(u((3, 5)), u((7, 10)))])
    # d = 1/10 is not < min(1/10, 1/5)
    assert rep["constrained"] == 0 and rep["ok"]


def test_identical_points_pass_trivially():
    rep = ebc1_check(_FAMILY, HALVES, [(u((3, 5)), u((3, 5)))])
    assert rep["ok"]


def test_violation_reported_for_bad_cover():
    # a family whose oscillation on a piece exceeds eps is reported:
    # d(9/10, 39/50) = 3/25 < min(delta) = min(2/5, 7/25), yet the identity
    # moves by 3/25 >= eps = 1/10
    bad_family = [FunctionOracle("x", lambda p: p.value, RATIONAL, space=UNIT)]
    tight = ClosedCover(F(1, 10), HALVES.pieces)
    rep = ebc1_check(bad_family, tight, [(u((9, 10)), u((39, 50)))])
    assert rep["constrained"] == 1
    assert not rep["ok"]
    assert any("oscillation" in p for v in rep["violations"]
               for p in v["problems"])


def test_consistency_checks_fire_under_a_broken_gauge(monkeypatch):
    # a gauge that keeps the true index but reports an infinite delta lets
    # 3/10 (piece 0) and 7/10 (piece 1) count as close; the family moves by
    # 1/5 < eps there, so only the index and earlier-piece checks can fire
    monkeypatch.setattr("firstreturn.ebc1.delta_from_cover", lambda cover, x: (
        delta_from_cover(cover, x)[0], Dist.infinity()))
    rep = ebc1_check(_FAMILY, HALVES, [(u((3, 10)), u((7, 10))), (u((7, 10)), u((3, 10)))])
    assert rep["constrained"] == 2 and not rep["ok"]
    assert [v["problems"] for v in rep["violations"]] == [
        ["indices differ: 0 vs 1", "x meets an earlier piece of x'"],
        ["indices differ: 1 vs 0", "x' meets an earlier piece of x"],
    ]


# ---------------------------------------------------------------------------
# covers from declared decompositions
# ---------------------------------------------------------------------------


def test_cover_from_constant_function():
    f = FunctionOracle("const", lambda p: 3, DISCRETE,
                       decompose=lambda: {3: [whole_space(CANTOR)]}, space=CANTOR)
    cover = cover_from_function(f, F(1, 2))
    assert len(cover.pieces) == 1
    assert cover.pieces[0].member(cantor_point("10", "1"))


def test_cover_from_clopen_indicator():
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    cover = cover_from_function(f, F(1, 2))
    probes = [cantor_point("", "0"), cantor_point("", "1"),
              cantor_point("10", "0"), cantor_point("01", "1")]
    assert cover.uncovered(probes) == []
    for piece in cover.pieces:
        diam = piece_image_diameter(f, piece, probes)
        assert diam is None or diam < cover.eps


def test_cover_from_singleton_indicator():
    zero = cantor_point("", "0")
    f = indicator_of(ClosedSet(CANTOR, singletons=(zero,), name="{0^inf}"))
    cover = cover_from_function(f, F(1, 2))
    probes = [zero, cantor_point("", "1"), cantor_point("0001", "1"),
              cantor_point("00000001", "1")]
    assert cover.uncovered(probes) == []


def test_cover_requires_decomposition():
    with pytest.raises(CoverViolation):
        cover_from_function(FunctionOracle("anon", lambda p: 0, space=CANTOR), F(1, 2))


# 1^inf; 1^8.0^inf; (110)^inf; 0^12 1.1^inf
_ALPHAS = [cantor_point("", "1"), cantor_point("11111111", "0"), cantor_point("", "110"),
           cantor_point("0" * 12 + "1", "1")]


def _points_near(alpha, rng, count):
    """Seeded eventually periodic points, half of them leaving alpha after
    a random prefix of it, the others anywhere."""
    points = [alpha]
    for i in range(count):
        if i % 2:
            k = rng.randrange(16)
            head = alpha.prefix(k) + (1 - alpha.prefix(k + 1)[k],)
        else:
            head = ()
        head += tuple(rng.randrange(2) for _ in range(rng.randrange(6)))
        points.append(WordPoint(CANTOR, head, tuple(rng.randrange(2)
                                                    for _ in range(rng.randrange(1, 3)))))
    return points


@pytest.mark.parametrize("build", [I16, I25], ids=["I16", "I25"])
def test_gauge_on_word_covers_matches_the_prefix_walk(build):
    # points near alpha that agree with it on DECOMP_DEPTH symbols may be
    # uncovered by design; the gauge is compared at the covered ones
    rng = random.Random(38)
    first_piece = later_piece = 0
    for alpha in _ALPHAS:
        cover = cover_from_function(build(alpha), F(1, 2))
        points = [x for x in _points_near(alpha, rng, 60) if not cover.uncovered([x])]
        assert alpha in points and len(points) >= 30
        for x in points:
            m, delta = delta_from_cover(cover, x)
            assert (m, delta) == gauge_by_prefix_walk(cover.pieces, x), str(x)
            first_piece += m == 0
            later_piece += m > 0
    assert first_piece >= 1 and later_piece >= 120


def test_gauge_controls_family_from_cover():
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    cover = cover_from_function(f, F(1, 2))
    pairs = [
        (cantor_point("11", "01"), cantor_point("110", "10")),
        (cantor_point("0", "01"), cantor_point("00", "10")),
        (cantor_point("", "0"), cantor_point("", "1")),
    ]
    rep = ebc1_check([f], cover, pairs)
    assert rep["ok"]
