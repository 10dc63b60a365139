from fractions import Fraction as F

import pytest

from firstreturn.path import (
    DenseSequence,
    SearchBudgetExceeded,
    path_step,
    path_trace,
    route_step,
    route_trace,
    route_descent_violations,
    trace_to_csv,
    witness_violations,
)
from firstreturn.space import (
    CANTOR,
    UNIT,
    Dist,
    UnitPoint,
    WordPoint,
    ZBall,
    ZPoint,
    cantor_point,
    dist,
    member,
)
from firstreturn.dense_builder import ClosedSet, build_dense
from firstreturn.gallery import thm13_dense, thm13_target, x_seq_point, z_F_member


# ---------------------------------------------------------------------------
# path steps
# ---------------------------------------------------------------------------


def test_first_step_hand_simulation(dense25, cantor_basis):
    # x = 0^inf, prior = [x_0 = 1^inf]: the empty cylinder contains 1^inf,
    # so the minimal admissible index is p = 1 with witness N(0)
    x = cantor_point("", "0")
    p, pt, wit, widx = path_step(x, dense25, [cantor_point("", "1")], cantor_basis)
    assert p == 1 and pt == x
    assert wit.word == (0,) and widx == 1


def test_fixed_point_branch_constant_trace(dense25, cantor_basis):
    x = dense25[0]
    tr = path_trace(x, dense25, cantor_basis, 10)
    assert [s.point for s in tr.steps] == [x] * 10
    assert all(s.witness is None for s in tr.steps)
    assert all(s.index == 0 for s in tr.steps)


def test_point_in_dense_reaches_fixed_point(dense25, cantor_basis):
    x = cantor_point("", "0")  # x_1
    tr = path_trace(x, dense25, cantor_basis, 8)
    assert tr.steps[1].point == x
    assert all(s.point == x for s in tr.steps[1:])
    # index reported as the minimal index of x in the sequence
    assert all(s.index == 1 for s in tr.steps[1:])


def test_strict_common_prefix_growth_off_dense(dense25, cantor_basis):
    x = cantor_point("", "10")  # 1^inf shifted: (10)^inf, not in D
    assert not dense25.contains(x)
    tr = path_trace(x, dense25, cantor_basis, 32)
    lens = [x.common_prefix_len(s.point) for s in tr.steps]
    assert all(a < b for a, b in zip(lens, lens[1:]))
    assert len(tr.steps) >= 8
    assert tr.terminated == "budget" and tr.budget == len(dense25)


def test_witness_soundness_and_distinctness(dense25, cantor_basis):
    for x in (cantor_point("", "10"), cantor_point("11", "011"),
              cantor_point("", "0")):
        tr = path_trace(x, dense25, cantor_basis, 24)
        assert witness_violations(tr) == []
        wits = [s.witness for s in tr.steps if s.witness is not None]
        assert len(set(wits)) == len(wits)  # pairwise distinct basic opens


def test_witness_minimal_index_brute_force(dense25, cantor_basis):
    # independent check of the minimal-m witness via a raw enumeration scan
    x = cantor_point("1", "01")
    tr = path_trace(x, dense25, cantor_basis, 8)
    prior = []
    for n, step in enumerate(tr.steps[:-1]):
        prior.append(step.point)
        if step.witness is None:
            continue
        nxt = tr.steps[n + 1].point
        for m in range(step.witness_index + 1):
            W = cantor_basis.at(m)
            ok = member(x, W) and member(nxt, W) and \
                not any(member(s, W) for s in prior)
            assert ok == (m == step.witness_index)


def test_path_hitting_set_is_open_on_samples(dense25, cantor_basis):
    # If x_q enters the path of t_0 with recorded witness W, every sampled
    # point of W picks up x_q on its own path.
    t0 = cantor_point("1", "01")
    tr = path_trace(t0, dense25, cantor_basis, 8)
    step = tr.steps[2]
    W = step.witness
    xq = tr.steps[3].point
    assert W is not None and member(t0, W) and member(xq, W)
    samples = [
        WordPoint(CANTOR, W.word, (0, 1)),
        WordPoint(CANTOR, W.word + (0,), (1, 0, 0)),
        WordPoint(CANTOR, W.word + (1, 1), (0, 1, 1)),
    ]
    for xp in samples:
        assert member(xp, W)
        tr2 = path_trace(xp, dense25, cantor_basis, 16)
        assert xq in tr2.visited()


def test_unit_path_progresses_and_respects_witnesses(dyadics, unit_basis):
    x = UnitPoint(F(1, 3))
    assert not dyadics.contains(x)
    tr = path_trace(x, dyadics, unit_basis, 24)
    assert len(tr.steps) >= 8
    assert witness_violations(tr) == []
    # every nonempty witness contains x and has dyadic-scale length
    for s in tr.steps:
        if s.witness is not None:
            assert member(x, s.witness)
    # at most two witnesses per scale (they are pairwise distinct intervals
    # through x, and each block holds at most two through any point)
    lengths = [s.witness.length() for s in tr.steps if s.witness is not None]
    for scale in set(lengths):
        assert lengths.count(scale) <= 2


def test_unit_path_point_in_dense_fixes(dyadics, unit_basis):
    x = UnitPoint(F(3, 4))
    tr = path_trace(x, dyadics, unit_basis, 16)
    assert tr.steps[-1].point == x
    assert witness_violations(tr) == []


def test_budget_exceeded_raises_when_asked(dense25, cantor_basis):
    x = cantor_point("", "10")
    with pytest.raises(SearchBudgetExceeded) as exc:
        path_trace(x, dense25, cantor_basis, 64, on_budget="raise")
    assert exc.value.budget == len(dense25)


# ---------------------------------------------------------------------------
# route mode
# ---------------------------------------------------------------------------


def test_route_fixed_point(dense25):
    tr = route_trace(dense25[0], dense25, 6)
    assert all(s.point == dense25[0] for s in tr.steps)


def test_route_dyadic_thirds_halving(dyadics):
    # x = 1/3 against 0, 1, 1/2, 1/4, 3/4, ...: distances 1/3, 1/6, 1/12, ...
    x = UnitPoint(F(1, 3))
    tr = route_trace(x, dyadics, 10)
    assert route_descent_violations(tr) == []
    ds = [s.dist_to_x.as_fraction() for s in tr.steps]
    assert ds[0] == F(1, 3)
    assert all(ds[n + 1] == ds[n] / 2 for n in range(1, len(ds) - 1))


def test_route_strict_descent_on_z():
    dense = thm13_dense()
    x = thm13_target()
    tr = route_trace(x, dense, 50)
    assert route_descent_violations(tr) == []


def test_route_is_first_point_in_ball():
    # the chosen s_{n+1} is the first indexed point of the open ball
    # B(x, d(x, s_n)); earlier indices must be outside it
    dense = thm13_dense()
    x = thm13_target()
    tr = route_trace(x, dense, 20)
    for n in range(1, len(tr.steps)):
        cur, prev = tr.steps[n], tr.steps[n - 1]
        ball_exp = prev.dist_to_x.value  # 2^-e ball radius exponent
        ball = ZBall(x, ball_exp)
        assert member(cur.point, ball)
        for p in range(cur.index):
            assert not member(dense[p], ball)


def test_route_budget_message(dyadics):
    far = UnitPoint(F(1, 3))
    # exhaust: demand a closer point than distance zero
    with pytest.raises(SearchBudgetExceeded):
        route_step(far, dyadics, Dist.zero())


# ---------------------------------------------------------------------------
# the word step against a linear scan of exact distances
# ---------------------------------------------------------------------------

ROUTE_POINTS = [cantor_point("", "10"), cantor_point("11", "011"), cantor_point("1", "01"),
                cantor_point("", "0"), cantor_point("0", "110"), cantor_point("101", "0011"),
                cantor_point("0110", "1")]


def linear_route(x, dense, N):
    """Route trace as (indices, points, terminated) by scanning every point
    with exact distance comparisons."""
    idx, pts, terminated = [0], [dense[0]], "horizon"
    while len(pts) < N:
        if pts[-1] == x:
            idx.append(idx[-1])
            pts.append(x)
            continue
        cur = dist(x, pts[-1])
        nxt = next((p for p in range(len(dense)) if dist(x, dense[p]) < cur), None)
        if nxt is None:
            terminated = "budget"
            break
        idx.append(nxt)
        pts.append(dense[nxt])
    return idx, pts, terminated


def builder_dense(cantor_basis):
    families = [ClosedSet(CANTOR, cylinders=((1,),), name="F0"),
                ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="F1")]
    q = [x_seq_point(p) for p in range(512)]
    return build_dense(families, q, cantor_basis).dense


def test_word_route_matches_linear_scan(dense25, cantor_basis):
    for dense in (dense25, builder_dense(cantor_basis)):
        for x in ROUTE_POINTS:
            tr = route_trace(x, dense, 32)
            got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
            assert got == linear_route(x, dense, 32), (dense.tag, str(x))
            assert route_descent_violations(tr) == []


def test_route_over_unbounded_prop25(dense25, seq25):
    for x in (cantor_point("", "10"), cantor_point("1", "01"), cantor_point("", "110")):
        tr = route_trace(x, seq25, 24)
        assert tr.terminated == "horizon" and len(tr.steps) == 24
        assert route_descent_violations(tr) == []
        assert all(s.point != x for s in tr.steps)  # so every step descends
        inside = route_trace(x, dense25, 24)
        n = len(inside.steps)
        assert [(s.index, s.point) for s in tr.steps[:n]] == \
            [(s.index, s.point) for s in inside.steps]
    tr = route_trace(cantor_point("", "10"), seq25, 12)
    assert tr.terminated == "horizon" and len(tr.steps) == 12


@pytest.mark.parametrize("space", [CANTOR, UNIT])
def test_term_equal_to_x_carries_first_index(space, cantor_basis, unit_basis):
    if space == CANTOR:
        x = cantor_point("0", "1")
        pts = [cantor_point("", "1"), cantor_point("", "0"), x, cantor_point("00", "1"), x]
        basis = cantor_basis
    else:
        x = UnitPoint(F(1, 4))
        pts = [UnitPoint(F(v)) for v in ("0", "1", "1/2", "1/4", "3/4", "1/4")]
        basis = unit_basis
    dense = DenseSequence(space, pts)
    first = dense.first_index_of(x)
    for tr in (path_trace(x, dense, basis, 6), route_trace(x, dense, 6)):
        hits = [s.index for s in tr.steps if s.point == x]
        assert hits and set(hits) == {first}, tr.mode


# ---------------------------------------------------------------------------
# trace CSV
# ---------------------------------------------------------------------------


def test_trace_csv_deterministic(dense25, cantor_basis):
    x = cantor_point("1", "01")
    a = trace_to_csv(path_trace(x, dense25, cantor_basis, 10))
    b = trace_to_csv(path_trace(x, dense25, cantor_basis, 10))
    assert a == b
    assert a.splitlines()[0] == "step,index_p,point,dist_to_x,witness"
    assert len(a.splitlines()) == 11
