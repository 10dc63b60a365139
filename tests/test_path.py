import copy
import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from firstreturn.path import (
    PATH,
    ROUTE,
    DenseSequence,
    PathTrace,
    SearchBudgetExceeded,
    TraceStep,
    _unit_prior_free,
    path_step,
    path_trace,
    route_step,
    route_trace,
    route_descent_violations,
    trace_to_csv,
    witness_violations,
)
from firstreturn.space import (
    BAIRE,
    CANTOR,
    UNIT,
    Cylinder,
    Dist,
    UnitPoint,
    WordPoint,
    SpaceMismatch,
    ZPoint,
    baire_point,
    cantor_point,
    dist,
    format_point,
    good_basis,
    parse_point,
)
from firstreturn.cli import dyadic_dense
from firstreturn.dense_builder import ClosedSet, build_dense
from firstreturn.gallery import thm13_dense, thm13_target, z_F_member
from firstreturn.recover import RATIONAL, FunctionOracle, recover_at

from oracles import ZBall, opens_through


# ---------------------------------------------------------------------------
# path steps
# ---------------------------------------------------------------------------


def least_witness(basis, x, nxt, prior, own):
    """basis.at(m) for the least m <= own whose open holds x and nxt and no
    prior term, by a scan up from m = 0; None when no such m <= own.

    own is the basis's own index of the recorded witness, so a witness that
    is not the least qualifying open fails the comparison instead of
    leaving the scan unbounded."""
    return next((W for W in map(basis.at, range(own + 1))
                 if W.member(x) and W.member(nxt) and not any(W.member(s) for s in prior)),
                None)


def assert_word_witnesses_least(trace, basis):
    for n, step in enumerate(trace.steps[:-1]):
        if step.witness is None:
            continue
        nxt, prior = trace.steps[n + 1].point, trace.points()[:n + 1]
        own = basis.index_of_word(step.witness.word)
        assert least_witness(basis, trace.x, nxt, prior, own) == step.witness, (str(trace.x), n)


def test_first_step_hand_simulation(dense25, cantor_basis):
    # x = 0^inf, prior = [x_0 = 1^inf]: the empty cylinder contains 1^inf,
    # so the minimal admissible index is p = 1 with witness N(0)
    x = cantor_point("", "0")
    s0 = cantor_point("", "1")
    p, pt, wit = path_step(x, dense25, [TraceStep(0, 0, s0, dist(x, s0))], cantor_basis)
    assert p == 1 and pt == x
    assert wit.word == b"\x00" and cantor_basis.index_of_word(wit.word) == 1
    assert least_witness(cantor_basis, x, pt, [s0], 1) == wit


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
    lens = [x.first_difference(s.point) for s in tr.steps]
    assert all(a < b for a, b in zip(lens, lens[1:]))
    assert len(tr.steps) >= 8
    assert tr.terminated == "budget" and tr.budget == len(dense25)


def test_word_path_compares_each_term_with_x_once(dense25, cantor_basis, monkeypatch):
    # the step reads |x /\ s_n| from the distance the trace already holds
    x = cantor_point("11", "011")
    assert not dense25.contains(x)
    calls = []
    original = WordPoint.first_difference
    monkeypatch.setattr(WordPoint, "first_difference",
                        lambda self, other, *args, **kwargs:
                        calls.append(other) or original(self, other, *args, **kwargs))
    tr = path_trace(x, dense25, cantor_basis, 32)
    assert len(tr.steps) > 4
    assert len(calls) == len(tr.steps)


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
    assert sum(s.witness is not None for s in tr.steps) >= 4
    assert_word_witnesses_least(tr, cantor_basis)


def test_baire_witness_minimal_index_brute_force():
    # the same scan over the truncated Baire basis (symbols below 8)
    basis = good_basis(BAIRE)
    rng = random.Random(7)
    dense = DenseSequence([baire_point((), (0,))] + [
        baire_point(tuple(rng.randrange(8) for _ in range(rng.randrange(1, 5))),
                    (rng.randrange(8),)) for _ in range(300)])
    witnesses = 0
    for x in (baire_point((3,), (1,)), baire_point((7, 0, 2), (5,)), dense[40], dense[299]):
        tr = path_trace(x, dense, basis, 6)
        assert witness_violations(tr) == []
        assert_word_witnesses_least(tr, basis)
        witnesses += sum(s.witness is not None for s in tr.steps)
    assert witnesses >= 8


def test_path_hitting_set_is_open_on_samples(dense25, cantor_basis):
    # If x_q enters the path of t_0 with recorded witness W, every sampled
    # point of W picks up x_q on its own path.
    t0 = cantor_point("1", "01")
    tr = path_trace(t0, dense25, cantor_basis, 8)
    step = tr.steps[2]
    W = step.witness
    xq = tr.steps[3].point
    assert W is not None and W.member(t0) and W.member(xq)
    samples = [
        WordPoint(CANTOR, W.word, (0, 1)),
        WordPoint(CANTOR, W.word + b"\x00", (1, 0, 0)),
        WordPoint(CANTOR, W.word + b"\x01\x01", (0, 1, 1)),
    ]
    for xp in samples:
        assert W.member(xp)
        tr2 = path_trace(xp, dense25, cantor_basis, 16)
        assert xq in tr2.visited()


@pytest.mark.parametrize("x", [cantor_point("1", "01"), cantor_point("101", "0110"),
                               cantor_point("", "0"), cantor_point("0011", "1")], ids=str)
def test_cantor_path_builds_one_bytes_cylinder_per_step(monkeypatch, dense25, builder_dense,
                                                        cantor_basis, x):
    # tooling guard: a Cantor path step builds its witness, and no other
    # cylinder, from the bytes word it looked up
    words, steps = [], [0]
    real_init = Cylinder.__init__

    def init(self, space, word):
        words.append(word)
        real_init(self, space, word)

    def step(*args):
        found = path_step(*args)  # a budget stop raises and builds nothing
        steps[0] += 1
        return found

    monkeypatch.setattr(Cylinder, "__init__", init)
    monkeypatch.setattr("firstreturn.path.path_step", step)
    for dense in (dense25, builder_dense):
        del words[:]
        steps[0] = 0
        tr = path_trace(x, dense, cantor_basis, 40)
        assert len(words) == steps[0] > 0 and all(type(w) is bytes for w in words)
        assert words == [s.witness.word for s in tr.steps if s.witness is not None]


def test_unit_path_progresses_and_respects_witnesses(dyadics, unit_basis):
    x = UnitPoint(F(1, 3))
    assert not dyadics.contains(x)
    tr = path_trace(x, dyadics, unit_basis, 24)
    assert len(tr.steps) >= 8
    assert witness_violations(tr) == []
    # every nonempty witness contains x and has dyadic-scale length
    for s in tr.steps:
        if s.witness is not None:
            assert s.witness.member(x)
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


def test_unit_path_with_no_basis_takes_the_good_basis():
    # f(x) = x at 1/3: given no basis, path mode on [0,1] traces as it does
    # with the space's one good basis, directly and through recover_at
    x, dense = UnitPoint(F(1, 3)), dyadic_dense(6)
    tr = path_trace(x, dense, good_basis(UNIT), 16)
    assert any(s.witness is not None for s in tr.steps)
    assert path_trace(x, dense, None, 16) == tr
    f = FunctionOracle("x", lambda p: p.value, RATIONAL, space=UNIT)
    assert recover_at(f, x, dense, PATH, 16).trace == tr


def same_steps(a, b):
    return [(s.index, s.point, s.dist_to_x) for s in a.steps] == \
        [(s.index, s.point, s.dist_to_x) for s in b.steps]


def test_baire_path_runs_through_a_symbol_past_8():
    # the basis lists the cylinders of every symbol, so the path through
    # the 9 goes on as the route does, with the witnesses N_{x|(k+1)}
    basis = good_basis(BAIRE)
    x = baire_point((1, 9), (2,))
    dense = DenseSequence([baire_point((), (0,)), baire_point((1,), (0,)), x])
    tr = path_trace(x, dense, basis, 6)
    assert tr.points() == [dense[0], dense[1]] + [x] * 4
    assert tr.terminated == "horizon" and tr.budget is None
    assert same_steps(tr, route_trace(x, dense, 6))
    assert [s.witness for s in tr.steps] == \
        [Cylinder(BAIRE, (1,)), Cylinder(BAIRE, (1, 9))] + [None] * 4
    assert_word_witnesses_least(tr, basis)


def test_baire_path_runs_through_a_large_symbol_inside_the_prefix():
    # the second term agrees with x on five symbols, so the next cylinder is
    # x|6 = (1,9,2,2,2,2): the 9 sits inside it, not at its end
    basis = good_basis(BAIRE)
    x = baire_point((1, 9), (2,))
    dense = DenseSequence([baire_point((), (0,)), baire_point((1, 9, 2, 2, 2), (0,)), x])
    tr = path_trace(x, dense, basis, 6)
    assert tr.points() == [dense[0], dense[1]] + [x] * 4
    assert tr.terminated == "horizon" and tr.budget is None
    assert same_steps(tr, route_trace(x, dense, 6))
    assert [s.witness for s in tr.steps] == \
        [Cylinder(BAIRE, (1,)), Cylinder(BAIRE, x.prefix(6))] + [None] * 4
    assert witness_violations(tr) == []


class _UnreadBasis:
    def __getattr__(self, name):
        raise AssertionError(f"the word path read basis.{name}")


def test_word_path_computes_no_basis_index():
    # one basis index of a cylinder through the symbol 10**9 is a number of
    # a billion bits, which takes a tenth of a second or more to compute
    x = baire_point((3, 10 ** 9), (0,))
    dense = DenseSequence([baire_point((), (0,)), baire_point((3,), (1,)),
                           baire_point((3, 10 ** 9, 0, 0), (5,)), x])
    start = time.perf_counter()
    tr = path_trace(x, dense, good_basis(BAIRE), 8)
    assert time.perf_counter() - start < 0.05
    assert tr.points() == list(dense)[:3] + [x] * 5
    assert [s.witness for s in tr.steps[:3]] == [Cylinder(BAIRE, x.prefix(n)) for n in (1, 2, 5)]
    assert trace_to_csv(path_trace(x, dense, _UnreadBasis(), 8)) == trace_to_csv(tr)


def test_witness_checker_reports_tampered_witnesses(dense25, cantor_basis):
    # each tampered witness is a cylinder through x or s_{n+1} that fails
    # exactly one of the three conditions at step n
    x = cantor_point("", "10")
    tr = path_trace(x, dense25, cantor_basis, 8)
    assert witness_violations(tr) == [] and len(tr.steps) == 8
    n, nxt = 3, tr.steps[4].point
    k_next = x.first_difference(nxt)
    for witness, problem in [
            (Cylinder(CANTOR, nxt.prefix(k_next + 1)), "step 3: witness misses x"),
            (Cylinder(CANTOR, x.prefix(k_next + 1)), "step 3: witness misses s_4"),
            (tr.steps[n - 1].witness, "step 3: witness contains s_3")]:
        bad = copy.deepcopy(tr)
        bad.steps[n].witness = witness
        assert witness_violations(bad) == [problem], str(witness)


def test_route_checker_reports_a_distance_that_does_not_drop(dense25):
    tr = route_trace(cantor_point("", "10"), dense25, 8)
    assert route_descent_violations(tr) == [] and len(tr.steps) == 8
    bad = copy.deepcopy(tr)
    bad.steps[3].dist_to_x = bad.steps[2].dist_to_x
    assert route_descent_violations(bad) == ["step 3: distance did not strictly decrease"]


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
        assert ball.member(cur.point)
        for p in range(cur.index):
            assert not ball.member(dense[p])


def test_dense_sequence_takes_its_space_from_its_points():
    assert DenseSequence([baire_point((), (3,))]).space == BAIRE
    assert DenseSequence([UnitPoint(F(0))]).space == UNIT
    with pytest.raises(SpaceMismatch):
        DenseSequence([UnitPoint(F(0)), cantor_point("", "1")])
    with pytest.raises(SpaceMismatch):
        DenseSequence([cantor_point("", "1"), baire_point((), (1,))])


# ---------------------------------------------------------------------------
# deep word lookups against a linear scan
# ---------------------------------------------------------------------------

LADDER_TARGETS = [cantor_point("101", "0110"), cantor_point("1101", "01"),
                  cantor_point("1100", "011")]
LADDER_DEPTH = 140


@pytest.fixture(scope="module")
def ladder_points(cantor_basis):
    """A builder list over criterion 3's ladder enumeration: the short words,
    then x|k with bit k flipped for each target x, k up to 140."""
    q = []
    for length in range(6):
        for head in itertools.product((0, 1), repeat=length):
            q += [pt for pt in (WordPoint(CANTOR, head, (0,)), WordPoint(CANTOR, head, (1,)))
                  if pt not in q]
    for k in range(3, LADDER_DEPTH + 1):
        q += [WordPoint(CANTOR, x.prefix(k) + (1 - x.at(k),), (0,)) for x in LADDER_TARGETS]
    families = [ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")]
    return build_dense(families, q, cantor_basis, m_budget=14).dense.points


def key_length(points):
    """L = longest head + the two longest cycles - 1: distinct list points
    differ before L (Fine-Wilf)."""
    cycles = sorted(len(pt.cycle) for pt in points)
    return max(len(pt.head) for pt in points) + sum(cycles[-2:]) - 1


def ladder_words(points):
    """Words of every length 0..142 along each target (no point extends
    those past length 141), along some list points, and along the targets
    with random tails; and list points' prefixes of the list's key length L
    and one more."""
    rng = random.Random(11)
    words = [x.prefix(n) for x in LADDER_TARGETS for n in range(LADDER_DEPTH + 3)]
    words += [pt.prefix(n) for pt in rng.sample(points, 20) for n in range(0, 150, 7)]
    for _ in range(200):
        x = rng.choice(LADDER_TARGETS)
        n = rng.randrange(DenseSequence._TRIE_DEPTH, LADDER_DEPTH)
        words.append(x.prefix(n) + tuple(rng.randrange(2) for _ in range(rng.randrange(1, 6))))
    L = key_length(points)
    words += [pt.prefix(n) for pt in points[::97] for n in (L, L + 1)]
    depth = DenseSequence._TRIE_DEPTH
    assert {depth, depth + 1, L, L + 1} <= {len(w) for w in words}
    return words


def test_deep_lookup_matches_linear_scan(ladder_points):
    symbols = [pt.prefix(LADDER_DEPTH + 12) for pt in ladder_points]
    words = ladder_words(ladder_points)
    want = {w: next((p for p, s in enumerate(symbols) if s[:len(w)] == w), None)
            for w in words}
    assert None in want.values()
    assert any(len(w) > LADDER_DEPTH and p is not None for w, p in want.items())
    rng = random.Random(5)
    for first in (words, sorted(words, key=len, reverse=True)):
        # one list answers a shuffled pass on top of a pass in another
        # order: no answer depends on the lookups before it
        dense = DenseSequence(ladder_points)
        second = list(words)
        rng.shuffle(second)
        for w in first + second:
            assert dense.first_index_extending(w) == want[w], (len(w), w)


def count_point_reads(monkeypatch):
    """The list of points whose symbols are read from now on, once per read."""
    reads = []
    for name in ("at", "_symbols"):
        original = getattr(WordPoint, name)
        monkeypatch.setattr(WordPoint, name,
                            lambda self, n, _f=original: reads.append(self) or _f(self, n))
    return reads


def test_lookup_reads_at_most_the_one_point_its_first_L_symbols_hold(ladder_points,
                                                                      monkeypatch):
    # from a cold list: a word of at most L symbols is answered from the
    # sorted keys alone, and a longer word reads at most the one point,
    # perhaps repeated, whose first L symbols are the word's
    L = key_length(ladder_points)
    words = ladder_words(ladder_points)
    by_prefix = {pt.prefix(L): pt for pt in ladder_points}
    assert len(by_prefix) == len(set(ladder_points))
    want = [next((p for p, pt in enumerate(ladder_points) if pt.starts_with(w)), None)
            for w in words]
    dense = DenseSequence(ladder_points)
    reads = count_point_reads(monkeypatch)
    long_reads = 0
    for w, p in zip(words, want):
        del reads[:]
        assert dense.first_index_extending(w) == p, w
        if len(w) <= L:
            assert reads == [], w
        else:
            assert len(reads) <= 1 and all(pt == by_prefix.get(w[:L]) for pt in reads), w
            long_reads += len(reads)
    assert long_reads > 20 and sum(len(w) <= L for w in words) > 100
    ladder_points[0].prefix(3)
    assert reads  # the counter does see a read


def test_shallow_lookup_after_warm_up_reads_no_list_point(ladder_points, monkeypatch):
    dense = DenseSequence(ladder_points)
    symbols = [pt.prefix(DenseSequence._TRIE_DEPTH) for pt in ladder_points]
    reads = count_point_reads(monkeypatch)
    for n in range(DenseSequence._TRIE_DEPTH + 1):
        for w in itertools.product((0, 1), repeat=n):
            want = next((p for p, s in enumerate(symbols) if s[:n] == w), None)
            assert dense.first_index_extending(w) == want, w
    assert reads == []


def seeded_word_lists():
    """Seeded Cantor and Baire lists with repeated points, heads longer
    than _TRIE_DEPTH and, on one Baire list, symbols past 255; then a Baire
    list of three points (one repeated) that first differ at index 11, the
    last symbol the index's sort key must hold: its length is the longest
    head 11 + the two longest cycles 1 + 1 - 1 = 12."""
    rng = random.Random(23)
    lists = []
    for space, top in ((CANTOR, 1), (BAIRE, 2), (BAIRE, 300)):
        pts = []
        for _ in range(90):
            head = tuple(rng.randint(0, top) for _ in range(rng.randrange(14)))
            cycle = tuple(rng.randint(0, top) for _ in range(rng.randrange(1, 5)))
            pts.append(WordPoint(space, head, cycle))
        pts += rng.sample(pts, 25)
        rng.shuffle(pts)
        lists.append(pts)
    head = (2, 0, 1, 1, 0, 2, 2, 1, 0, 1, 2)
    lists.append([baire_point(head, (s,)) for s in (5, 3, 4, 3)])
    return lists


def test_word_lookup_matches_linear_scan_in_any_order():
    # each query order runs on a fresh list: nested (each word extends the
    # one before), reversed (each word is shorter) and shuffled
    rng = random.Random(29)
    for pts in seeded_word_lists():
        top = max(max(pt.head + pt.cycle) for pt in pts)
        bases = rng.sample(pts, min(len(pts), 12))
        bases += [WordPoint(pts[0].space, pt.prefix(rng.randrange(12)), (rng.randint(0, top),))
                  for pt in bases]
        nested = [pt.prefix(n) for pt in bases for n in range(40)]
        want = {w: next((p for p, pt in enumerate(pts) if pt.starts_with(w)), None)
                for w in nested}
        assert None in want.values()
        shuffled = list(nested)
        rng.shuffle(shuffled)
        for words in (nested, nested[::-1], shuffled):
            dense = DenseSequence(pts)
            for w in words:
                assert dense.first_index_extending(w) == want[w], (str(pts[0]), w)


def test_word_trace_distances_are_exact():
    rng = random.Random(31)
    found = 0
    for pts in seeded_word_lists():
        dense = DenseSequence(pts)
        basis = good_basis(pts[0].space)
        xs = rng.sample(pts, 4) + [WordPoint(pts[0].space, pt.prefix(9), pt.cycle[::-1])
                                   for pt in rng.sample(pts, 4)]
        for x in xs:
            traces = [route_trace(x, dense, 30)]
            if pts[0].space == CANTOR:
                traces.append(path_trace(x, dense, basis, 30))
            for tr in traces:
                assert [s.dist_to_x for s in tr.steps] == [dist(x, s.point) for s in tr.steps]
                found += len(tr.steps) - 1
    assert found > 500


def test_warm_word_traces_construct_no_fraction(dense25, view25, cantor_basis, monkeypatch):
    """A word distance is 2^-k with k the int index of the first
    disagreement, and the next step reads k back from it as it is.  Warm
    Cantor path and route traces over a list and over the Prop-25 view, and
    Baire paths over a Baire list, construct no Fraction: counted by
    wrapping `Fraction.__new__`.  Wrapping k in a Fraction at every step
    made one per step."""
    rng = random.Random(5)
    baire = DenseSequence([baire_point((), (0,))] + [
        baire_point(tuple(rng.randrange(8) for _ in range(rng.randrange(1, 6))),
                    (rng.randrange(8),)) for _ in range(300)])
    baire_basis = good_basis(BAIRE)
    cantor_xs = [cantor_point("", "110"), cantor_point("1", "01"), cantor_point("0110", "1"),
                 dense25[77], dense25[400]]
    baire_xs = [baire_point((3,), (1,)), baire_point((7, 0, 2), (5,)), baire[40]]

    def traces():
        out = []
        for dense in (dense25, view25):
            for x in cantor_xs:
                out += [path_trace(x, dense, cantor_basis, 40), route_trace(x, dense, 40)]
        return out + [path_trace(x, baire, baire_basis, 12) for x in baire_xs]

    warm = traces()
    made = []

    def counting(cls, *args, real=F.__new__, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    counted = traces()
    monkeypatch.undo()
    assert made == []
    assert list(map(trace_to_csv, counted)) == list(map(trace_to_csv, warm))
    exponents = [s.dist_to_x.value for tr in counted for s in tr.steps
                 if not s.dist_to_x.is_zero()]
    assert len(exponents) > 100 and set(map(type, exponents)) == {int}


def test_cold_ladder_path_reads_few_list_symbols(ladder_points, cantor_basis, monkeypatch):
    # a cold trace reads a list point where a lookup's word is longer than
    # the list's key length and where a term's distance to x is taken,
    # not once per point of the list
    dense = DenseSequence(ladder_points)
    listed = set(map(id, ladder_points))
    reads = []
    for name in ("at", "_symbols"):
        original = getattr(WordPoint, name)
        monkeypatch.setattr(WordPoint, name, lambda self, n, _f=original:
                            (id(self) in listed and reads.append(n)) or _f(self, n))
    steps = 0
    for x in LADDER_TARGETS:
        tr = path_trace(x, dense, cantor_basis, 96)
        assert tr.terminated == "horizon"
        steps += len(tr.steps) - 1
    assert len(reads) <= (2 * math.ceil(math.log2(len(dense))) + 4) * steps


# ---------------------------------------------------------------------------
# the word step against a linear scan of exact distances
# ---------------------------------------------------------------------------

ROUTE_POINTS = [cantor_point("", "10"), cantor_point("11", "011"), cantor_point("1", "01"),
                cantor_point("", "0"), cantor_point("0", "110"), cantor_point("101", "0011"),
                cantor_point("0110", "1")]


def linear_route(x, dense, N):
    """Route trace as (indices, points, terminated) by linear scans of the
    list with exact distance comparisons."""
    dists = [dist(x, pt) for pt in dense]
    idx, pts, terminated = [0], [dense[0]], "horizon"
    while len(pts) < N:
        if pts[-1] == x:
            idx.append(idx[-1])
            pts.append(x)
            continue
        # every index before the current term lies outside the larger ball
        # of the step before, and the current term is at distance cur itself
        cur = dists[idx[-1]]
        nxt = next((p for p in range(idx[-1] + 1, len(dense)) if dists[p] < cur), None)
        if nxt is None:
            terminated = "budget"
            break
        idx.append(nxt)
        pts.append(dense[nxt])
    return idx, pts, terminated


def test_word_route_matches_linear_scan(dense25, builder_dense):
    for name, dense in (("prop25", dense25), ("builder", builder_dense)):
        for x in ROUTE_POINTS:
            tr = route_trace(x, dense, 32)
            got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
            assert got == linear_route(x, dense, 32), (name, str(x))
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


def _random_z(rng):
    """A Z point over a small grid, so that random lists share entry prefixes."""
    prefix = tuple(sorted(rng.sample([F(k, 2) for k in range(8)], rng.randrange(4))))
    a = F(rng.choice((1, 2)), rng.choice((1, 2)))
    b = rng.choice((F(0), F(1, 3), F(1, 2))) + rng.randrange(4)
    if prefix and prefix[-1] >= a * len(prefix) + b:
        b = prefix[-1] - a * len(prefix) + F(1, 2)
    return ZPoint(prefix, a, b)


def thm13_route_points():
    """The four candidates of the Theorem-13 demo and 20 seeded plateau points."""
    rng = random.Random(13)
    xs = [thm13_target(), thm13_target(F(1, 89)),
          ZPoint((F(1, 2), F(3, 2), F(9, 4)), 1, 4), ZPoint((), 1, 10)]
    while len(xs) < 24:
        x = thm13_target(F(rng.randrange(1, 200), rng.choice((211, 223, 227, 229))) / 4)
        if x not in xs:
            xs.append(x)
    return xs


def test_z_route_matches_linear_scan():
    # indices, points and stops against a linear scan of exact distances,
    # and every step, distances included, against the extraction that
    # steps with `route_step` and `dist`
    dense = thm13_dense()
    for x in thm13_route_points():
        tr = assert_matches_step_by_step(x, dense, 400, ROUTE)
        got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
        assert got == linear_route(x, dense, 400), str(x)
    rng = random.Random(7)
    stops, reached = set(), 0
    for _ in range(300):
        pts = [_random_z(rng) for _ in range(rng.randrange(5, 45))]
        pts += [rng.choice(pts) for _ in range(rng.randrange(16))]
        rng.shuffle(pts)
        x = rng.choice(pts) if rng.random() < 0.3 else _random_z(rng)
        tr = assert_matches_step_by_step(x, DenseSequence(pts), 30, ROUTE)
        got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
        assert got == linear_route(x, pts, 30), str(x)
        stops.add(tr.terminated)
        reached += tr.steps[-1].point == x
    assert stops == {"horizon", "budget"} and reached > 30
    rng = random.Random(31)
    for _ in range(40):
        pts = [_plateau_z(rng) for _ in range(rng.randrange(10, 40))]
        pts += [_random_z(rng) for _ in range(rng.randrange(4))]
        pts += [rng.choice(pts) for _ in range(rng.randrange(6))]
        rng.shuffle(pts)
        for x in (rng.choice(pts), _plateau_z(rng), ZPoint((F(1, 2), F(3, 2)), 1, 4)):
            tr = assert_matches_step_by_step(x, DenseSequence(pts), 30, ROUTE)
            got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
            assert got == linear_route(x, pts, 30), str(x)


def closer_queries(rng, points, xs):
    """(k, x, e) queries for x in xs: e an entry of a list point or of x
    (so that a point's entry k can equal e), or off the entry grid."""
    queries = []
    for x in xs:
        for _ in range(12):
            y = rng.choice(points + [x])
            e = y.entry(rng.randrange(5)) if rng.random() < 0.6 else F(rng.randrange(50), 7)
            queries.append((x.first_entry_above(e), x, e))
    return queries


def check_closer(points, queries):
    """Run the queries on a fresh list in ascending k, and on another in
    descending k, each once with k passed and once without, against a
    linear scan of exact distances: all four give the same (p, x_p), or
    all a budget stop.  Returns how many queries found a
    point, how many have a prefix that no point has, and how many meet a
    point that shares the prefix and whose entry k equals e."""
    xs = dict.fromkeys(x for _, x, _ in queries)
    dists = {x: [dist(x, pt) for pt in points] for x in xs}
    agree = {x: [x.first_difference(pt) for pt in points] for x in xs}
    want = {}
    for _, x, e in queries:
        r = Dist.pow2(e)
        want[x, e] = next(((p, points[p]) for p, d in enumerate(dists[x]) if d < r), None)
    for order in (sorted(queries, key=lambda q: q[0]),
                  sorted(queries, key=lambda q: -q[0])):
        for passed in (False, True):
            dense = DenseSequence(points)
            for k, x, e in order:
                try:
                    got = dense.first_closer(x, e, k) if passed else dense.first_closer(x, e)
                except SearchBudgetExceeded:
                    got = None
                assert got == want[x, e], (str(x), e, passed)
    found = unshared = at_edge = 0
    for k, x, e in queries:
        sharing = [y for y, n in zip(points, agree[x]) if n is None or n >= k]
        found += want[x, e] is not None
        unshared += not sharing
        at_edge += any(y.entry(k) == e for y in sharing)
    return found, unshared, at_edge


def test_first_closer_matches_linear_scan():
    rng = random.Random(19)
    counts = [0, 0, 0]
    for _ in range(80):
        pts = [_random_z(rng) for _ in range(rng.randrange(5, 30))]
        pts += [rng.choice(pts) for _ in range(rng.randrange(10))]
        rng.shuffle(pts)
        xs = rng.sample(pts, 2) + [_random_z(rng), _random_z(rng)]
        counts = [c + n for c, n in zip(counts, check_closer(pts, closer_queries(rng, pts, xs)))]
    found, unshared, at_edge = counts
    assert 0 < found < 80 * 48 and unshared > 50 and at_edge > 50
    dense = list(thm13_dense())
    queries = closer_queries(random.Random(13), dense, thm13_route_points())
    queries += [(x.first_entry_above(e), x, e) for x in thm13_route_points()[:4]
                for e in (s.dist_to_x.value for s in route_trace(x, thm13_dense(), 60).steps)
                if e is not None]
    assert check_closer(dense, queries)[2] > 0


def new_terms(tr):
    """The terms a trace compared with x: s_0 and each term a lookup found,
    not the copies of a fixed tail."""
    return [s.point for n, s in enumerate(tr.steps)
            if n == 0 or not tr.steps[n - 1].dist_to_x.is_zero()]


def test_z_route_reads_no_list_distance(monkeypatch):
    # the extraction compares each new term with x once, with one
    # `first_difference`; a Z step that compared other list points with x
    # would add calls here, and one that searched x's entries for k would
    # call `first_entry_above` more than once per trace
    compared, searched = [], []

    def counting_difference(p, q, *start, real=ZPoint.first_difference):
        compared.append((p, q))
        return real(p, q, *start)

    def counting_search(p, e, real=ZPoint.first_entry_above):
        searched.append(p)
        return real(p, e)

    monkeypatch.setattr(ZPoint, "first_difference", counting_difference)
    monkeypatch.setattr(ZPoint, "first_entry_above", counting_search)
    dense = thm13_dense()
    terms = 0
    for x in thm13_route_points()[:4]:
        compared.clear()
        searched.clear()
        tr = route_trace(x, dense, 400)
        assert [p for p, _ in compared] == [x] * len(compared), str(x)
        assert [q for _, q in compared] == new_terms(tr), str(x)
        assert len(searched) <= 1 and set(searched) <= {x}, str(x)
        terms += len(compared)
    assert terms > 900


_PLATEAU_DENS = (211 * 4, 223 * 4, 722)


def _plateau_z(rng):
    """A Z point that starts 1/2, 3/2 and whose next entries have the large
    denominators 211 * 4, 223 * 4 or 722, as the plateau and ladder points
    of `thm13_dense()` have: a node of a list of them holds keys over
    several denominators at once."""
    v = 2 + F(rng.randrange(1, 30), rng.choice(_PLATEAU_DENS))
    if rng.random() < 0.5:
        return ZPoint((F(1, 2), F(3, 2)), 1, v - 2)  # q_2 = v, a plateau
    w = 3 + F(rng.randrange(1, 30), rng.choice(_PLATEAU_DENS))
    return ZPoint((F(1, 2), F(3, 2), v), 1, w - 3)  # q_3 = w


def plateau_queries(rng, points, xs):
    """(k, x, e) queries for x in xs, with e an entry 2 or 3 of a list
    point: equal to it, or 1/(D*q) below or above it, where D is the lcm of
    the denominators of every entry in play (a multiple of every node's own
    lcm) and q is prime to D; and a few e off the grid."""
    D = math.lcm(*(y.entry(n).denominator for y in points + xs for n in range(6)))
    qs = [q for q in (3, 5, 7, 11, 13, 17) if math.gcd(q, D) == 1]
    queries = []
    for x in xs:
        es = [F(rng.randrange(1, 400), rng.choice((97, 101, 7))) for _ in range(4)]
        for y in rng.sample(points, 6):
            v = y.entry(rng.choice((2, 3)))
            es += [v, v - F(1, D * rng.choice(qs)), v + F(1, D * rng.choice(qs))]
        queries += [(x.first_entry_above(e), x, e) for e in es]
    return queries


def test_first_closer_over_large_denominators():
    rng = random.Random(23)
    counts = [0, 0, 0]
    for _ in range(25):
        pts = [_plateau_z(rng) for _ in range(rng.randrange(10, 40))]
        pts += [_random_z(rng) for _ in range(rng.randrange(4))]
        pts += [rng.choice(pts) for _ in range(rng.randrange(6))]
        rng.shuffle(pts)
        xs = rng.sample(pts, 2) + [_plateau_z(rng), ZPoint((F(1, 2), F(3, 2)), 1, 4)]
        counts = [c + n for c, n in zip(counts, check_closer(pts, plateau_queries(rng, pts, xs)))]
    found, unshared, at_edge = counts
    assert found > 1000 and unshared > 100 and at_edge > 100


def test_warm_z_entries_cache_is_invisible():
    # points hashed into a list's first-index table while their entries
    # caches are cold, then filled by routes and a comparison that reads
    # past every prefix
    rng = random.Random(29)
    xs = thm13_route_points() + [_random_z(rng) for _ in range(20)]
    xs += [_plateau_z(rng) for _ in range(20)]
    cold = DenseSequence(xs)
    texts, reprs = [format_point(x) for x in xs], [repr(x) for x in xs]
    dense = thm13_dense()
    longest = max(dense, key=lambda y: len(y.prefix))
    for x in xs:
        route_trace(x, dense, 40)
        x.first_difference(longest)
    assert all(len(x._entries) >= len(longest.prefix) + 2 for x in xs)
    # the pair cache is filled with the entries cache, pair for entry
    assert all(x._pairs == tuple((v.numerator, v.denominator) for v in x._entries)
               for x in xs)
    for i, x in enumerate(xs):
        fresh = ZPoint(x.prefix, x.a, x.b)
        assert x == fresh and fresh == x and hash(x) == hash(fresh)
        assert cold.first_index_of(x) == cold.first_index_of(fresh) == xs.index(x)
        assert x in cold._first_of and fresh in cold._first_of
        assert x._fields == fresh._fields == ("prefix", "a", "b")
        assert [getattr(x, name) for name in x._fields] == \
            [getattr(fresh, name) for name in fresh._fields] == [x.prefix, x.a, x.b]
        assert repr(x) == repr(fresh) == reprs[i]
        assert format_point(x) == format_point(fresh) == texts[i]
        assert parse_point(texts[i]) == x and hash(parse_point(texts[i])) == hash(x)


def test_warm_word_expansion_is_invisible():
    # points hashed into a table of first indices before any expansion,
    # then expanded by path and route traces and by words longer than any
    # the traces asked for
    rng = random.Random(31)
    xs = [cantor_point("", "0"), cantor_point("1", "01"), baire_point((3,), (0, 7))]
    xs += [WordPoint(space, tuple(rng.randrange(top) for _ in range(rng.randrange(6))),
                     tuple(rng.randrange(top) for _ in range(rng.randrange(1, 5))))
           for space, top in ((CANTOR, 2), (BAIRE, 9)) for _ in range(10)]
    cold = {}
    for i, x in enumerate(xs):
        cold.setdefault(x, i)
    texts, reprs = [format_point(x) for x in xs], [repr(x) for x in xs]
    lists = {CANTOR: DenseSequence([x for x in xs if x.space == CANTOR]),
             BAIRE: DenseSequence([x for x in xs if x.space == BAIRE])}
    for x in xs:
        route_trace(x, lists[x.space], 12)
        path_trace(x, lists[x.space], good_basis(x.space), 12)
        x.word(40)
    assert all(len(x._expanded) >= 40 for x in xs)
    for i, x in enumerate(xs):
        fresh = WordPoint(x.space, x.head, x.cycle)
        assert fresh._expanded is None
        assert x == fresh and fresh == x and hash(x) == hash(fresh)
        assert cold[x] == cold[fresh] == xs.index(x)
        assert x._fields == fresh._fields == ("space", "head", "cycle")
        assert [getattr(x, name) for name in x._fields] == \
            [getattr(fresh, name) for name in fresh._fields] == [x.space, x.head, x.cycle]
        assert repr(x) == repr(fresh) == reprs[i]
        assert format_point(x) == format_point(fresh) == texts[i]
        assert parse_point(texts[i]) == x and hash(parse_point(texts[i])) == hash(x)
        assert x.word(7) == fresh.word(7) and x.prefix(40) == fresh.prefix(40)


def test_warm_z_route_step_compares_few_fractions(monkeypatch):
    """Fraction comparisons and hashes in warm routes to the four
    Theorem-13 candidates, counted by wrapping Fraction's comparison
    methods and `__hash__`.

    A Z trace carries k from step to step, and each point caches its
    entries as int pairs (numerator, denominator).  So each step after s_0
    tests pairs for equality in `first_difference` from entry k, orders
    x_n0 against the term's entry n0 by the cross-product of their pairs,
    and walks the trie by x's pairs: no Fraction is compared or hashed.
    Once per trace, s_0's distance takes one `min` of two entries in
    `dist`, and the first step bisects x's prefix for k
    (`first_entry_above`), one comparison per halving of the prefix.  These
    traces make 1 to 3 each, 8 in all: at most 2 per trace.  The trie's
    bisect compares integers, and the extraction tests the new term's
    distance for zero, not the term for equality with x.  Comparing
    entries as Fractions, with the trie keyed by Fractions, these 305 steps
    made 626 comparisons and 6 hashes; with a bisect for k at every step
    and each term's distance compared from entry 0 by `dist`, 1,612
    comparisons."""
    dense = thm13_dense()
    xs = thm13_route_points()[:4]
    for x in xs:
        route_trace(x, dense, 100)  # trie nodes, integer keys, entries caches
    compared = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__", "__hash__"):
        def counting(*args, real=getattr(F, name)):
            compared.append(name)
            return real(*args)
        monkeypatch.setattr(F, name, counting)
    steps = sum(len(route_trace(x, dense, 100).steps) for x in xs)
    monkeypatch.undo()
    assert steps == 305 and len(compared) <= 2 * len(xs)


UNIT_POINTS = [UnitPoint(F(v)) for v in ("1/3", "2/7", "0", "1", "5/8", "999/1000")]


def unit_lists(dyadics):
    """dyadics, a 12-point prefix that runs out, a shuffled list with
    repeats, and a shuffled list with repeats that mixes thirds, fifths and
    sevenths with dyadics, so that values lie off the basis grid."""
    pts = dyadics.points[:64]
    random.Random(3).shuffle(pts)
    mixed = [UnitPoint(F(k, q)) for q in (3, 5, 7) for k in range(q + 1)] + dyadics.points[:33]
    random.Random(4).shuffle(mixed)
    return [dyadics, DenseSequence(dyadics.points[:12]),
            DenseSequence(pts + pts[::3]), DenseSequence(mixed + mixed[::4])]


def test_unit_route_matches_linear_scan(dyadics):
    stops = set()
    for dense in unit_lists(dyadics):
        for x in UNIT_POINTS:
            tr = route_trace(x, dense, 24)
            got = ([s.index for s in tr.steps], tr.points(), tr.terminated)
            assert got == linear_route(x, dense, 24), (len(dense), str(x))
            stops.add(tr.terminated)
    assert stops == {"horizon", "budget"}


def test_first_inside_matches_linear_scan(dyadics):
    rng = random.Random(5)
    for dense in unit_lists(dyadics):
        listed = sorted({pt.value for pt in dense})
        for _ in range(400):
            # open bounds equal to listed values, off-grid bounds, and empty,
            # degenerate and inverted intervals
            lo, hi = (rng.choice(listed) if rng.random() < 0.5
                      else F(rng.randrange(-3, 2 ** 12 + 3), 2 ** 12) for _ in range(2))
            want = next(((p, pt) for p, pt in enumerate(dense) if lo < pt.value < hi), None)
            if want is None:
                with pytest.raises(SearchBudgetExceeded) as exc:
                    dense.first_inside(lo, hi)
                assert exc.value.budget == len(dense)
                assert str(exc.value) == (f"no point inside ({lo}, {hi}) "
                                          f"(search budget exceeded, budget={len(dense)})")
            else:
                assert dense.first_inside(lo, hi) == want, (lo, hi)


def test_unit_path_witness_is_least_basis_index(dyadics, unit_basis):
    # each witness is the least-index basis interval holding x and s_{n+1}
    # and no earlier term, found by scanning basis.at(m) in ascending m; the
    # scan stops at the witness's own index among the intervals through x
    # (block r intervals are 2^-r long, so the walk ends below the
    # witness's length)
    for dense in unit_lists(dyadics):
        for x in UNIT_POINTS:
            tr = path_trace(x, dense, unit_basis, 8)
            for n, step in enumerate(tr.steps[:-1]):
                if step.witness is None:
                    continue
                nxt, prior = tr.steps[n + 1].point, tr.points()[:n + 1]
                walk = itertools.takewhile(lambda o: o[1].length() >= step.witness.length(),
                                           opens_through(unit_basis, x))
                own = next((m for m, iv in walk if iv == step.witness), None)
                assert own is not None, (str(x), n)
                assert least_witness(unit_basis, x, nxt, prior, own) == step.witness


def prior_free_cases(rng):
    """(x, priors) pairs for the prior-free oracle: dyadic x with a few
    priors; priors on one side of x only; up to 40 priors; x off the
    dyadic grid; priors on the ends of a block interval through x (those
    in [0, 1]) and one more point of that block's grid; and x = 0 and
    x = 1."""
    def dyadic(den):
        return F(rng.randrange(0, den + 1), den)

    def off_grid():
        q = rng.choice((3, 5, 7, 9, 11, 13))
        return F(rng.randrange(1, q), q)

    for _ in range(60):
        yield UnitPoint(dyadic(256)), [dyadic(1024) for _ in range(rng.randrange(1, 4))]
    for _ in range(20):
        x = dyadic(256)
        side = [s for s in (dyadic(1024) for _ in range(rng.randrange(1, 6)))
                if (s < x) == (rng.random() < 0.5)]
        yield UnitPoint(x), side
    for _ in range(15):
        yield UnitPoint(dyadic(256)), [dyadic(1024) for _ in range(rng.randrange(1, 41))]
    for _ in range(30):
        yield UnitPoint(off_grid()), [rng.choice((dyadic(64), off_grid()))
                                      for _ in range(rng.randrange(1, 9))]
    for _ in range(30):
        x = rng.choice((dyadic(256), off_grid()))
        D = 2 ** rng.randrange(1, 7)
        q = x * D
        k = rng.choice([k for k in (math.floor(q) - 1, math.floor(q)) if k < q < k + 2])
        ends = [F(k, D), F(k + 2, D)]  # the ends of a block interval through x
        yield UnitPoint(x), [e for e in ends + [dyadic(D)] if 0 <= e <= 1]
    for v in (0, 1):
        for _ in range(8):
            yield UnitPoint(F(v)), [dyadic(1024) for _ in range(rng.randrange(1, 6))]


def test_unit_prior_free_matches_a_basis_scan(unit_basis):
    # oracle: the basis intervals of scales 0..R through x that avoid the
    # priors, R the least r with 2^-r <= the distance from x to the priors
    checked = 0
    for x, prior in prior_free_cases(random.Random(11)):
        if not prior or x.value in prior:
            continue
        gap = min(abs(x.value - s) for s in prior)
        R = next(r for r in itertools.count() if F(1, 2 ** r) <= gap)
        scan = [W for W in map(unit_basis.at, range(unit_basis.index_of(R + 1, -1)))
                if W.member(x) and not any(W.lo < s < W.hi for s in prior)]
        a = max((s for s in prior if s < x.value), default=F(-1))
        b = min((s for s in prior if s > x.value), default=F(2))
        free = _unit_prior_free(unit_basis, x.value, a, b)
        assert [unit_basis.interval(r, k) for r, k in free] == scan, (x, prior)
        checked += 1
    assert checked >= 140


def test_warm_unit_path_step_compares_few_fractions(dyadics, unit_basis, monkeypatch):
    """Fraction comparisons of warm path traces over dyadic_dense(10) to
    points off its grid, counted by wrapping Fraction's comparison methods.

    A step reads the priors back from the last one, 1 comparison per term
    read, until the first term below x (or through all of them when there
    is none), and again until the first term above x.  Then: at most 22 in
    `first_inside`'s two bisects over the 1,025 sorted values (11 each),
    and 2 in `Dist.rational` for the new term's distance.  The last scale,
    the block candidates, both bound tests, the union's ends and the
    witness compare integers.  That is the terms read plus 24 per step,
    plus 2 per trace for d(x, s_0).  With a pass over every prior for a
    and b, and the union's ends and the witness found over Fractions,
    these traces made 2,856; testing every basis interval through x
    against every prior, 13,197 in 57 steps, about 230 per step."""
    xs = [UnitPoint(F(v)) for v in ("1/3", "2/7", "5/13", "17/19", "999/1000")]
    for x in xs:
        path_trace(x, dyadics, unit_basis, 40)  # the sorted values and range minima
    compared = []
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        def counting(a, b, real=getattr(F, name)):
            compared.append(name)
            return real(a, b)
        monkeypatch.setattr(F, name, counting)
    traces = [path_trace(x, dyadics, unit_basis, 40) for x in xs]
    monkeypatch.undo()
    # no x is a term, so every trace ends in a budget stop, and each of its
    # steps, the failed last one included, had the terms before it as priors
    assert {tr.terminated for tr in traces} == {"budget"}

    def read_back(prior, on_side):
        # the terms read from the last prior back to the first on that side
        return next((i for i, s in enumerate(reversed(prior), 1) if on_side(s)), len(prior))

    bound = 0
    for tr in traces:
        values, v = [s.point.value for s in tr.steps], tr.x.value
        bound += 2 + sum(read_back(values[:n], lambda s: s < v)
                         + read_back(values[:n], lambda s: s > v) + 24
                         for n in range(1, len(values) + 1))
    assert len(compared) <= bound


def test_last_unit_term_on_each_side_is_the_nearest_prior(dyadics, unit_basis):
    # a unit path step reads a and b off the trace's last terms on each side
    # of x; oracle: the largest prior below x and the smallest above it, by a
    # scan over all the priors of every step of every trace
    checked = 0
    for dense in unit_lists(dyadics):
        for x in UNIT_POINTS:
            values = [s.point.value for s in path_trace(x, dense, unit_basis, 40).steps]
            for n in range(1, len(values) + 1):
                prior = values[:n]
                if prior[-1] == x.value:
                    break  # the extraction takes no further step
                below = [s for s in prior if s < x.value]
                above = [s for s in prior if s > x.value]
                if below:
                    assert below[-1] == max(below), (str(x), n)
                if above:
                    assert above[-1] == min(above), (str(x), n)
                checked += 1
    assert checked >= 100


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
    dense = DenseSequence(pts)
    first = dense.first_index_of(x)
    for tr in (path_trace(x, dense, basis, 6), route_trace(x, dense, 6)):
        hits = [s.index for s in tr.steps if s.point == x]
        assert hits and set(hits) == {first}, tr.mode


# ---------------------------------------------------------------------------
# the fixed tail against the step-by-step loop
# ---------------------------------------------------------------------------


def extract_step_by_step(x, dense, N, mode, basis=None):
    """The extraction loop that copies a term equal to x one step at a time:
    the oracle for the fixed tail that the extraction appends at once."""
    trace = PathTrace(x=x, mode=mode, horizon=N)
    s0 = dense[0]
    trace.steps.append(TraceStep(0, 0, s0, dist(x, s0)))
    for n in range(N - 1):
        cur = trace.steps[-1]
        if cur.point == x:
            trace.steps.append(TraceStep(n + 1, cur.index, cur.point, Dist.zero()))
            continue
        try:
            if mode == PATH:
                p, pt, cur.witness = path_step(x, dense, trace.steps, basis)
            else:
                p, pt = route_step(x, dense, cur.dist_to_x)
        except SearchBudgetExceeded as exc:
            trace.terminated, trace.budget = "budget", exc.budget
            break
        trace.steps.append(TraceStep(n + 1, p, pt, dist(x, pt)))
    return trace


def assert_matches_step_by_step(x, dense, N, mode, basis=None):
    """The trace equals the oracle's in every step (step, index, point,
    distance, witness), in `terminated` and in `budget`; its fixed tail
    holds one point object.  Returns the trace."""
    if mode == PATH:
        tr = path_trace(x, dense, basis, N)
    else:
        tr = route_trace(x, dense, N)
    assert tr == extract_step_by_step(x, dense, N, mode, basis), (str(x), N, mode)
    tail = [s for s in tr.steps if s.point == x]
    assert all(s.point is tail[0].point for s in tail), (str(x), N, mode)
    return tr


def distinct_terms(dense, count):
    return list(dict.fromkeys(itertools.islice(dense, 4 * count)))[:count]


def test_prop25_fixed_tail_matches_step_by_step(dense25, view25, cantor_basis):
    off = [x for x in ROUTE_POINTS if not dense25.contains(x)]
    off += [cantor_point("", "110"), cantor_point("0", "001"), cantor_point("1", "0001")]
    stops, filled = set(), 0
    for dense in (dense25, view25):
        xs = distinct_terms(dense, 45) + off
        for x in xs:
            for mode in (PATH, ROUTE):
                for N in (1, 2, 5, 40):
                    tr = assert_matches_step_by_step(x, dense, N, mode, cantor_basis)
                    stops.add(tr.terminated)
                    filled += tr.steps[-1].point == x and len(tr.steps) > 1
    assert stops == {"horizon", "budget"} and filled >= 300


def test_unit_fixed_tail_matches_step_by_step(dyadics, unit_basis):
    stops, filled = set(), 0
    for dense in unit_lists(dyadics):
        for x in distinct_terms(dense, 20) + UNIT_POINTS:
            for mode in (PATH, ROUTE):
                for N in (2, 24):
                    tr = assert_matches_step_by_step(x, dense, N, mode, unit_basis)
                    stops.add(tr.terminated)
                    filled += tr.steps[-1].point == x
    assert stops == {"horizon", "budget"} and filled >= 120


def test_z_route_to_a_term_matches_step_by_step():
    dense = thm13_dense()
    for k in (0, 1, 7, 100, 361, len(dense) - 1):
        tr = assert_matches_step_by_step(dense[k], dense, 400, ROUTE)
        assert tr.terminated == "horizon" and len(tr.steps) == 400
        assert tr.steps[-2].point == dense[k], k  # a tail of two steps or more


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
