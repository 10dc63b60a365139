import itertools
import random
import time
from collections import Counter
from fractions import Fraction as F

import pytest

from firstreturn import dense_builder
from firstreturn.cli import dyadic_dense
from firstreturn.dense_builder import (
    G_CAP,
    ClosedSet,
    a_f_of_g,
    approximates_check,
    build_dense,
    whole_space,
)
from firstreturn.ebc1 import cover_from_function
from firstreturn.gallery import I16, indicator_of, x_seq_point
from firstreturn.path import DenseSequence, path_trace
from firstreturn.space import (
    BAIRE,
    CANTOR,
    UNIT,
    Cylinder,
    Dist,
    UnitPoint,
    WordPoint,
    baire_point,
    cantor_point,
    dist,
    first_mismatch,
    good_basis,
)

from oracles import opens_through, tree_consistency_violations

F0 = ClosedSet(CANTOR, cylinders=((1,),), name="F0")
F1 = ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="F1")


def bword(*bits):
    return WordPoint(CANTOR, tuple(bits), (0,))


# ---------------------------------------------------------------------------
# exact closed sets
# ---------------------------------------------------------------------------


def test_closed_set_membership_and_tree_oracle():
    s = ClosedSet(CANTOR, cylinders=((1, 1),),
                  singletons=(cantor_point("", "0"),))
    assert s.member(cantor_point("11", "01"))
    assert s.member(cantor_point("", "0"))
    assert not s.member(cantor_point("10", "0"))
    assert s.hits((1,)) and s.hits((0,)) and s.hits((1, 1, 0))
    assert not s.hits((1, 0)) and not s.hits((0, 1))
    assert tree_consistency_violations(s, depth=6) == []


def test_tree_consistency_walks_the_sets_own_alphabet():
    # the children of a Baire word run over the symbols up to the set's
    # largest, so the exact oracle of N(3) is consistent at the root
    assert tree_consistency_violations(ClosedSet(BAIRE, cylinders=((3,),)), 3) == []
    assert tree_consistency_violations(
        ClosedSet(BAIRE, singletons=(WordPoint(BAIRE, (7, 1), (2,)),)), 3) == []


def test_closed_set_exact_distance():
    s = ClosedSet(CANTOR, cylinders=((1, 1),))
    assert s.dist(cantor_point("11", "0")).is_zero()
    assert s.dist(cantor_point("10", "0")) == Dist.pow2(1)
    assert s.dist(cantor_point("", "0")) == Dist.pow2(0)
    u = ClosedSet(UNIT, intervals=((F(0), F(1, 2)),))
    assert u.dist(UnitPoint(F(3, 5))) == Dist.rational(F(1, 10))
    assert u.dist(UnitPoint(F(1, 4))).is_zero()
    assert ClosedSet(CANTOR).dist(cantor_point("", "0")) == Dist.infinity()


def test_closed_set_intersection_exact():
    both = F0.intersect(F1)
    assert both.member(cantor_point("11", "10"))
    assert not both.member(cantor_point("10", "1"))
    assert not both.member(cantor_point("01", "1"))
    empty = F0.intersect(ClosedSet(CANTOR, cylinders=((0, 0),)))
    assert empty.is_empty()


def random_word(rng, space, lo, hi):
    return tuple(rng.randrange(2 if space == CANTOR else 4) for _ in range(rng.randrange(lo, hi)))


def random_word_point(rng, space):
    return WordPoint(space, random_word(rng, space, 0, 7), random_word(rng, space, 1, 3))


def random_word_sets(rng, space, count):
    """count seeded (cylinders, singletons) pairs over a small alphabet."""
    return [(tuple(random_word(rng, space, 0, 5) for _ in range(rng.randrange(3))),
             tuple(random_word_point(rng, space) for _ in range(rng.randrange(4))))
            for _ in range(count)]


@pytest.mark.parametrize("space", [CANTOR, BAIRE])
def test_closed_set_distance_with_singletons(space):
    # a singleton set is as close to p as its nearest point; a set of
    # cylinders and singletons is as close as the nearer of its two parts
    rng = random.Random(17)
    cases = 0
    for cyl, sing in random_word_sets(rng, space, 60):
        points = [random_word_point(rng, space) for _ in range(10)] + list(sing)
        for p in points:
            whole = ClosedSet(space, cylinders=cyl, singletons=sing).dist(p)
            by_cyl = ClosedSet(space, cylinders=cyl).dist(p)
            by_sing = ClosedSet(space, singletons=sing).dist(p)
            if sing:
                cases += 1
                assert by_sing == min(dist(p, s) for s in sing)
            assert whole == (by_cyl if by_cyl < by_sing else by_sing)
    assert cases >= 300


def word_dist_by_pieces(S, p):
    """A word-space distance read piece by piece: 0 inside a cylinder, else
    the least of 2^-i at each cylinder's first mismatch i and of the
    distances to the singletons."""
    best = None
    for w in S.cylinders:
        i = first_mismatch(p.prefix(len(w)), tuple(w))
        if i is None:
            return Dist.zero()
        d = Dist.pow2(i)
        best = d if best is None or d < best else best
    for s in S.singletons:
        d = dist(p, s)
        best = d if best is None or d < best else best
    return best


@pytest.mark.parametrize("space", [CANTOR, BAIRE])
def test_closed_set_distance_matches_the_per_piece_oracle(monkeypatch, space):
    # on seeded sets of cylinders and singletons, at points on the set (its
    # singletons, points inside its cylinders) and off it; a point on the
    # set hits at every depth, so each distance may ask the tree oracle
    # only a bounded number of times
    rng = random.Random(23)
    asked = [0]
    real_hits = ClosedSet.hits

    def hits(self, word):
        asked[0] += 1
        assert asked[0] <= 64, "hits asked at every depth"
        return real_hits(self, word)

    monkeypatch.setattr(ClosedSet, "hits", hits)
    on = off = 0
    for cyl, sing in random_word_sets(rng, space, 80):
        if not (cyl or sing):
            continue
        S = ClosedSet(space, cylinders=cyl, singletons=sing)
        inside = [WordPoint(space, w, random_word(rng, space, 1, 3)) for w in cyl]
        for p in [random_word_point(rng, space) for _ in range(10)] + inside + list(sing):
            asked[0] = 0
            d = S.dist(p)
            assert d == word_dist_by_pieces(S, p), (S, str(p))
            assert d.is_zero() == S.member(p)
            on += d.is_zero()
            off += not d.is_zero()
    assert on >= 100 and off >= 300


def word_dist_by_depth(S, p):
    """The definition of a word-space distance to a nonempty closed set: 0
    on the set, else 2^-n for the largest n with hits(p|n), found by asking
    the tree oracle one depth after another."""
    if S.member(p):
        return Dist.zero()
    n = 0
    while S.hits(p.prefix(n + 1)):
        n += 1
    return Dist.pow2(n)


@pytest.mark.parametrize("space", [CANTOR, BAIRE])
def test_closed_set_distance_matches_its_definition(space):
    # on seeded sets, at random points and at points that follow one of
    # the set's pieces for a while and then leave it
    rng = random.Random(37)
    cases = 0
    for cyl, sing in random_word_sets(rng, space, 300):
        if not (cyl or sing):
            continue
        S = ClosedSet(space, cylinders=cyl, singletons=sing)
        near = list(cyl) + [s.prefix(rng.randrange(12)) for s in sing]
        points = [random_word_point(rng, space) for _ in range(6)]
        points += [WordPoint(space, w[:rng.randrange(len(w) + 1)] + random_word(rng, space, 0, 4),
                             random_word(rng, space, 1, 3)) for w in near]
        for p in points:
            assert S.dist(p) == word_dist_by_depth(S, p), (S, str(p))
            cases += 1
    assert cases >= 2000


@pytest.mark.parametrize("space", [CANTOR, BAIRE])
def test_closed_set_intersection_membership(space):
    # membership in A /\ B is membership in both, on seeded points and on
    # every singleton of either set (kept from A's side or from B's)
    rng = random.Random(19)
    kept = Counter()
    sets = random_word_sets(rng, space, 80)
    for (cyl_a, sing_a), (cyl_b, sing_b) in zip(sets[::2], sets[1::2]):
        A = ClosedSet(space, cylinders=cyl_a, singletons=sing_a)
        B = ClosedSet(space, cylinders=cyl_b, singletons=sing_b)
        both = A.intersect(B)
        for x in [random_word_point(rng, space) for _ in range(20)] + list(sing_a) + list(sing_b):
            assert both.member(x) == (A.member(x) and B.member(x)), (A, B, str(x))
        kept["A"] += sum(s in both.singletons for s in sing_a)
        kept["B"] += sum(s in both.singletons and s not in sing_a for s in sing_b)
    assert kept["A"] >= 5 and kept["B"] >= 5


def test_meets_open_interval_cases():
    u = ClosedSet(UNIT, intervals=((F(1, 2), F(1, 2)),))  # the point 1/2
    from firstreturn.space import RationalInterval

    assert u.meets(RationalInterval(F(1, 4), F(3, 4)))
    assert not u.meets(RationalInterval(F(1, 2), F(3, 4)))  # open at 1/2


# ---------------------------------------------------------------------------
# the augmentation A^F(G)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def q64():
    return [x_seq_point(p) for p in range(64)]


def test_afog_subset_of_f_yields_nothing(q64, cantor_basis):
    picks, trunc = a_f_of_g(F0, [q64.index(cantor_point("", "1"))], cantor_basis, q64, 6)
    assert picks == [] and trunc == []


def test_afog_whole_space_yields_nothing(q64, cantor_basis):
    picks, _ = a_f_of_g(whole_space(CANTOR), [q64.index(cantor_point("", "0"))],
                        cantor_basis, q64, 6)
    assert picks == []


def test_afog_hand_evaluation(q64, cantor_basis):
    # x = 0^inf outside F0 = N(1): among cylinders of length <= 2 only the
    # empty one contains x and meets F0, so the single pick is the first
    # enumerated point with first symbol 1, which is x_0 = 1^inf.
    picks, trunc = a_f_of_g(F0, [q64.index(cantor_point("", "0"))], cantor_basis, q64, 6)
    assert trunc == []
    assert picks == [(0, 0)] and q64[0] == cantor_point("", "1")


def test_equal_closed_sets_share_one_memo_entry(q64, cantor_basis):
    # a ClosedSet hashes its fields once; two equal sets built separately
    # hash equal, so a_f_of_g's calls over them share one memo entry
    def make(cyl):
        return ClosedSet(CANTOR, cylinders=cyl, singletons=(cantor_point("1", "0"),), name="S")

    a, b = make(((0, 1, 1), (0, 0))), make([[0, 0], (0, 1, 1)])
    assert a is not b and a == b and hash(a) == hash(b)
    memo = {}
    G = [q64.index(cantor_point("", "1"))]  # outside S
    first = a_f_of_g(a, G, cantor_basis, q64, 6, memo)
    assert first[0] and a_f_of_g(b, G, cantor_basis, q64, 6, memo) == first
    assert [k for k in memo if isinstance(k, ClosedSet)] == [a]


def test_afog_records_truncation(cantor_basis):
    # F reachable in the basis but with no representative in the enumeration
    lonely = ClosedSet(CANTOR, singletons=(cantor_point("", "01"),), name="L")
    q = [bword(), bword(1), bword(1, 1)]
    picks, trunc = a_f_of_g(lonely, [q.index(bword(1, 1))], cantor_basis, q, 6)
    assert picks == []
    assert trunc and "exhausted" in trunc[0]


def afog_by_definition(F, G, basis, q_enum, m_budget):
    """A^F(G) read off its definition: for each x in G\\F and m = 0..m_budget
    with x in W_m = basis.at(m) and W_m meeting F, the first q_i in W_m /\\ F
    by a linear scan.  G's ids are read as the points q_enum[x], and a pick
    is (i, m) for a point not picked before.  Returns (picks, truncations,
    opens missing F)."""
    picks, seen, truncations, misses = [], set(), [], 0
    for x in (q_enum[x] for x in G):
        if F.member(x):
            continue
        for m in range(m_budget + 1):
            W = basis.at(m)
            if not W.member(x):
                continue
            if not F.meets(W):
                misses += 1
                continue
            found = next((i for i, q in enumerate(q_enum) if W.member(q) and F.member(q)), None)
            if found is None:
                truncations.append(f"minidx scan exhausted for W={W} F={F}")
            elif q_enum[found] not in seen:
                seen.add(q_enum[found])
                picks.append((found, m))
    return picks, truncations, misses


def _builder_calls(monkeypatch, families, q, basis, m_budget, stages=None):
    """(F, G, result) of every a_f_of_g call of one build, in its order; the
    calls share the build's memo.  G holds ids, and every id is the first
    index of its point q[x]."""
    calls = []
    real = dense_builder.a_f_of_g

    def spy(F, G, *rest):
        result = real(F, G, *rest)
        assert all(q.index(q[x]) == x for x in G), [str(q[x]) for x in G]
        calls.append((F, list(G), result))
        return result

    monkeypatch.setattr(dense_builder, "a_f_of_g", spy)
    build_dense(families, q, basis, m_budget=m_budget, stages=stages)
    monkeypatch.undo()
    return calls


_UNIT_A = ClosedSet(UNIT, intervals=((F(0), F(1, 2)),), name="A")
_UNIT_B = ClosedSet(UNIT, intervals=((F(1, 4), F(1, 4)), (F(5, 7), F(1))), name="B")


@pytest.mark.parametrize("case", ["cantor", "cantor-lonely", "unit-sorted", "unit-shuffled"])
def test_afog_matches_definition(monkeypatch, q64, cantor_basis, unit_basis, case):
    if case.startswith("cantor"):
        basis, m_budget, stages = cantor_basis, 6, 40
        families = [F0, F1]
        if case == "cantor-lonely":  # met by opens, but no q_i lies in it
            families = [ClosedSet(CANTOR, singletons=(cantor_point("", "01"),), name="L"), F0]
        q = q64
    else:
        basis, m_budget, stages = unit_basis, 60, 40
        families = [_UNIT_A, _UNIT_B]
        q = list(dyadic_dense(7))
        if case == "unit-shuffled":
            random.Random(5).shuffle(q)
        else:
            q.sort(key=lambda p: p.value)
    calls = _builder_calls(monkeypatch, families, q, basis, m_budget, stages)
    assert calls
    truncations = misses = 0
    for F_, G, shared in calls:
        picks, trunc, missed = afog_by_definition(F_, G, basis, q, m_budget)
        assert shared == (picks, trunc), (str(F_), [str(q[x]) for x in G])
        assert a_f_of_g(F_, G, basis, q, m_budget) == shared
        truncations += len(trunc)
        misses += missed
    assert misses > 0
    if case in ("cantor-lonely", "unit-shuffled"):
        assert truncations > 0


def test_baire_walks_stop_before_a_huge_symbol(monkeypatch):
    # a prefix ending in symbol s has index at least 2^(s+1) - 1, so under
    # m_budget 30 no basis walk reads past a symbol of 5 bits or more, and
    # none builds the index of a prefix ending in 10**9, a 10**9-bit int;
    # the picks are those of the definition's walk over m = 0..30
    basis, big, m_budget = good_basis(BAIRE), 10 ** 9, 30
    huge = [baire_point((big,), (0,)), baire_point((1, big), (2,)),
            baire_point((2,), (big, 0))]
    q = [baire_point((), (0,)), huge[0], huge[1], baire_point((1,), (0,)),
         baire_point((0, 1), (1,)), huge[2], baire_point((1, 0), (0,)),
         baire_point((0,), (3,))]
    families = [ClosedSet(BAIRE, cylinders=((1,),), name="N(1)"),
                ClosedSet(BAIRE, cylinders=((0,), (1, 0)), name="N(0)+N(1,0)")]
    symbols, real = [], type(basis)._extend
    monkeypatch.setattr(type(basis), "_extend",
                        lambda self, m, s: symbols.append(s) or real(self, m, s))
    start = time.process_time()
    calls = _builder_calls(monkeypatch, families, q, basis, m_budget)
    assert time.process_time() - start < 0.5
    assert symbols and max(symbols) < m_budget.bit_length()
    assert any(q[x] in huge and not F_.member(q[x]) for F_, G, _ in calls for x in G)
    for F_, G, shared in calls:
        picks, trunc, _ = afog_by_definition(F_, G, basis, q, m_budget)
        assert shared == (picks, trunc), (str(F_), [str(q[x]) for x in G])


@pytest.fixture(scope="module")
def ladder_inputs():
    """Criterion 3's ladder enumeration for three targets, with I = 3."""
    targets = [cantor_point("101", "0110"), cantor_point("1101", "01"),
               cantor_point("1100", "011")]
    q = []
    for length in range(6):
        for head in itertools.product((0, 1), repeat=length):
            q += [pt for pt in (WordPoint(CANTOR, head, (0,)), WordPoint(CANTOR, head, (1,)))
                  if pt not in q]
    for k in range(3, 141):
        q += [WordPoint(CANTOR, x.prefix(k) + (1 - x.at(k),), (0,)) for x in targets]
    families = [F0, F1, ClosedSet(CANTOR, cylinders=((1, 1, 0),), name="N(110)")]
    return families, q


def test_build_covers_each_point_once(monkeypatch, cantor_basis, ladder_inputs):
    families, q = ladder_inputs
    covered = Counter()
    real = type(cantor_basis).indices_through

    def cover(self, x, top=None):
        covered[x] += 1
        return real(self, x, top)

    monkeypatch.setattr(type(cantor_basis), "indices_through", cover)
    build_dense(families, q, cantor_basis, m_budget=14)
    assert covered and max(covered.values()) == 1


def test_build_asks_each_open_meets_set_once(monkeypatch, cantor_basis, ladder_inputs):
    # at most m_budget + 1 opens W_m for each of the 2^I sets F_sigma
    families, q = ladder_inputs
    calls = [0]
    real = ClosedSet.meets

    def meets(self, W):
        calls[0] += 1
        return real(self, W)

    monkeypatch.setattr(ClosedSet, "meets", meets)
    staged = build_dense(families, q, cantor_basis, m_budget=14)
    assert len(staged.dense) > 400
    assert 0 < calls[0] <= (14 + 1) * 2 ** len(families)


def test_build_makes_cylinders_only_in_basis_at(monkeypatch, cantor_basis, ladder_inputs):
    # tooling guard: the walks yield indices and build no open, so every
    # cylinder a build makes is a basis.at(m) answer, one per open whose
    # answer a_f_of_g works out (it asks F.meets of it) or one per
    # truncation message
    families, q = ladder_inputs
    built, outside, at_calls, meets_calls = [0], [0], [0], [0]
    in_at = [False]
    real_init, real_at, real_meets = Cylinder.__init__, type(cantor_basis).at, ClosedSet.meets

    def init(self, space, word):
        built[0] += 1
        outside[0] += not in_at[0]
        real_init(self, space, word)

    def at(self, m):
        at_calls[0] += 1
        in_at[0] = True
        try:
            return real_at(self, m)
        finally:
            in_at[0] = False

    def meets(self, W):
        meets_calls[0] += 1
        return real_meets(self, W)

    monkeypatch.setattr(Cylinder, "__init__", init)
    monkeypatch.setattr(type(cantor_basis), "at", at)
    monkeypatch.setattr(ClosedSet, "meets", meets)
    staged = build_dense(families, q, cantor_basis, m_budget=14)
    exhausted = sum("minidx scan exhausted" in t for t in staged.truncations)
    assert outside[0] == 0
    assert 0 < built[0] == at_calls[0] <= meets_calls[0] + exhausted


# ---------------------------------------------------------------------------
# the staged build
# ---------------------------------------------------------------------------


def test_build_refuses_an_empty_enumeration(cantor_basis):
    # an empty enumeration is refused up front, with closed sets or without
    for families in ([], [F0]):
        with pytest.raises(ValueError, match="^empty enumeration"):
            build_dense(families, [], cantor_basis)


def test_build_no_constraints_keeps_enumeration_order(q64, cantor_basis):
    staged = build_dense([], q64, cantor_basis, stages=16)
    seen = []
    for pt in q64[:16]:
        if pt not in seen:
            seen.append(pt)
    assert list(staged.dense) == seen


def _f_sigmas(families, space):
    """Each sigma's F_sigma, the whole space intersected with the selected
    sets in index order."""
    f_sigma = {}
    for bits in itertools.product((0, 1), repeat=len(families)):
        F_ = whole_space(space)
        for j, b in enumerate(bits):
            if b:
                F_ = F_.intersect(families[j])
        f_sigma[bits] = F_
    return f_sigma


def test_build_skips_the_empty_sigma(monkeypatch, q64, cantor_basis):
    # A^F(G) is empty when G lies inside F, so a stage asks a_f_of_g for a
    # sigma != 0..0 only when its G, as the stage's picks grow it, has a
    # point outside F_sigma; sigma = 0..0 selects F = X and is never asked.
    # A stage whose seed lies in every set of its width asks nothing; any
    # other stage computes unless an earlier stage of its class (width,
    # seed mask, seed walk up to m_budget) was stored and did not pick its
    # seed, and then it replays with no call.  A stage that computes is
    # stored unless a_f_of_g returned its own seed among its picks.
    families, stages, m_budget = [F0, F1], 24, 6
    calls = _builder_calls(monkeypatch, families, q64, cantor_basis, m_budget, stages=stages)
    staged = build_dense(families, q64, cantor_basis, m_budget=m_budget, stages=stages)
    f_sigma = _f_sigmas(families, CANTOR)
    picked = {}
    for r in staged.records:
        if len(r) == 6 and r[2] == "pick":
            picked.setdefault(r[:2], []).append(r[5])
    want, asked_at = [], []
    for i in range(stages):
        G, width = [q64.index(q64[i])], min(i, 2)
        for bits in itertools.product((0, 1), repeat=width):
            F_ = f_sigma[bits + (0,) * (2 - width)]
            if any(bits) and not all(F_.member(q64[x]) for x in G):
                want.append((F_, list(G)))
                asked_at.append(i)
            G += picked.get((i, bits), [])
    stored, computing = {}, set()
    for i in range(stages):
        seed, every = q64.index(q64[i]), (1 << min(i, 2)) - 1
        mask = sum(1 << j for j, F_ in enumerate(families) if F_.member(q64[i]))
        if mask & every == every:
            continue
        key = (every, mask, tuple(cantor_basis.indices_through(q64[i], m_budget)))
        if key in stored and seed not in stored[key]:
            continue
        computing.add(i)
        own = [x for (F_, G), at in zip(want, asked_at) if at == i
               for x, _ in afog_by_definition(F_, G, cantor_basis, q64, m_budget)[0]]
        if seed not in own:
            stored[key] = {r[5] for r in staged.records if len(r) == 6 and r[0] == i}
    assert {i for i in range(stages) if i not in computing and i in asked_at}
    assert [(F_, G) for F_, G, _ in calls] == [w for w, at in zip(want, asked_at)
                                               if at in computing]
    assert 0 < len(want) < sum(2 ** min(i, 2) - 1 for i in range(stages))
    for F_, G, _ in calls:
        assert F_ != whole_space(CANTOR)
        assert any(not F_.member(q64[x]) for x in G), (str(F_), G)


def stage_of(staged):
    """point -> the stage whose block holds it, from the build's blocks"""
    return {pt: i for i, block in enumerate(staged.blocks) for pt in block}


def test_build_drops_picks_past_the_stage_cap(cantor_basis):
    # at stage 1, x = 0^inf lies outside F = {0^k 1 0^inf : 1 <= k <= 70},
    # and for k <= 70 the first point of F in N(0^k) is 0^k 1 0^inf: 70
    # picks for a G that holds G_CAP points at most
    spikes = [bword(*(0,) * k, 1) for k in range(1, 71)]
    spiky = ClosedSet(CANTOR, singletons=tuple(spikes), name="spikes")
    q = [cantor_point("", "1"), cantor_point("", "0")] + spikes
    # N(0^70) has basis index 2^70 - 1
    staged = build_dense([spiky], q, cantor_basis, m_budget=2 ** 70 - 1)
    dropped = spikes[G_CAP - 1:]
    # the picks are members of F, so the seed comes last
    assert staged.blocks[1] == spikes[:G_CAP - 1] + [cantor_point("", "0")]
    drops = [ln for ln in staged.log if " drop=" in ln]
    assert [ln.split(" via ")[0] for ln in drops] == [f"stage=1 sigma=1 drop={pt}" for pt in dropped]
    assert staged.truncations == ["stage=1 g_cap reached; pick dropped"] * len(dropped)
    # a dropped point still enters the sequence by its own stage
    assert all(stage_of(staged)[pt] == q.index(pt) for pt in dropped)


def test_build_one_set_orders_members_first(q64, cantor_basis):
    staged = build_dense([F0], q64, cantor_basis, stages=32)
    for i, block in enumerate(staged.blocks):
        if i == 0:
            continue
        flags = [1 if F0.member(pt) else 0 for pt in block]
        assert flags == sorted(flags, reverse=True), (i, flags)


def test_build_narrow_stage_sorts_on_its_own_width(cantor_basis):
    # stage 1 has width 1 of I = 2: its picks p1 = 010^inf and
    # p2 = 0010^inf both lie in F_0 and tie there, so they keep their pick
    # order although only p2 lies in F_1; the seed 0^inf, outside F_0, is last
    p1, p2, seed = bword(0, 1), bword(0, 0, 1), cantor_point("", "0")
    families = [ClosedSet(CANTOR, singletons=(p1, p2), name="P"),
                ClosedSet(CANTOR, singletons=(p2,), name="P2")]
    q = [cantor_point("", "1"), seed, p1, p2]
    staged = build_dense(families, q, cantor_basis, stages=2, m_budget=6)
    assert staged.blocks[1] == [p1, p2, seed]
    assert staged.blocks == point_keyed_build(families, q, cantor_basis, 2, 6)["blocks"]


def test_build_deterministic(q64, cantor_basis):
    a = build_dense([F0, F1], q64, cantor_basis, stages=24)
    b = build_dense([F0, F1], q64, cantor_basis, stages=24)
    assert a.log == b.log
    assert list(a.dense) == list(b.dense)


def test_build_log_format(q64, cantor_basis):
    staged = build_dense([F0], q64, cantor_basis, stages=24)
    picks = [ln for ln in staged.log if " pick=" in ln]
    assert picks, "expected at least one pick"
    for ln in picks:
        assert ln.startswith("stage=") and "sigma=" in ln
        assert "via m=" in ln and "minidx=" in ln


def test_priority_pick_precedes_offender(cantor_basis):
    # Adversarial enumeration: 10^inf comes long before any point of
    # F0 /\ F1 = N(11).  For x inside N(11), the hypothetical offender
    # y = 10^inf (which extends x|1) would break the approximation, and the
    # construction must have pulled the first enumerated N(11)-member in
    # front of it -- which is also why the actual path never visits y.
    families = [F0, F1]
    q = [bword(), bword(0, 1), bword(1), bword(0, 0), bword(0, 1, 1),
         bword(1, 0), bword(0, 0, 1), bword(1, 1), bword(1, 1, 1),
         bword(1, 1, 0), bword(1, 0, 1)]
    q += [WordPoint(CANTOR, (), (1,)), WordPoint(CANTOR, (1, 1), (1,))]
    staged = build_dense(families, q, cantor_basis, stages=len(q))
    x = cantor_point("11", "01")
    assert not staged.dense.contains(x)

    # offenders: x is in F_1, these are not (violated index i = 1), they
    # share x's membership in F_0, and they entered at a stage j > i where
    # the full sigma machinery was active
    f_sigma = F0.intersect(F1)
    checked, stages = 0, stage_of(staged)
    for y in staged.dense:
        if f_sigma.member(y) or not y.starts_with((1, 0)):
            continue
        if stages[y] <= 1:
            continue  # the proof's offender enters at a stage beyond i
        word = x.prefix(x.first_difference(y))  # proof's W contains x and y
        z = next(qq for qq in q if qq.starts_with(word) and f_sigma.member(qq))
        assert staged.dense.first_index_of(z) is not None
        assert staged.dense.first_index_of(z) < staged.dense.first_index_of(y)
        checked += 1
    assert checked >= 1

    # consequence: after the first |families| steps the path stays inside
    # every F_i containing x
    tr = path_trace(x, staged.dense, cantor_basis, 10)
    for step in tr.steps[2:]:
        assert f_sigma.member(step.point)


def _point_keyed_afog(F, G, basis, q_enum, m_budget, memo):
    """The point-keyed A^F(G) of the builder before point ids: G holds
    points, picks are (point, via_m, min_index), and the memo is keyed by
    points, closed sets and opens."""
    answers = memo.setdefault(F, {})
    picks, seen, truncations = [], set(), []
    for x in G:
        if F.member(x):
            continue
        opens = memo.get(x)
        if opens is None:
            opens = memo[x] = list(itertools.takewhile(lambda o: o[0] <= m_budget,
                                                       opens_through(basis, x)))
        for m, W in opens:
            if W not in answers:
                answers[W] = F.meets(W) and next(
                    (i for i, q in enumerate(q_enum) if W.member(q) and F.member(q)), None)
            found = answers[W]
            if found is False:
                continue
            if found is None:
                truncations.append(f"minidx scan exhausted for W={W} F={F}")
                continue
            pt = q_enum[found]
            if pt not in seen:
                seen.add(pt)
                picks.append((pt, m, found))
    return picks, truncations


def point_keyed_build(families, q_enum, basis, stages=None, m_budget=30):
    """The staged build before point ids, as the oracle of build_dense: G,
    the memo and stage_of are keyed by points, and each log line is
    formatted when it is made."""
    I = len(families)
    stages = len(q_enum) if stages is None else min(stages, len(q_enum))
    f_sigma = {}
    for bits in itertools.product((0, 1), repeat=I):
        F_ = whole_space(q_enum[0].space)
        for j, b in enumerate(bits):
            if b:
                F_ = F_.intersect(families[j])
        f_sigma[bits] = F_
    blocks, stage_of, flat, log, truncations, memo = [], {}, [], [], [], {}
    for i in range(stages):
        seed = q_enum[i]
        width = min(i, I)
        G, g_members = [seed], {seed}
        log.append(f"stage={i} seed={seed}")
        for bits in itertools.islice(itertools.product((0, 1), repeat=width), 1, None):
            F_ = f_sigma[bits + (0,) * (I - width)]
            picks, trunc = _point_keyed_afog(F_, G, basis, q_enum, m_budget, memo)
            truncations.extend(f"stage={i} {t}" for t in trunc)
            for pt, via_m, min_i in picks:
                if pt in g_members:
                    continue
                if len(G) >= G_CAP:
                    truncations.append(f"stage={i} g_cap reached; pick dropped")
                    action = "drop"
                else:
                    G.append(pt)
                    g_members.add(pt)
                    action = "pick"
                sigma = "".join(map(str, bits))
                log.append(f"stage={i} sigma={sigma} {action}={pt} via m={via_m} minidx={min_i}")
        block = sorted((pt for pt in G if pt not in stage_of),
                       key=lambda pt: [not F_.member(pt) for F_ in families[:width]])
        for pt in block:
            stage_of[pt] = i
        blocks.append(block)
        flat.extend(block)
    return {"blocks": blocks, "stage_of": list(stage_of.items()), "log": log,
            "truncations": truncations, "dense": flat}


def _oracle_cases(ladder_inputs):
    """(name, families, q, stages, m_budget) of the build oracle test."""
    families, q = ladder_inputs
    # an earlier point after every third one, so many points repeat and a
    # point's first and last index differ
    repeated = [pt for k, p in enumerate(q) for pt in ((p, q[k // 2]) if k % 3 == 2 else (p,))]
    targets = ClosedSet(CANTOR, singletons=tuple(q[-3:]), name="targets")
    q64 = [x_seq_point(p) for p in range(64)]
    lonely = ClosedSet(CANTOR, singletons=(cantor_point("", "01"),), name="L")
    unit = list(dyadic_dense(7))
    random.Random(5).shuffle(unit)
    spikes = [bword(*(0,) * k, 1) for k in range(1, 71)]
    spiky = ClosedSet(CANTOR, singletons=tuple(spikes), name="spikes")
    # z = 0^inf and s = 0010^inf share their mask and walk up to m = 6, so
    # their stages are of one class; s's stage picks 1^inf and then z, and
    # z's stage, which picks itself, comes before it and again after it
    pair = [ClosedSet(CANTOR, cylinders=((0, 0),), name="N(00)"),
            ClosedSet(CANTOR, cylinders=((1, 1),), name="N(11)")]
    z = cantor_point("", "0")
    repicked = [bword(0, 1), bword(1, 0), z, cantor_point("", "1"), bword(0, 0, 1), z]
    return [
        ("ladder-repeated", families, repeated, None, 14),
        ("ladder-singletons", [targets, F0], repeated, None, 14),
        ("short-stages", [F0, F1], q64, 24, 6),
        ("unit-sorted", [_UNIT_A, _UNIT_B], sorted(unit, key=lambda p: p.value), 40, 60),
        ("unit-shuffled", [_UNIT_A, _UNIT_B], unit, 40, 60),
        ("g-cap-drops", [spiky], [cantor_point("", "1"), cantor_point("", "0")] + spikes,
         None, 2 ** 70 - 1),
        ("exhausted-scan", [lonely, F0], q64, 40, 6),
        ("seed-repicked", pair, repicked, None, 6),
    ]


def test_f_sigma_membership_is_the_conjunction(ladder_inputs):
    # the build reads membership in F_sigma off per-point family masks,
    # which holds as intersect is exact: over every enumeration of the
    # build oracle, a point lies in F_sigma iff it lies in each selected set
    seen = Counter()
    for name, families, q, _, _ in _oracle_cases(ladder_inputs):
        for bits, F_ in _f_sigmas(families, q[0].space).items():
            for pt in set(q):
                inside = F_.member(pt)
                assert inside == all(F.member(pt) for F, b in zip(families, bits) if b), \
                    (name, bits, str(pt))
                seen[inside] += 1
    assert seen[True] >= 1000 and seen[False] >= 1000, seen


def test_build_matches_the_point_keyed_build(cantor_basis, unit_basis, ladder_inputs):
    # the id-keyed build with its log formatted on read gives the blocks,
    # stage_of, log lines, truncations and sequence of the point-keyed one
    seen = Counter()
    for name, families, q, stages, m_budget in _oracle_cases(ladder_inputs):
        basis = unit_basis if q[0].space == UNIT else cantor_basis
        staged = build_dense(families, q, basis, stages=stages, m_budget=m_budget)
        want = point_keyed_build(families, q, basis, stages=stages, m_budget=m_budget)
        got = {"blocks": staged.blocks, "stage_of": list(stage_of(staged).items()),
               "log": staged.log, "truncations": staged.truncations,
               "dense": list(staged.dense)}
        for key in want:
            assert got[key] == want[key], (name, key)
        seen["repeats"] += len(q) - len(set(q))
        seen["drops"] += sum(" drop=" in ln for ln in want["log"])
        seen["exhausted"] += sum("exhausted" in t for t in want["truncations"])
        seen["narrow picks"] += sum(" sigma=" in ln and len(ln.split(" sigma=")[1].split()[0])
                                    < len(families) for ln in want["log"])
    assert seen["repeats"] >= 300 and seen["drops"] >= 7
    assert seen["exhausted"] >= 1 and seen["narrow picks"] >= 4, seen


# ---------------------------------------------------------------------------
# approximation diagnostics
# ---------------------------------------------------------------------------


def test_whole_space_never_violated(q64, cantor_basis):
    dense = DenseSequence(q64)
    xs = [cantor_point("", "10"), cantor_point("1", "100")]
    rep = approximates_check(dense, whole_space(CANTOR), xs, 16, cantor_basis)
    assert rep["clean"] == 2
    assert all(not r["violations"] for r in rep["points"])


def test_adversarial_order_shows_early_violations(q64, cantor_basis):
    # all non-F0 points first: the path starts with a burst of violations
    bad = sorted(q64, key=lambda p: 1 if F0.member(p) else 0)
    dense = DenseSequence(bad)
    x = cantor_point("1", "01")
    rep = approximates_check(dense, F0, [x], 12, cantor_basis, window=4)
    violations = rep["points"][0]["violations"]
    assert violations and violations[0][0] == 0


def test_approximates_preconditions(q64, cantor_basis):
    dense = DenseSequence(q64)
    with pytest.raises(ValueError):
        approximates_check(dense, F0, [cantor_point("0", "0")], 8, cantor_basis)
    with pytest.raises(ValueError):
        approximates_check(dense, F0, [cantor_point("", "1")], 8, cantor_basis)


# ---------------------------------------------------------------------------
# declared decompositions
# ---------------------------------------------------------------------------


def test_family_from_clopen_indicator():
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    pieces = cover_from_function(f, F(1, 2)).pieces
    names = {str(p) for p in pieces}
    assert "N(1)" in names and any("N(0" in n for n in names)


def test_family_from_singleton_indicator():
    zero = cantor_point("", "0")
    f = indicator_of(ClosedSet(CANTOR, singletons=(zero,), name="{0^inf}"))
    pieces = cover_from_function(f, F(1, 2)).pieces
    # the 0-part consists of cylinders 0^k 1
    cyl_words = [p.cylinders[0] for p in pieces if p.cylinders]
    assert b"\x01" in cyl_words and b"\x00\x01" in cyl_words and b"\x00\x00\x01" in cyl_words
    assert any(p.singletons == (zero,) for p in pieces)


def test_family_from_I16_mentions_zero_point():
    alpha = cantor_point("", "1")
    f = I16(alpha)
    pieces = cover_from_function(f, F(1, 2)).pieces
    zero = cantor_point("", "0")
    assert any(zero in p.singletons for p in pieces)
    # the 1-set contains alpha|(n+1).0^inf at 1s of alpha
    assert any(cantor_point("1", "0") in p.singletons for p in pieces)


def test_family_from_I16_keeps_every_piece():
    f = I16(cantor_point("", "1"))
    assert len(cover_from_function(f, F(1, 2)).pieces) == 37


def test_family_requires_decomposition():
    from firstreturn.recover import FunctionOracle

    plain = FunctionOracle("anon", lambda p: 0, space=CANTOR)
    with pytest.raises(ValueError):
        cover_from_function(plain, F(1, 2))
