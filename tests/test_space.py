import itertools
import math
import operator
import random
from fractions import Fraction as F
from itertools import islice, takewhile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firstreturn.space import (
    BAIRE,
    CANTOR,
    UNIT,
    ClosedSet,
    Cylinder,
    Dist,
    NoGoodBasis,
    RationalInterval,
    SpaceMismatch,
    UnitPoint,
    WordPoint,
    ZPoint,
    baire_point,
    cantor_point,
    dist,
    first_mismatch,
    format_point,
    good_basis,
    parse_point,
    whole_space,
)

from oracles import ZBall, opens_through


# ---------------------------------------------------------------------------
# equality via canonical forms
# ---------------------------------------------------------------------------


def test_eq_eventually_zero_representations():
    assert cantor_point("", "0") == cantor_point("0", "00")


def test_eq_unit_identity():
    assert UnitPoint(F(1, 3)) == UnitPoint(F(1, 3))


def test_eq_z_prefix_absorbed_into_tail():
    a = ZPoint((F(1, 2),), 1, F(1, 2))
    b = ZPoint((), 1, F(1, 2))
    assert a == b
    # same ten initial terms
    assert [a.entry(n) for n in range(10)] == [b.entry(n) for n in range(10)]


def test_eq_space_mismatch():
    a, b = cantor_point("", "0"), baire_point((), (0,))
    assert a != b
    with pytest.raises(SpaceMismatch):
        dist(a, b)


def _seeded_word_points(seed):
    """Cantor and Baire points with short heads and cycles, so that equal
    points in different notations come up."""
    rng, points = random.Random(seed), []
    for space, top in ((CANTOR, 1), (BAIRE, 2)):
        for _ in range(120):
            head = [rng.randint(0, top) for _ in range(rng.randrange(4))]
            cycle = [rng.randint(0, top) for _ in range(rng.randint(1, 3))]
            points.append(WordPoint(space, head, cycle))
    return points


def test_word_point_equality_and_hash_are_records():
    points = _seeded_word_points(34)
    key = WordPoint._key  # the generic key of Record: (space, head, cycle)
    assert len(set(map(key, points))) < len(points)  # some points repeat
    for a in points:
        assert hash(a) == hash(key(a)) == hash((a.space, a.head, a.cycle))
        for other in (UnitPoint(F(1, 2)), ZPoint((), 1, F(1, 2)), (a.space, a.head, a.cycle)):
            assert a.__eq__(other) is NotImplemented and a != other
        for b in points:
            assert (a == b) is (key(a) == key(b)) is not (a != b)


def test_canonical_head_is_minimal():
    p = cantor_point("0110", "10")  # 0,1,1,0,1,0,... = 01 (10)^inf
    q = cantor_point("011", "01")
    assert p == q
    assert p.head == b"\x00\x01" and p.cycle == b"\x01\x00"


@given(
    head=st.lists(st.integers(0, 1), max_size=5),
    cycle=st.lists(st.integers(0, 1), min_size=1, max_size=4),
    shift=st.integers(0, 6),
)
def test_canonical_form_invariant_under_unrolling(head, cycle, shift):
    # pushing k cycle symbols into the head denotes the same sequence
    head, cycle = tuple(head), tuple(cycle)
    p = WordPoint(CANTOR, head, cycle)
    unrolled_head = head + tuple(cycle[i % len(cycle)] for i in range(shift))
    rotated = tuple(cycle[(i + shift) % len(cycle)] for i in range(len(cycle)))
    q = WordPoint(CANTOR, unrolled_head, rotated)
    assert p == q
    assert [p.at(i) for i in range(12)] == [q.at(i) for i in range(12)]


@pytest.mark.parametrize("space,head,cycle", [
    (CANTOR, (2,), (0,)), (CANTOR, (), (0, 2)),
    (BAIRE, (-1,), (0,)), (BAIRE, (3,), (1, -1)),
    (CANTOR, (-1,), (0,)), (CANTOR, (), (256,)),
])
def test_symbol_out_of_alphabet_rejected(space, head, cycle):
    with pytest.raises(ValueError, match="^symbol out of alphabet$"):
        WordPoint(space, head, cycle)


def test_baire_symbols_past_the_basis_alphabet_accepted():
    assert WordPoint(BAIRE, (9,), (9, 0)).head == (9,)


@pytest.mark.parametrize("space,head,cycle", [
    (CANTOR, (0, 1, 1, 0), (1, 0)), (CANTOR, (), (0, 0)), (CANTOR, (1,), (1,)),
    (BAIRE, (3, 0, 7), (2, 7)), (BAIRE, (300,), (0, 300, 0, 300)),
])
def test_points_from_any_symbol_sequence_are_one_point(space, head, cycle):
    # tuples, lists and bytes of the same symbols give one point: equal,
    # hashed alike and printed alike, stored in the space's word type
    kind = bytes if space == CANTOR else tuple
    forms = [(head, cycle), (list(head), list(cycle))]
    if space == CANTOR:
        forms.append((bytes(head), bytes(cycle)))
    points = [WordPoint(space, h, c) for h, c in forms]
    assert len(set(points)) == 1 and all(p == points[0] for p in points)
    assert len({hash(p) for p in points}) == 1
    assert len({format_point(p) for p in points}) == 1
    assert parse_point(format_point(points[0])) == points[0]
    for p in points:
        assert type(p.head) is kind and type(p.cycle) is kind
        assert type(p.word(9)) is kind and type(p.prefix(9)) is tuple
        assert p.prefix(9) == tuple(p.word(9)) == ref_prefix(p, 9)


# ---------------------------------------------------------------------------
# the word kernel against the per-symbol definitions
# ---------------------------------------------------------------------------


@st.composite
def word_points(draw, space=None):
    """Cantor or Baire points with heads up to 12 and cycles of lengths 1-7."""
    space = space or draw(st.sampled_from([CANTOR, BAIRE]))
    symbol = st.integers(0, 1 if space == CANTOR else 4)
    head = draw(st.lists(symbol, max_size=12))
    cycle = draw(st.lists(symbol, min_size=1, max_size=7))
    return WordPoint(space, tuple(head), tuple(cycle))


def ref_prefix(p, n):
    return tuple(p.at(i) for i in range(n))


def ref_first_difference(p, q):
    # the product of the cycle lengths is at least their lcm
    n = len(p.head) + len(q.head) + len(p.cycle) * len(q.cycle) + 1
    return next((i for i in range(n) if p.at(i) != q.at(i)), None)


@st.composite
def point_pairs(draw):
    """(p, q) in one space: unrelated, sharing a drawn prefix, or equal
    (q unrolls cycles of p into its head)."""
    p = draw(word_points())
    kind = draw(st.sampled_from(["other", "shared", "equal"]))
    if kind == "other":
        return p, draw(word_points(p.space))
    if kind == "shared":
        rest = draw(word_points(p.space))
        k = draw(st.integers(0, 30))
        return p, WordPoint(p.space, ref_prefix(p, k) + tuple(rest.head), rest.cycle)
    shift = draw(st.integers(0, 20))
    cycle = ref_prefix(p, len(p.head) + shift + len(p.cycle))[-len(p.cycle):]
    q = WordPoint(p.space, ref_prefix(p, len(p.head) + shift), cycle)
    assert q == p
    return p, q


@given(p=word_points(), n=st.integers(0, 60))
@settings(max_examples=100)
def test_prefix_matches_symbols(p, n):
    assert p.prefix(n) == ref_prefix(p, n)
    assert isinstance(p.prefix(n), tuple)
    # word: the same symbols, packed as bytes on Cantor space
    kind = bytes if p.space == CANTOR else tuple
    assert type(p.word(n)) is kind and p.word(n) == kind(ref_prefix(p, n))


@given(pair=point_pairs(), ns=st.lists(st.integers(0, 60), min_size=1, max_size=5))
@settings(max_examples=150)
def test_word_expansion_cache_matches_symbols(pair, ns):
    # words asked for in any order, each from the expansion that the
    # longest one before it left on the point, and first differences that
    # read that expansion, from entry 0 and from the first difference
    p, q = pair
    kind = bytes if p.space == CANTOR else tuple
    want, longest = ref_first_difference(p, q), 0
    for n in ns:
        w = p.word(n)
        longest = max(longest, n)
        assert type(w) is kind and w == kind(ref_prefix(p, n))
        assert len(p._expanded) >= longest
        assert p.first_difference(q) == q.first_difference(p) == want
        assert p.first_difference(q, want or 0) == want
    assert q._expanded is None


@given(p=word_points(), n=st.integers(0, 40), flip=st.integers(-1, 39), data=st.data())
@settings(max_examples=150)
def test_starts_with_matches_symbols(p, n, flip, data):
    # words of the point itself, past its head too, some with one symbol changed
    word = list(ref_prefix(p, n))
    if 0 <= flip < n:
        word[flip] = data.draw(st.integers(0, 1 if p.space == CANTOR else 4))
    want = all(p.at(i) == s for i, s in enumerate(word))
    assert p.starts_with(word) == p.starts_with(tuple(word)) == want
    # a bytes word, the Cantor word type, on both spaces
    assert p.starts_with(bytes(word)) == want
    # a symbol in neither point's words here, and one that no byte holds
    assert not p.starts_with(ref_prefix(p, n) + (5,))
    assert not p.starts_with(ref_prefix(p, n) + (256,))


@given(pair=point_pairs())
@settings(max_examples=200)
def test_first_difference_matches_symbols(pair):
    p, q = pair
    want = ref_first_difference(p, q)
    assert p.first_difference(q) == q.first_difference(p) == want
    assert (want is None) == (p == q)
    if want is not None:
        assert dist(p, q) == Dist.pow2(want)


@given(a=st.lists(st.integers(0, 2), max_size=40), b=st.lists(st.integers(0, 2), max_size=40))
@settings(max_examples=100)
def test_first_mismatch_is_least_disagreement(a, b):
    want = next((i for i, (s, t) in enumerate(zip(a, b)) if s != t), None)
    assert first_mismatch(tuple(a), tuple(b)) == want
    assert first_mismatch(bytes(a), bytes(b)) == want


@given(a=st.binary(max_size=40), b=st.binary(max_size=40))
@settings(max_examples=150)
def test_first_mismatch_on_bytes_is_least_disagreement(a, b):
    # any byte values: a differing high bit tests the byte count of the XOR
    want = next((i for i, (s, t) in enumerate(zip(a, b)) if s != t), None)
    assert first_mismatch(a, b) == first_mismatch(tuple(a), tuple(b)) == want


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 16, 141, 300])
def test_first_mismatch_on_bytes_at_either_end(n):
    # the XOR of the packed words, differing at index 0, at index n - 1 or
    # nowhere, by the lowest bit and by the highest bit of a byte
    rng = random.Random(n)
    a = bytes(rng.randrange(2) for _ in range(n))
    for i in (0, n - 1):
        for bit in (1, 0x80):
            b = a[:i] + bytes((a[i] ^ bit,)) + a[i + 1:]
            assert first_mismatch(a, b) == first_mismatch(b, a) == i
            assert first_mismatch(a, b + a) == first_mismatch(b[:i + 1], a + b) == i
    assert first_mismatch(a, a) is None and first_mismatch(a, a + a) is None
    assert first_mismatch(a[:n - 1], a) is None and first_mismatch(b"", a) is None


def test_first_difference_late_in_the_cycles():
    # the cycles agree on 11 symbols and first disagree at index 11, one
    # short of lcm(3, 12); behind a head of 5 the index moves by 5
    p = baire_point((), (0, 0, 1))
    r = baire_point((), (0, 0, 1) * 3 + (0, 0, 2))
    assert p.first_difference(r) == ref_first_difference(p, r) == 11
    head = (3, 3, 3, 3, 3)
    assert baire_point(head, p.cycle).first_difference(baire_point(head, r.cycle)) == 16


def test_first_difference_within_the_fine_wilf_bound():
    # seeded pairs whose tails share a long stretch: q's cycle is a stretch
    # of p's tail, so the tails agree on at least |c2| symbols; cycle
    # lengths run up to 13 and include coprime pairs such as 12 and 13.
    # The oracle expands both points to |h1| + |h2| + lcm(|c1|, |c2|) + 1
    # symbols; the answers must agree, from every start up to the answer
    rng = random.Random(7)
    gaps, seen = set(), set()
    for _ in range(600):
        space, top = rng.choice(((CANTOR, 1), (BAIRE, 2)))
        c1, c2 = rng.randint(1, 13), rng.randint(1, 13)
        p = WordPoint(space, tuple(rng.randint(0, top) for _ in range(rng.randrange(5))),
                      tuple(rng.randint(0, top) for _ in range(c1)))
        lead = rng.randrange(len(p.head) + 4)
        head = ref_prefix(p, lead)
        if rng.random() < 0.5:  # change one symbol of the shared head
            i = rng.randrange(lead + 1)
            head = head[:i] + tuple(rng.randint(0, top) for _ in range(lead - i))
        q = WordPoint(space, head, ref_prefix(p, lead + c2)[lead:])
        n = len(p.head) + len(q.head) + math.lcm(len(p.cycle), len(q.cycle)) + 1
        want = next((i for i in range(n) if p.at(i) != q.at(i)), None)
        assert (want is None) == (p == q)
        assert p.first_difference(q) == q.first_difference(p) == want
        for start in range(0, (n if want is None else want) + 1):
            assert p.first_difference(q, start) == q.first_difference(p, start) == want
        if want is not None:
            bound = max(len(p.head), len(q.head)) + len(p.cycle) + len(q.cycle)
            gaps.add(want - bound)
            seen.add(math.gcd(len(p.cycle), len(q.cycle)) == 1 < min(len(p.cycle), len(q.cycle)))
    # some pair disagrees only two symbols before the bound, and some pairs
    # have coprime cycles longer than one symbol
    assert max(gaps) == -2 and seen == {False, True}


# ---------------------------------------------------------------------------
# distances
# ---------------------------------------------------------------------------


def test_dist_z_first_difference_value():
    q = ZPoint((), 1, F(1, 2))  # n + 1/2
    qp = ZPoint((F(1, 2), F(7, 4)), 1, F(1, 2))
    assert dist(q, qp) == Dist.pow2(F(3, 2))


def test_dist_cantor_equal_and_first_disagreement():
    assert dist(cantor_point("", "0"), cantor_point("", "0")).is_zero()
    assert dist(cantor_point("1", "0"), cantor_point("", "1")) == Dist.pow2(1)


def test_dist_unit_absolute_difference():
    assert dist(UnitPoint(F(1, 4)), UnitPoint(F(2, 3))) == Dist.rational(F(5, 12))


def test_dist_comparisons_exact():
    assert Dist.pow2(F(3, 2)) < Dist.pow2(1)
    # a rational and a power come from different spaces: they have no order
    for r in (Dist.rational(F(1, 3)), Dist.rational(F(3, 8))):
        for a, b in ((r, Dist.pow2(F(3, 2))), (Dist.pow2(F(3, 2)), r)):
            for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                with pytest.raises(SpaceMismatch):
                    compare(a, b)
    assert Dist.zero() < Dist.rational(F(1, 10 ** 9)) < Dist.infinity()


def test_int_and_fraction_exponents_are_one_distance():
    # a word distance keeps the int index of the first disagreement; it is
    # the same distance as the Fraction exponent it once was
    k, f = Dist.pow2(3), Dist.pow2(F(3))
    assert type(k.value) is int and type(f.value) is F
    assert k == f and hash(k) == hash(f)
    assert str(k) == str(f) == "2^(-3)"
    for e in (4, F(13, 4), 3, F(3), F(11, 4), 2):
        d = Dist.pow2(e)
        assert (k < d, k <= d, k > d, k >= d) == (f < d, f <= d, f > d, f >= d)
        assert (d < k, d > k) == (d < f, d > f)
    assert Dist.pow2(F(3)) <= k <= Dist.pow2(F(3))
    assert Dist.pow2(4) < f < Dist.pow2(F(5, 2))
    with pytest.raises(ValueError):
        k.as_fraction()


# distances of one kind, each with its exact value as a (rank, value) key:
# zero, a positive rational r or 2^-e, infinity
_RATIONALS = st.fractions(min_value=0, max_value=2, max_denominator=8).map(
    lambda r: (Dist.rational(r), (1, r) if r else (0, 0)))
_POWERS = st.one_of(st.integers(0, 12), st.integers(0, 12).map(F)).map(
    lambda e: (Dist.pow2(e), (1, F(1, 2 ** e))))
_ENDS = st.sampled_from([(Dist.zero(), (0, 0)), (Dist.infinity(), (2, 0))])


@given(positive=st.sampled_from([_RATIONALS, _POWERS]), data=st.data())
@settings(max_examples=300)
def test_dist_order_matches_exact_values(positive, data):
    one_kind = st.one_of(positive, _ENDS)
    (a, x), (b, y) = data.draw(one_kind), data.draw(one_kind)
    assert (a < b, a <= b, a > b, a >= b) == (x < y, x <= y, x > y, x >= y)


_ZPOINTS = [
    ZPoint((), 1, F(1, 2)),
    ZPoint((), 1, F(1, 4)),
    ZPoint((F(1, 2), F(7, 4)), 1, F(1, 2)),
    ZPoint((F(1, 8),), 1, F(3, 4)),
    ZPoint((), 2, F(1, 3)),
    ZPoint((F(0), F(3, 4)), 1, F(1, 2)),
    ZPoint((F(1, 3), F(2, 3)), F(1, 2), F(5, 6)),
]


@pytest.mark.parametrize("i", range(len(_ZPOINTS)))
@pytest.mark.parametrize("j", range(len(_ZPOINTS)))
def test_z_metric_identity_and_symmetry(i, j):
    x, y = _ZPOINTS[i], _ZPOINTS[j]
    d = dist(x, y)
    assert d == dist(y, x)
    assert d.is_zero() == (x == y)


def test_z_ultrametric_inequality_exhaustive_sample():
    for x in _ZPOINTS:
        for y in _ZPOINTS:
            for z in _ZPOINTS:
                dxz = dist(x, z)
                m = max(dist(x, y), dist(y, z))
                assert dxz <= m


@st.composite
def cantor_points(draw):
    head = tuple(draw(st.lists(st.integers(0, 1), max_size=4)))
    cycle = tuple(draw(st.lists(st.integers(0, 1), min_size=1, max_size=3)))
    return WordPoint(CANTOR, head, cycle)


@given(x=cantor_points(), y=cantor_points(), z=cantor_points())
@settings(max_examples=150)
def test_cantor_ultrametric(x, y, z):
    assert dist(x, z) <= max(dist(x, y), dist(y, z))
    assert dist(x, y) == dist(y, x)


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_member_examples():
    assert not Cylinder(CANTOR, (0, 1)).member(cantor_point("", "0"))
    assert RationalInterval(F(1, 4), F(3, 4)).member(UnitPoint(F(1, 2)))
    q = ZPoint((), 1, F(1, 2))
    qp = ZPoint((F(1, 2), F(7, 4)), 1, F(1, 2))
    assert ZBall(qp, F(1)).member(q)  # 2^-3/2 < 2^-1
    assert not ZBall(qp, F(2)).member(q)


def test_closed_set_refuses_another_space():
    # a Baire point may share a prefix with a Cantor set's cylinder, but it
    # lies in no Cantor set; it is refused, as Cylinder.member refuses it
    ones = ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")
    x = baire_point((1, 5), (0,))
    for ask in (ones.member, ones.dist):
        with pytest.raises(SpaceMismatch):
            ask(x)
    with pytest.raises(SpaceMismatch):
        ones.meets(Cylinder(BAIRE, (1,)))
    with pytest.raises(SpaceMismatch):
        ones.intersect(ClosedSet(BAIRE, cylinders=((1,),)))
    halves = ClosedSet(UNIT, intervals=((F(0), F(1, 2)),))
    with pytest.raises(SpaceMismatch):
        halves.member(cantor_point("", "0"))
    assert ones.member(cantor_point("1", "0")) and halves.member(UnitPoint(F(1, 3)))


@pytest.mark.parametrize("space", [CANTOR, BAIRE])
def test_cylinder_and_closed_set_words_take_the_space_type(space):
    # one word given as a list, a tuple or bytes: equal records with equal
    # hashes and text, the word stored in the space's type, bytes on Cantor
    # space and a tuple on Baire space
    kind = bytes if space == CANTOR else tuple
    word = (0, 1, 1)
    forms = [list(word), word, bytes(word)]
    cylinders = [Cylinder(space, w) for w in forms]
    sets = [ClosedSet(space, cylinders=(w, []), name="F") for w in forms]
    for records in (cylinders, sets):
        assert len(set(records)) == 1 and len({hash(r) for r in records}) == 1
        assert len({repr(r) for r in records}) == 1 and len({str(r) for r in records}) == 1
    assert all(type(c.word) is kind for c in cylinders)
    assert sets[0].cylinders == (kind(), kind(word))
    assert str(cylinders[0]) == ("N(011)" if space == CANTOR else "N(0,1,1)")
    assert Cylinder(BAIRE, [300]).word == (300,)


@pytest.mark.parametrize("word", [(1, 2), (300,), [0, -1], (0, 1, 2), (True,), (1.0,)])
def test_cylinder_checks_its_word_as_closed_set_does(word):
    # a Cantor word with a symbol that is no bit (or no int) is refused
    # with ClosedSet's one-line message
    with pytest.raises(ValueError) as by_cylinder:
        Cylinder(CANTOR, word)
    with pytest.raises(ValueError) as by_set:
        ClosedSet(CANTOR, cylinders=(word,))
    assert str(by_cylinder.value) == str(by_set.value)
    assert "\n" not in str(by_cylinder.value) and "cantor alphabet" in str(by_cylinder.value)
    # and N_word meets no Cantor set, whole space included
    for F_ in (whole_space(CANTOR), ClosedSet(CANTOR, cylinders=((1,),)),
               ClosedSet(CANTOR, singletons=(cantor_point("1", "0"),))):
        assert F_.hits(word) is False
    with pytest.raises(ValueError):
        Cylinder(BAIRE, (0, -1))
    with pytest.raises(SpaceMismatch):
        Cylinder(UNIT, ())


@pytest.mark.parametrize("space,word", [(CANTOR, (2,)), (CANTOR, (0, 300)), (CANTOR, (1, -1)),
                                        (BAIRE, (-1,)), (BAIRE, (3, -2)), (BAIRE, (1.5,))])
def test_index_of_word_refuses_a_symbol_off_the_alphabet(space, word):
    with pytest.raises(ValueError) as info:
        good_basis(space).index_of_word(word)
    assert "\n" not in str(info.value) and f"{space} alphabet" in str(info.value)


def test_closed_set_refuses_a_piece_of_another_space():
    with pytest.raises(SpaceMismatch):
        ClosedSet(CANTOR, singletons=(baire_point((1,), (0,)),), intervals=((0, 1),))
    with pytest.raises(SpaceMismatch):
        ClosedSet(CANTOR, singletons=(baire_point((1,), (0,)),))
    with pytest.raises(SpaceMismatch):
        ClosedSet(UNIT, cylinders=((1,),))


_WORD_OR_NOT = st.lists(st.integers(-1, 12), max_size=4).map(tuple)


@st.composite
def _any_point(draw):
    kind = draw(st.sampled_from([CANTOR, BAIRE, UNIT, "z", "tuple"]))
    if kind in (CANTOR, BAIRE):
        return draw(word_points(kind))
    if kind == UNIT:
        return UnitPoint(draw(st.fractions(0, 1, max_denominator=8)))
    if kind == "z":
        return ZPoint((), 1, draw(st.fractions(0, 2, max_denominator=8)))
    return draw(_WORD_OR_NOT)


_PIECES = st.one_of(
    st.tuples(st.just("cylinders"), _WORD_OR_NOT),
    st.tuples(st.just("singletons"), _any_point()),
    st.tuples(st.just("intervals"), st.tuples(*[st.fractions(F(-1, 2), F(3, 2),
                                                             max_denominator=4)] * 2)),
)


def _expected_refusal(space, kind, piece):
    """The exception a piece of this kind must raise on this space, by the
    rules written out; None for a well-formed piece."""
    if kind == "cylinders":
        if space not in (CANTOR, BAIRE):
            return SpaceMismatch
        top = 1 if space == CANTOR else math.inf
        return None if all(0 <= a <= top for a in piece) else ValueError
    if kind == "singletons":
        ok = isinstance(piece, WordPoint) and piece.space == space
        return None if ok else SpaceMismatch
    if space != UNIT:
        return SpaceMismatch
    lo, hi = piece
    return None if 0 <= lo <= hi <= 1 else ValueError


@given(space=st.sampled_from([CANTOR, BAIRE, UNIT, "z"]), kind_piece=_PIECES)
@settings(max_examples=300, deadline=None)
def test_closed_set_checks_each_piece(space, kind_piece):
    kind, piece = kind_piece
    expected = _expected_refusal(space, kind, piece)
    if expected is None:
        closed = ClosedSet(space, **{kind: (piece,)})
        # a point of the piece lies in the set
        if kind == "cylinders":
            piece = WordPoint(space, piece, (0,))
        elif kind == "intervals":
            piece = UnitPoint(piece[0])
        assert closed.member(piece)
        return
    with pytest.raises(expected) as info:
        ClosedSet(space, **{kind: (piece,)})
    assert (info.type is SpaceMismatch) == (expected is SpaceMismatch)
    assert "\n" not in str(info.value)


# ---------------------------------------------------------------------------
# good bases
# ---------------------------------------------------------------------------


def test_cantor_enumeration_first_indices(cantor_basis):
    assert cantor_basis.at(0).word == b""
    assert cantor_basis.at(1).word == b"\x00"
    assert cantor_basis.at(2).word == b"\x01"
    assert cantor_basis.at(3).word == b"\x00\x00"
    for m in range(40):
        assert cantor_basis.index_of_word(cantor_basis.at(m).word) == m


def test_cylinder_nesting_gives_good_basis_property(cantor_basis):
    # U = N(1), x = 1^inf: all cylinders containing x from the length-1
    # block on are subsets of U
    x = cantor_point("", "1")
    U = Cylinder(CANTOR, (1,))
    m0 = cantor_basis.index_of_word((0,))
    for m in range(m0, m0 + 126):
        W = cantor_basis.at(m)
        if W.member(x):
            assert len(W.word) >= 1 and x.starts_with(W.word[:1])
            assert W.word[0] == 1  # hence N_w subset of N_1


def test_unit_block_one_covers_each_point(unit_basis):
    for v in (F(0), F(1, 3), F(1, 2), F(99, 100), F(1)):
        hits = unit_basis.blocks_containing(1, v)
        assert hits, v
        for k in hits:
            iv = unit_basis.interval(1, k)
            assert iv.length() == F(1, 2)
            assert iv.member(UnitPoint(v))


def test_unit_index_round_trip(unit_basis):
    for m in range(60):
        iv = unit_basis.at(m)
        # recover (r, k) from the interval and check the index
        r = 0
        while iv.length() != F(1, 2 ** r):
            r += 1
        k = iv.lo / F(1, 2 ** (r + 1))
        assert unit_basis.index_of(r, int(k)) == m


def test_good_basis_finite_horizon_check(cantor_basis, unit_basis):
    # For each space, a sample open U, a sample x in U: find m0 and verify
    # the Def-1 property over [m0, m0 + H].
    H = 200
    x = cantor_point("10", "1")
    m0 = cantor_basis.index_of_word((0, 0))
    for m in range(m0, m0 + H):
        W = cantor_basis.at(m)
        if W.member(x):
            assert W.word[:2] == b"\x01\x00"  # inside U = N(10)
    xv = UnitPoint(F(1, 3))
    # U = (1/4, 1/2); intervals of length <= 1/16 containing x sit inside U
    m0 = unit_basis.index_of(4, -1)
    for m in range(m0, m0 + H):
        iv = unit_basis.at(m)
        if iv.member(xv):
            assert iv.lo > F(1, 4) and iv.hi < F(1, 2)


_WALK_POINTS = [
    (CANTOR, cantor_point("", "0")),
    (CANTOR, cantor_point("", "1")),
    (CANTOR, cantor_point("1011", "01")),
    (BAIRE, baire_point((), (0,))),
    (BAIRE, baire_point((7, 3), (1, 7))),
    (BAIRE, baire_point((2,), (5,))),
    (BAIRE, baire_point((4, 9), (0,))),
    (UNIT, UnitPoint(F(0))),
    (UNIT, UnitPoint(F(1))),
    (UNIT, UnitPoint(F(1, 2))),
    (UNIT, UnitPoint(F(3, 8))),
    (UNIT, UnitPoint(F(255, 256))),
    (UNIT, UnitPoint(F(1, 3))),
    (UNIT, UnitPoint(F(5, 7))),
]


@pytest.mark.parametrize("space,x", _WALK_POINTS, ids=str)
def test_opens_through_matches_a_basis_scan(space, x):
    # oracle: every W_m with m <= M that contains x, by a scan of at(m)
    basis, M = good_basis(space), 600
    walk = list(takewhile(lambda o: o[0] <= M, opens_through(basis, x)))
    scan = [(m, basis.at(m)) for m in range(M + 1) if basis.at(m).member(x)]
    assert walk == scan


@pytest.mark.parametrize("space,x", _WALK_POINTS, ids=str)
def test_opens_through_stops_at_top(space, x):
    # the walk up to index top holds the opens W_m through x with m <= top,
    # so none when top < 0
    basis = good_basis(space)
    for top in (-3, -1, 0, 1, 6, 40):
        scan = [(m, basis.at(m)) for m in range(top + 1) if basis.at(m).member(x)]
        assert list(opens_through(basis, x, top)) == scan, top


_PREFIX_WALK_POINTS = [
    cantor_point("", "0"),
    cantor_point("1011", "01"),
    baire_point((7, 3), (1, 7)),
    baire_point((4, 9), (0,)),
    baire_point((2, 5, 1), (3, 11)),
    baire_point((), (6, 8)),
    baire_point((30,), (0, 1000)),
]


@pytest.mark.parametrize("x", _PREFIX_WALK_POINTS, ids=str)
def test_opens_through_carries_the_index_of_each_prefix(x):
    # oracle: index_of_word of each prefix x|l, l = 0..40
    basis = good_basis(x.space)
    want = [(basis.index_of_word(x.prefix(n)), Cylinder(x.space, x.prefix(n)))
            for n in range(41)]
    assert list(islice(opens_through(basis, x), 41)) == want


def test_no_good_basis_for_z():
    with pytest.raises(NoGoodBasis):
        good_basis("z")


def baire_words_of_key(K):
    """The Baire words t with len(t) + sum(t) = K, ascending lexicographically."""
    if K == 0:
        return [()]
    return [(s,) + t for s in range(K) for t in baire_words_of_key(K - 1 - s)]


def test_cylinder_bases_match_a_brute_force_enumeration():
    # Baire: every word of key at most 14, by key then lexicographically;
    # Cantor: every word of length at most 11, by length then lexicographically
    baire = [t for K in range(15) for t in baire_words_of_key(K)]
    cantor = [bytes(w) for n in range(12) for w in itertools.product((0, 1), repeat=n)]
    assert len(baire) == 2 ** 14 and len(cantor) == 2 ** 12 - 1
    for words, basis in [(baire, good_basis(BAIRE)), (cantor, good_basis(CANTOR))]:
        assert [basis.at(m).word for m in range(len(words))] == words
        assert [basis.index_of_word(w) for w in words] == list(range(len(words)))


def test_baire_basis_lists_cylinders_of_every_symbol():
    b = good_basis(BAIRE)
    assert [b.at(m).word for m in range(5)] == [(), (0,), (0, 0), (1,), (0, 0, 0)]
    assert b.index_of_word((7,)) == 255 and b.at(511) == Cylinder(BAIRE, (8,))
    assert b.index_of_word((9, 0)) == (2 * 1023 + 1) - 1
    big = (10 ** 3, 2)
    assert b.index_of_word(big) == (2 * (2 ** 1001 - 1) + 1) * 4 - 1
    assert b.at(b.index_of_word(big)).word == big


# ---------------------------------------------------------------------------
# point syntax
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("text", [
    "cantor:10|0", "cantor:|110", "unit:1/3", "unit:0",
    "z:[1/2,7/4];a=1;b=1/2", "z:[];a=2;b=1/3", "baire:0,2|1", "baire:|3",
])
def test_parse_format_round_trip(text):
    p = parse_point(text)
    assert parse_point(format_point(p)) == p


_UNIT_FRACTIONS = st.fractions(min_value=0, max_value=1, max_denominator=64)


def _words(space, top):
    symbols = st.integers(0, top)
    return st.builds(WordPoint, st.just(space), st.lists(symbols, max_size=6).map(tuple),
                     st.lists(symbols, min_size=1, max_size=4).map(tuple))


@st.composite
def _z_points(draw):
    a = draw(st.fractions(min_value=F(1, 8), max_value=4, max_denominator=16))
    b = draw(st.fractions(min_value=0, max_value=4, max_denominator=16))
    # an increasing prefix below the tail's value at its length
    shares = sorted(draw(st.lists(_UNIT_FRACTIONS.filter(lambda q: q < 1),
                                  unique=True, max_size=4)))
    top = a * len(shares) + b
    return ZPoint(tuple(q * top for q in shares), a, b)


@given(st.one_of(_words(CANTOR, 1), _words(BAIRE, 20),
                 st.builds(UnitPoint, _UNIT_FRACTIONS), _z_points()))
@settings(max_examples=300, deadline=None)
def test_parse_format_round_trip_random(p):
    assert parse_point(format_point(p)) == p


def test_parse_rejects_garbage():
    for bad in ("cantor:10", "unit:x", "z:[1];a=1", "nowhere:1"):
        with pytest.raises(ValueError):
            parse_point(bad)


def test_zpoint_invariants_enforced():
    with pytest.raises(ValueError):
        ZPoint((F(2), F(1)), 1, F(1, 2))  # not increasing
    with pytest.raises(ValueError):
        ZPoint((F(5),), 1, F(1, 2))  # prefix above tail
    with pytest.raises(ValueError):
        ZPoint((), -1, F(1, 2))  # nonpositive slope


@given(_z_points(), st.fractions(min_value=-2, max_value=12, max_denominator=16))
@settings(max_examples=100, deadline=None)
def test_z_first_entry_above_is_least(q, e):
    n = q.first_entry_above(e)
    assert q.entry(n) > e
    assert all(q.entry(m) <= e for m in range(n))


def ref_z_entry(p, n):
    """q_n read from the fields, not from the point's entries cache."""
    return p.prefix[n] if n < len(p.prefix) else p.a * n + p.b


def ref_z_first_difference(p, q):
    n = max(len(p.prefix), len(q.prefix)) + 8
    return next((i for i in range(n) if ref_z_entry(p, i) != ref_z_entry(q, i)), None)


@st.composite
def _z_pairs(draw):
    """(p, q): unrelated, or q sharing p's first j entries and then
    following its own affine rule, or a fresh copy of p."""
    p = draw(_z_points())
    kind = draw(st.sampled_from(["other", "shared", "equal"]))
    if kind == "other":
        return p, draw(_z_points())
    if kind == "equal":
        return p, ZPoint(p.prefix, p.a, p.b)
    j = draw(st.integers(1, len(p.prefix) + 3))
    a = draw(st.sampled_from([p.a, p.a / 2, 2 * p.a, F(1, 3)]))
    step = draw(st.sampled_from([F(1, 8), F(1, 3), p.a, p.a + 1]))
    shared = tuple(ref_z_entry(p, n) for n in range(j))
    return p, ZPoint(shared, a, shared[-1] + step - a * j)


# first differences at the last index the bound reaches, max(|p1|, |p2|) + 1
_Z_LATE_PAIRS = [
    (ZPoint((), 1, 0), ZPoint((), 2, 0)),
    (ZPoint((F(1, 2),), 1, 1), ZPoint((F(1, 2),), 2, 0)),
    (ZPoint((), 1, 0), ZPoint((F(0), F(1)), 2, -2)),
]


@given(pair=_z_pairs(), warm=st.sampled_from([None, "pair", "long"]))
@settings(max_examples=120, deadline=None)
def test_z_first_difference_matches_fields(pair, warm):
    # the entries caches start cold, filled by comparing the pair, or
    # filled past both prefixes by comparing each with a long prefix; a
    # comparison that starts at any entry up to the first difference (any
    # entry, for equal points) gives the same answer
    p, q = pair
    if warm == "pair":
        p.first_difference(q)
    if warm == "long":
        long = ZPoint(tuple(F(n, 3) for n in range(12)), 1, 0)
        p.first_difference(long), q.first_difference(long)
    want = ref_z_first_difference(p, q)
    assert (want is None) == (p == q)
    assert p.first_difference(q) == q.first_difference(p) == want
    top = max(len(p.prefix), len(q.prefix)) + 4 if want is None else want
    for start in range(top + 1):
        assert p.first_difference(q, start) == q.first_difference(p, start) == want
    if want is not None:
        assert dist(p, q) == Dist.pow2(min(ref_z_entry(p, want), ref_z_entry(q, want)))
    assert [p.entry(n) for n in range(20)] == [ref_z_entry(p, n) for n in range(20)]


@given(pair=_z_pairs(), warm=st.sampled_from([None, "pair", "long", "pair+long"]))
@settings(max_examples=120, deadline=None)
def test_z_pairs_are_the_entries_in_lowest_terms(pair, warm):
    # the pair of entry n is (numerator, denominator) of entry n on cold
    # caches, caches filled by comparing the pair, and caches extended by a
    # partner of longer prefix; and the cross-product of two pairs orders
    # the entries as Fractions do, equal entries included
    p, q = pair
    if warm in ("pair", "pair+long"):
        p.first_difference(q)
    if warm in ("long", "pair+long"):
        long = ZPoint(tuple(F(n, 3) for n in range(12)), 1, 0)
        p.first_difference(long), q.first_difference(long)
    for y in (p, q):
        assert len(y._pairs) == len(y._entries)
        for n in range(16):
            v = ref_z_entry(y, n)
            assert y.pair(n) == (v.numerator, v.denominator) and y.entry(n) == v
    for m in range(8):
        for n in range(8):
            (an, ad), (bn, bd) = p.pair(m), q.pair(n)
            v, w = ref_z_entry(p, m), ref_z_entry(q, n)
            assert ad > 0 and bd > 0
            assert (an * bd < bn * ad) == (v < w) and (bn * ad < an * bd) == (w < v)
            assert ((an, ad) == (bn, bd)) == (v == w)


@pytest.mark.parametrize("k", range(len(_Z_LATE_PAIRS)))
def test_z_first_difference_reads_the_whole_bound(k):
    p, q = _Z_LATE_PAIRS[k]
    n = max(len(p.prefix), len(q.prefix)) + 1
    assert ref_z_first_difference(p, q) == n
    assert p.first_difference(q) == q.first_difference(p) == n
    assert all(p.first_difference(q, start) == n for start in range(n + 1))
    assert p.first_difference(p) is None and p.first_difference(ZPoint(p.prefix, p.a, p.b)) is None
