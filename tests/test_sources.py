"""One conformance suite for the dense-source contract in `path`'s module
docstring.

Each source is registered once, as a `Case`: the source, its oracle list
(the terms it must count, in order), the arguments of its space's lookup
and the points to look up by `first_index_of`.  Every lookup answer is
checked against a scan of the oracle list.  An answer past the oracle is
allowed only as the source's documented miss (a bounded source) or
`PastTableIndex` marker (an unbounded one).  The Prop-25 view and sequence
are checked against `dense25`, the materialized list of the terms their
table counts; the lists against their own points.
"""

import itertools
import random
from dataclasses import dataclass, replace
from fractions import Fraction as F
from typing import Callable, Optional

import pytest

from firstreturn.dense_builder import ClosedSet, approximates_check
from firstreturn.gallery import I16, density_report, indicator_of
from firstreturn.path import (
    PATH,
    ROUTE,
    DenseSequence,
    PastTableIndex,
    SearchBudgetExceeded,
    path_trace,
    route_step,
    route_trace,
)
from firstreturn.recover import evaluation_map, gdelta_witness, recover_at, recovery_report
from firstreturn.space import (
    BAIRE,
    CANTOR,
    Cylinder,
    Dist,
    UnitPoint,
    WordPoint,
    ZPoint,
    cantor_point,
    dist,
    good_basis,
)

CP = cantor_point


@dataclass
class Case:
    source: object
    oracle: list  # the terms the source counts, in order
    lookup: str  # the lookup of the source's space
    queries: list  # its argument tuples
    probes: list  # points for first_index_of and contains
    budget: Optional[int]
    misses: int  # queries that no oracle term answers
    x: object  # a point of the space, for the zero-radius route stop
    # unbounded: which points past the oracle are terms (for Prop-25, the
    # eventually constant points)
    is_term: Callable = None


# the query each lookup answers, and the text of its miss
HOLDS = {
    "first_extending": lambda pt, u: pt.starts_with(u),
    "first_closer": lambda pt, x, e: dist(x, pt) < Dist.pow2(e),
    "first_inside": lambda pt, lo, hi: lo < pt.value < hi,
}
MISS = {
    "first_extending": lambda u: f"no point extending prefix of length {len(u)}",
    "first_closer": lambda x, e: f"no point within 2^(-{e})",
    "first_inside": lambda lo, hi: f"no point inside ({lo}, {hi})",
}


def scan(case):
    """The least oracle index answering each query, or None.  Words take
    one pass over the oracle that records, for every word up to the
    longest query, the first index whose point extends it; the other
    lookups scan the oracle once per query."""
    if case.lookup == "first_extending":
        n = max(len(u) for u, in case.queries)
        first = {}
        for p, pt in enumerate(case.oracle):
            w = pt.prefix(n)
            for k in range(n + 1):
                first.setdefault(w[:k], p)
        return [first.get(u) for u, in case.queries]
    holds = HOLDS[case.lookup]
    return [next((p for p, pt in enumerate(case.oracle) if holds(pt, *q)), None)
            for q in case.queries]


# ---------------------------------------------------------------------------
# the registered sources
# ---------------------------------------------------------------------------


def random_word(rng, space, top, heads=14):
    """A seeded point of a word space, symbols 0..top."""
    return WordPoint(space, tuple(rng.randint(0, top) for _ in range(rng.randrange(heads))),
                     tuple(rng.randint(0, top) for _ in range(rng.randrange(1, 5))))


def word_case(rng, space, top, x, misses):
    """A seeded list with repeated points; queries are prefixes of its
    points and of fresh ones, up to 24 symbols, which can run past the
    list's key length (at most 13 + 4 + 4 - 1 = 20)."""
    pts = [random_word(rng, space, top) for _ in range(90)]
    pts += rng.sample(pts, 25)
    rng.shuffle(pts)
    fresh = [random_word(rng, space, top) for _ in range(60)]
    queries = [(pt.prefix(rng.randrange(25)),) for pt in rng.choices(pts + fresh, k=800)]
    return Case(DenseSequence(pts), pts, "first_extending", queries, pts + fresh, len(pts),
                misses, x)


def random_z(rng):
    """A Z point over a small grid, so that a list's points share entry prefixes."""
    prefix = tuple(sorted(rng.sample([F(k, 2) for k in range(8)], rng.randrange(4))))
    a = F(rng.choice((1, 2)), rng.choice((1, 2)))
    b = rng.choice((F(0), F(1, 3), F(1, 2))) + rng.randrange(4)
    if prefix and prefix[-1] >= a * len(prefix) + b:
        b = prefix[-1] - a * len(prefix) + F(1, 2)
    return ZPoint(prefix, a, b)


def z_case(rng):
    """Queries (x, e) for list points and fresh x, with e an entry of a list
    point or of x (so a point's entry can equal e), or off the entry grid."""
    pts = [random_z(rng) for _ in range(60)]
    pts += rng.sample(pts, 20)
    rng.shuffle(pts)
    fresh = [random_z(rng) for _ in range(30)]
    queries = []
    for x in rng.sample(pts, 12) + fresh[:12]:
        for _ in range(15):
            y = rng.choice(pts + [x])
            e = y.entry(rng.randrange(5)) if rng.random() < 0.6 else F(rng.randrange(50), 7)
            queries.append((x, e))
    return Case(DenseSequence(pts), pts, "first_closer", queries, pts + fresh, len(pts), 83,
                fresh[0])


def unit_case(rng):
    """Dyadics to depth 6 mixed with thirds and fifths, shuffled, with
    repeats; queries are intervals of every width down to below the list's
    gaps, some reaching past [0,1]."""
    values = {F(k, 64) for k in range(65)} | {F(k, d) for d in (3, 5) for k in range(d + 1)}
    pts = [UnitPoint(v) for v in values]
    pts += rng.sample(pts, 20)
    rng.shuffle(pts)
    queries = []
    for _ in range(300):
        lo = F(rng.randrange(-20, 1040), 1024) - F(rng.randrange(3), 3 * 1024)
        queries.append((lo, lo + F(rng.randrange(1, 9), rng.choice((4096, 1024, 7 * 64, 9)))))
    fresh = [UnitPoint(F(k, 4096)) for k in range(1, 4096, 97)] + [UnitPoint(F(1, 7))]
    return Case(DenseSequence(pts), pts, "first_inside", queries, pts + fresh, len(pts), 168,
                UnitPoint(F(1, 3)))


def prop25_words():
    """Every word up to length 14, 16,604 of which extend a term of the
    table, and seeded deeper words."""
    rng = random.Random(25)
    words = [u for n in range(15) for u in itertools.product((0, 1), repeat=n)]
    words += [tuple(rng.randrange(2) for _ in range(rng.randrange(13, 40)))
              for _ in range(20000)]
    return [(u,) for u in words + [(0,) * 20 + (1,)]]


def prop25_points(dense25):
    """The table's terms, seeded eventually constant points (every one a
    term of the unbounded sequence, most past the table), a deep term and
    three points that are no term."""
    rng = random.Random(26)
    return list(dense25) + [
        WordPoint(CANTOR, tuple(rng.randrange(2) for _ in range(rng.randrange(0, 24))),
                  (rng.randrange(2),))
        for _ in range(20000)] + [CP("0" * 20 + "1", "0"), CP("", "10"), CP("1", "011"),
                                  CP("", "001")]


NAMES = ["cantor-list", "baire-list", "z-list", "unit-list", "view25", "seq25"]
# the words up to length 14 that extend no term of the table, and 19,190
# of the 20,001 deeper ones
PROP25_MISSES = 2 ** 15 - 1 - 16604 + 19190


@pytest.fixture(scope="module")
def cases(dense25, view25, seq25):
    rng = random.Random(23)
    words, points, oracle = prop25_words(), prop25_points(dense25), list(dense25)
    return {
        "cantor-list": word_case(rng, CANTOR, 1, CP("", "10"), 155),
        "baire-list": word_case(rng, BAIRE, 30, WordPoint(BAIRE, (), (3, 1)), 233),
        "z-list": z_case(rng),
        "unit-list": unit_case(rng),
        "view25": Case(view25, oracle, "first_extending", words, points, 5864,
                       PROP25_MISSES, CP("", "10")),
        "seq25": Case(seq25, oracle, "first_extending", words, points, None,
                      PROP25_MISSES, CP("", "10"), lambda pt: tuple(pt.cycle) in ((0,), (1,))),
    }


# ---------------------------------------------------------------------------
# the contract
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", NAMES)
def test_terms_match_the_oracle(cases, name):
    case = cases[name]
    src = case.source
    assert src.budget == case.budget
    assert list(src) == case.oracle
    assert all(src[p] == pt for p, pt in enumerate(case.oracle))
    if case.budget is not None:
        assert len(src) == src.budget == len(case.oracle)
        with pytest.raises(IndexError):
            src[case.budget]


@pytest.mark.parametrize("name", NAMES)
def test_lookup_matches_linear_scan(cases, name):
    case = cases[name]
    src, n = case.source, len(case.oracle)
    lookup, holds = getattr(src, case.lookup), HOLDS[case.lookup]
    misses = 0
    for q, want in zip(case.queries, scan(case)):
        if want is not None:
            assert lookup(*q) == (want, case.oracle[want]), q
            index = want
        elif case.budget is None:
            p, pt = lookup(*q)
            assert p == PastTableIndex(n) and holds(pt, *q), q
            index = p
        else:
            with pytest.raises(SearchBudgetExceeded) as exc:
                lookup(*q)
            assert exc.value.budget == n
            assert str(exc.value) == f"{MISS[case.lookup](*q)} (search budget exceeded, budget={n})"
            index = None
        if case.lookup == "first_extending":
            assert src.first_index_extending(*q) == index, q
        misses += want is None
    assert misses == case.misses and misses < len(case.queries)


# words holding a symbol that is no bit: some no byte holds, some end in
# the byte 255, which the list's bisect cannot raise, and some run past the
# list's key length
OFF_ALPHABET = [(2,), (0, 255), (1, 256), (-1,), (255,), (300,), b"\x02", b"\x01\xff",
                (0,) * 24 + (2,), (1,) * 24 + (255,)]


@pytest.mark.parametrize("name", ["cantor-list", "view25", "seq25"])
def test_words_off_the_alphabet_extend_no_term(cases, name):
    # answered as starts_with answers them: no term extends such a word,
    # so an unbounded source misses it too
    case = cases[name]
    src, queries = case.source, [(u,) for u in OFF_ALPHABET]
    assert scan(replace(case, queries=queries)) == [None] * len(queries)
    for u in OFF_ALPHABET:
        assert src.first_index_extending(u) is None, u
        with pytest.raises(SearchBudgetExceeded) as exc:
            src.first_extending(u)
        assert exc.value.budget == case.budget
        assert str(exc.value) == (f"{MISS['first_extending'](u)} "
                                  f"(search budget exceeded, budget={case.budget})")


@pytest.mark.parametrize("name", NAMES)
def test_first_index_of_matches_linear_scan(cases, name):
    case = cases[name]
    src, n = case.source, len(case.oracle)
    first = {}
    for p, pt in enumerate(case.oracle):
        first.setdefault(pt, p)
    past = 0
    for pt in case.probes:
        want = first.get(pt)
        if want is None and case.budget is None and case.is_term(pt):
            want = PastTableIndex(n)
            past += 1
        assert src.first_index_of(pt) == want, pt
        assert src.contains(pt) == (want is not None), pt
    assert 0 < sum(pt in first for pt in case.probes) < len(case.probes)
    assert (past > 0) == (case.budget is None)


@pytest.mark.parametrize("name", NAMES)
def test_budget_signal(cases, name):
    # nothing is closer than distance 0: the route stops on every source,
    # with the source's own budget
    case = cases[name]
    with pytest.raises(SearchBudgetExceeded) as exc:
        route_step(case.x, case.source, Dist.zero())
    assert exc.value.budget == case.source.budget == case.budget
    if isinstance(case.x, UnitPoint):
        what = f"no point inside ({case.x.value}, {case.x.value})"
    else:
        what = "no point closer than distance 0"
    assert str(exc.value) == f"{what} (search budget exceeded, budget={case.budget})"


@pytest.mark.parametrize("name", NAMES)
def test_budget_stops_carry_the_source_budget(cases, name):
    # a trace that runs out of terms stops with its source's budget, in
    # either mode: no basis bounds a path
    case = cases[name]
    src = case.source
    modes = (ROUTE,) if case.lookup == "first_closer" else (PATH, ROUTE)
    basis = None if case.lookup == "first_closer" else good_basis(src.space)
    stops = 0
    for x in case.probes[::len(case.probes) // 60 + 1]:
        for mode in modes:
            tr = path_trace(x, src, basis, 20) if mode == PATH else route_trace(x, src, 20)
            if tr.terminated == "budget":
                assert tr.budget == case.budget, (mode, str(x))
                stops += 1
    assert (stops > 0) == (case.budget is not None)


# ---------------------------------------------------------------------------
# on word spaces the path is the route plus a witness
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["cantor-list", "baire-list", "view25", "seq25", "builder"])
def test_word_path_is_the_route_plus_a_witness(cases, builder_dense, name):
    src = builder_dense if name == "builder" else cases[name].source
    space, basis = src.space, good_basis(src.space)
    horizon, top = (40, 1) if space == CANTOR else (20, 30)
    rng = random.Random(9)
    xs = [random_word(rng, space, top) for _ in range(100)] + [src[p] for p in range(0, 50, 7)]
    witnesses = 0
    for x in xs:
        path, route = path_trace(x, src, basis, horizon), route_trace(x, src, horizon)
        assert [(s.index, s.point, s.dist_to_x) for s in path.steps] == \
            [(s.index, s.point, s.dist_to_x) for s in route.steps], str(x)
        assert (path.terminated, path.budget) == (route.terminated, route.budget), str(x)
        for n, s in enumerate(path.steps):
            if n + 1 < len(path.steps) and not s.dist_to_x.is_zero():
                k = int(s.dist_to_x.value)
                assert s.witness == Cylinder(space, x.prefix(k + 1)), (str(x), n)
                witnesses += 1
            else:
                assert s.witness is None, (str(x), n)
    assert witnesses > len(xs)


# ---------------------------------------------------------------------------
# every entry point runs over the unbounded sequence
# ---------------------------------------------------------------------------


def test_entry_points_run_over_the_unbounded_sequence(seq25, cantor_basis):
    x, off = CP("", "10"), CP("1", "011")
    N1 = ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")
    f = indicator_of(N1)
    assert path_trace(x, seq25, cantor_basis, 12).terminated == "horizon"
    assert route_trace(x, seq25, 12).terminated == "horizon"
    for mode in (PATH, ROUTE):
        assert recover_at(f, x, seq25, mode, 24, cantor_basis).correct
    report = recovery_report(f, seq25, PATH, [x, off], 24, cantor_basis)
    assert report["correct_rate"] == 1
    assert evaluation_map([f, I16(x)], seq25, 6)["width"] == 6
    wit = gdelta_witness(f, (1,), seq25, cantor_basis, k=1, i_max=4, horizon=12, j_budget=8)
    assert wit.membership(x)["trace_terminated"] == "horizon"
    assert [r["index"] for r in density_report(seq25, [x, off], [0, 3])] == [0, 11, 0, 10]
    assert approximates_check(seq25, N1, [x, off], 12, cantor_basis)["total"] == 2
