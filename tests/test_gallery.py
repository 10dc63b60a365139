import itertools
import random
from fractions import Fraction as F

import pytest

from firstreturn import gallery
from firstreturn.cli import main as cli_main
from firstreturn.dense_builder import ClosedSet
from firstreturn.ebc1 import cover_from_function, delta_from_cover
from firstreturn.gallery import (
    DECOMP_DEPTH,
    E24_member,
    E27_member,
    I16,
    I25,
    PSI_MAX_LEN,
    PsiBudgetExceeded,
    density_report,
    default_table,
    e24_section_size,
    in_G,
    in_S,
    indicator_of,
    is_P_f,
    is_P_inf,
    pf_decomposition,
    phi_encode,
    prop12_distance,
    prop12_expected,
    prop12_point,
    prop25_dense,
    psi27,
    thm13_demo,
    thm13_dense,
    thm13_target,
    x_seq_point,
    z_F_member,
)
from firstreturn.path import (
    DenseSequence,
    PastTableIndex,
    path_trace,
    trace_to_csv,
    witness_violations,
)
from firstreturn.recover import recovery_report
from firstreturn.space import (
    BAIRE,
    CANTOR,
    WordPoint,
    ZPoint,
    cantor_point,
    dist,
    parse_point,
)

CP = cantor_point


# ---------------------------------------------------------------------------
# word predicates
# ---------------------------------------------------------------------------


def test_S_membership():
    assert in_S(()) and in_S((1,)) and in_S((0, 1)) and in_S((1, 1))
    assert not in_S((0,)) and not in_S((1, 0))


def test_P_inf_and_P_f_on_cycles():
    assert is_P_inf(CP("", "1")) and is_P_inf(CP("0", "01"))
    assert is_P_f(CP("", "0")) and is_P_f(CP("1011", "0"))


def test_G_requires_adjacent_ones_cofinally():
    assert in_G(CP("", "1"))
    assert in_G(CP("", "110"))
    assert in_G(CP("0", "11"))
    assert in_G(CP("", "101101"))  # wraps: ...01 10...
    assert not in_G(CP("", "10"))
    assert not in_G(CP("11", "0"))  # only finitely many pairs
    assert not in_G(CP("", "100"))


def test_pf_decomposition_gives_the_S_word():
    assert pf_decomposition(CP("", "0")) == ()
    assert pf_decomposition(CP("1011", "0")) == (1, 0, 1, 1)
    with pytest.raises(ValueError):
        pf_decomposition(CP("", "1"))


# ---------------------------------------------------------------------------
# prime encoding and psi
# ---------------------------------------------------------------------------


def test_phi_values():
    assert phi_encode(()) == 0
    assert phi_encode((1,)) == 4
    assert phi_encode((0, 1)) == 18
    assert phi_encode((1, 1)) == 36
    assert phi_encode((0, 0, 1)) == 2 * 3 * 25


def test_pruned_psi_table_equals_the_full_generation():
    # oracle: every S-word up to PSI_MAX_LEN, kept when its phi is below the
    # smallest excluded word's, sorted by phi
    cutoff = phi_encode((0,) * PSI_MAX_LEN + (1,))
    words = [()] + [bits + (1,) for n in range(PSI_MAX_LEN)
                    for bits in itertools.product((0, 1), repeat=n)]
    full = sorted((phi_encode(w), w) for w in words if phi_encode(w) < cutoff)
    assert default_table().words == [w for _, w in full]
    assert len(full) == 2932
    assert default_table() is default_table()


def test_psi_first_entries(psi_table):
    assert [psi_table.psi(n) for n in range(4)] == [(), (1,), (0, 1), (1, 1)]


def test_psi_inverse_round_trip(psi_table):
    for n in range(0, psi_table.size, 97):
        assert psi_table.psi_inv(psi_table.psi(n)) == n
    with pytest.raises(PsiBudgetExceeded):
        psi_table.psi(psi_table.size)
    with pytest.raises(ValueError):
        psi_table.psi_inv((1, 0))  # not in S


def test_psi_monotone_under_strict_extension(psi_table):
    assert psi_table.psi_inv((1,)) < psi_table.psi_inv((1, 1))
    for n in range(0, psi_table.size, 131):
        t = psi_table.psi(n)
        for cut in range(len(t)):
            s = t[:cut]
            if in_S(s):
                assert psi_table.psi_inv(s) < n


def test_x_seq_examples():
    assert x_seq_point(0) == CP("", "1")
    assert x_seq_point(1) == CP("", "0")
    assert x_seq_point(2) == CP("", "1")  # duplicate of x_0
    assert x_seq_point(3) == CP("1", "0")
    assert x_seq_point(4) == CP("01", "1")


def test_negative_indices_are_rejected(psi_table, seq25, view25):
    # no index wraps round to the end of the table
    with pytest.raises(IndexError, match="starts at psi"):
        psi_table.psi(-1)
    for bad in (lambda: x_seq_point(-1), lambda: psi27(-1)):
        with pytest.raises(IndexError):
            bad()
    for dense in (seq25, view25):  # unbounded, bounded
        for p in (-1, -2, -5864):
            with pytest.raises(IndexError, match=f"x_{p}: the sequence starts at x_0"):
                dense[p]


def test_prop25_view_builds_no_term_for_a_lookup(monkeypatch):
    calls = []
    real = gallery.x_seq_point
    monkeypatch.setattr(gallery, "x_seq_point", lambda p: calls.append(p) or real(p))
    view = prop25_dense()
    assert view.first_index_extending(()) == 0
    assert calls == [] and not isinstance(view, DenseSequence)


def test_prop25_lookups_from_every_symbol_type(seq25, view25):
    # a term rebuilt from tuples, from bytes, or with a cycle unrolled into
    # its head is looked up by its least index; first_index_of compares the
    # cycle with the packed constant cycles, so a cycle held in another type
    # must not read as a non-term
    first = {}
    for p in range(200):
        first.setdefault(x_seq_point(p), p)
    for p in range(200):
        pt = x_seq_point(p)
        head, cycle = tuple(pt.head), tuple(pt.cycle)
        for h, c in ((head, cycle), (bytes(head), bytes(cycle)), (list(head), list(cycle)),
                     (head + cycle * 3, cycle)):
            q = WordPoint(pt.space, h, c)
            for dense in (seq25, view25):
                assert dense.first_index_of(q) == first[pt], (p, h, c)
                assert dense.contains(q)
    # a cycle that is not constant: no term of either sequence
    for q in (CP("", "10"), CP("1", "01"), WordPoint(CANTOR, (0, 1), (0, 0, 1)),
              WordPoint(CANTOR, b"", b"\x01\x01\x00")):
        for dense in (seq25, view25):
            assert dense.first_index_of(q) is None and not dense.contains(q)


def test_prop25_sequence_path_reaches_horizon(seq25, cantor_basis):
    x = CP("", "10")
    tr = path_trace(x, seq25, cantor_basis, 32)
    assert tr.terminated == "horizon" and len(tr.steps) == 32
    lens = [x.first_difference(s.point) for s in tr.steps]
    assert all(a < b for a, b in zip(lens, lens[1:]))
    assert witness_violations(tr) == []
    assert any(isinstance(s.index, PastTableIndex) for s in tr.steps)
    assert ",>=5864," in trace_to_csv(tr)


# ---------------------------------------------------------------------------
# the function families
# ---------------------------------------------------------------------------


def test_I16_values():
    assert I16(CP("", "1"))(CP("", "01")) == 0  # beta has infinitely many 1s
    assert I16(CP("", "1"))(CP("1", "0")) == 1
    assert I16(CP("", "0"))(CP("1", "0")) == 0
    assert I16(CP("", "0"))(CP("", "0")) == 1  # the zero point always maps to 1


def test_I16_injective_on_split_pairs():
    # alpha and alpha' splitting at n with alpha(n) = 0: the witness point
    # alpha|n.10^inf separates the two functions
    pairs = [(CP("0", "01"), CP("1", "01")), (CP("10", "0"), CP("11", "0")),
             (CP("010", "1"), CP("011", "1"))]
    for a, ap in pairs:
        n = a.first_difference(ap)
        lo, hi = (a, ap) if a.at(n) == 0 else (ap, a)
        beta = WordPoint("cantor", lo.prefix(n) + (1,), (0,))
        assert I16(lo)(beta) == 0
        assert I16(hi)(beta) == 1


def test_I25_values():
    assert I25(CP("", "10"))(CP("", "01")) == 1  # beta in P_inf
    assert I25(CP("110", "0"))(CP("1", "0")) == 0  # alpha extends 11
    assert I25(CP("100", "0"))(CP("1", "0")) == 1
    assert I25(CP("", "1"))(CP("", "1")) == 1


_BAIRE_SETS = [
    ClosedSet(BAIRE, singletons=(parse_point("baire:3,1|2"),), name="{baire:3,1|2}"),
    ClosedSet(BAIRE, cylinders=((3,), (0, 7)), name="N(3) u N(0,7)"),
]
_BAIRE_PROBES = ["baire:5|0", "baire:3,1|2", "baire:3|0", "baire:0,7,1|4", "baire:0,6|7",
                 "baire:3,1,2,2,2,6|1", "baire:7,7|0"]


@pytest.mark.parametrize("closed", _BAIRE_SETS, ids=str)
def test_baire_indicator_zero_pieces_are_baire_cylinders(closed, monkeypatch):
    calls = [0]
    real = ClosedSet.hits

    def hits(self, word):
        calls[0] += 1
        return real(self, word)

    monkeypatch.setattr(ClosedSet, "hits", hits)
    f = indicator_of(closed)
    zeros = f.decomposition[0]
    # the search stops at the set's own cylinders: a full descent to depth
    # 8 over 8 symbols would ask millions of words
    assert calls[0] <= DECOMP_DEPTH * (DECOMP_DEPTH + 1)
    monkeypatch.setattr(ClosedSet, "hits", real)
    assert zeros
    for piece in zeros:
        assert piece.space == BAIRE and not piece.singletons
        (word,) = piece.cylinders
        assert all(s < DECOMP_DEPTH for s in word)
        assert not closed.hits(word), piece  # the piece misses the set
    for text in _BAIRE_PROBES:
        x = parse_point(text)
        # each probe leaves the set within DECOMP_DEPTH symbols, if at all
        assert any(piece.member(x) for piece in zeros) == (f(x) == 0), text


# ---------------------------------------------------------------------------
# declared decompositions: built on first read
# ---------------------------------------------------------------------------


@pytest.fixture
def complement_calls(monkeypatch):
    """The sets `_complement_pieces` is asked for, in call order."""
    calls, real = [], gallery._complement_pieces

    def counted(avoid):
        calls.append(avoid)
        return real(avoid)

    monkeypatch.setattr(gallery, "_complement_pieces", counted)
    return calls


_N1_AND_POINT = ClosedSet(CANTOR, cylinders=((1,),), singletons=(CP("0", "01"),))


def test_constructors_build_no_decomposition(complement_calls):
    alpha = CP("", "110")
    fs = [I16(alpha), I25(alpha), indicator_of(_N1_AND_POINT)]
    assert complement_calls == []
    for f in fs:
        assert f.decomposition is f.decomposition  # built once, then kept
    assert len(complement_calls) == 3


def test_recovery_builds_no_decomposition(complement_calls, view25, cantor_basis):
    alpha = CP("", "110")
    points = [alpha] + list(itertools.islice(view25, 12))
    for f in (I16(alpha), I25(alpha), indicator_of(_N1_AND_POINT)):
        rep = recovery_report(f, view25, "path", points, 40, cantor_basis, window=6)
        assert rep["converged_rate"] > 0
    assert complement_calls == []


@pytest.mark.parametrize("args", [
    ["recover", "--fn", "I25", "--alpha", "cantor:|110", "--horizon", "40",
     "--window", "6", "--max-points", "4"],
    ["recover", "--fn", "singleton:cantor:1|0", "--horizon", "40", "--max-points", "4"],
    ["gallery", "eval", "--fn", "I16", "--alpha", "cantor:|110", "--beta", "cantor:1|0"],
], ids=["recover-I25", "recover-singleton", "gallery-eval"])
def test_cli_recovery_builds_no_decomposition(complement_calls, tmp_path, args):
    assert cli_main(args + ["--out", str(tmp_path / "o")]) == 0
    assert complement_calls == []


# the (heads, cycles, in G only) grids of acceptance criterion 5's alphas:
# (b) the 20 off the Prop-25 list, (c) the 20 of those in G
_CRITERION5_GRIDS = [
    ([(), (1,), (0,), (1, 1), (0, 1), (0, 0), (1, 0)],
     [(0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0, 0), (1, 0)], False),
    ([(), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 1), (0, 1, 0)],
     [(1, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0), (1, 1, 0, 1, 0)], True),
]


def _criterion5_alphas(view25, heads, cycles, in_g_only):
    alphas = []
    for head in heads:
        for cyc in cycles:
            pt = WordPoint(CANTOR, head, cyc)
            if (in_G(pt) or not in_g_only) and pt not in alphas and not view25.contains(pt):
                alphas.append(pt)
    return alphas[:20]


def _eager_decomposition(kind, arg):
    """The decomposition the constructor declares, built at once from the
    same module functions."""
    single, complement = gallery._singleton, gallery._complement_pieces
    if kind == "indicator":
        return {1: [arg], 0: complement(arg)}
    word = arg.prefix(64)
    if kind == "I16":
        ones_at = [n for n, bit in enumerate(word) if bit == 1][:DECOMP_DEPTH - 1]
        ones = [CP("", "0")] + [WordPoint(CANTOR, word[:n + 1], (0,)) for n in ones_at]
        zero = complement(ClosedSet(CANTOR, singletons=tuple(ones) + (arg,)))
        if not is_P_f(arg):
            zero = zero + [single(arg)]
        return {1: [single(pt) for pt in ones], 0: zero}
    zeros = [WordPoint(CANTOR, word[:n], (0,))
             for n in gallery._s_before_one(word)[:DECOMP_DEPTH]]
    avoid = ClosedSet(CANTOR, singletons=tuple(zeros) + (arg,))
    return {0: [single(pt) for pt in zeros], 1: complement(avoid) + [single(arg)]}


def _seeded_sets(seed, count):
    rng = random.Random(seed)
    sets = []
    for _ in range(count):
        word = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
        head = [rng.randrange(2) for _ in range(rng.randrange(4))]
        cycle = [rng.randrange(2) for _ in range(rng.randrange(1, 3))]
        sets.append(ClosedSet(CANTOR, cylinders=(word,),
                              singletons=(WordPoint(CANTOR, head, cycle),)))
    return sets


def test_decomposition_equals_the_eager_one(view25):
    cases = []
    for grid in _CRITERION5_GRIDS:
        alphas = _criterion5_alphas(view25, *grid)
        assert len(alphas) == 20
        cases += [(kind, alpha) for alpha in alphas for kind in ("I16", "I25")]
    cases += [("indicator", closed) for closed in _seeded_sets(36, 10) + _BAIRE_SETS]
    builders = {"I16": I16, "I25": I25, "indicator": indicator_of}
    for kind, arg in cases:
        f = builders[kind](arg)
        built = f.decomposition
        # piece for piece and in the same order, values included
        assert list(built.items()) == list(_eager_decomposition(kind, arg).items()), arg
        assert f.decomposition is built


# ---------------------------------------------------------------------------
# the depth contract of the S-word indicators I16 and I25
# ---------------------------------------------------------------------------

# every eventually periodic Cantor point with a head of at most 9 symbols
# and a cycle of at most 2: 2,048 distinct points
_SHORT_POINTS = list(dict.fromkeys(
    WordPoint(CANTOR, head, cycle)
    for k in range(10) for head in itertools.product((0, 1), repeat=k)
    for m in (1, 2) for cycle in itertools.product((0, 1), repeat=m)))


# 1^inf; 1^8.0^inf, whose 1-set under I16 has more points than the
# decomposition lists, alpha the last of them; (110)^inf; 0^12 1.1^inf
@pytest.mark.parametrize("alpha", [CP("", "1"), CP("11111111", "0"), CP("", "110"),
                                   CP("0" * 12 + "1", "1")], ids=str)
@pytest.mark.parametrize("build", [I16, I25], ids=["I16", "I25"])
def test_s_word_indicator_keeps_its_depth_contract(build, alpha):
    assert len(_SHORT_POINTS) == 2048
    f = build(alpha)
    pieces = [(value, piece) for value, group in f.decomposition.items() for piece in group]
    # the listed points, alpha among the anchors whether listed or not
    anchors = [pt for _, piece in pieces for pt in piece.singletons] + [alpha]
    for beta in _SHORT_POINTS:
        held = [value for value, piece in pieces if piece.member(beta)]
        assert all(value == f(beta) for value in held), (beta, held)
        if beta in anchors or all(beta.first_difference(a) < DECOMP_DEPTH for a in anchors):
            assert held, beta
    delta_from_cover(cover_from_function(f, F(1, 2)), alpha)  # alpha is covered


# ---------------------------------------------------------------------------
# complement pieces, against brute force
# ---------------------------------------------------------------------------


def _words_at_depth(space, rng):
    """Every word of length DECOMP_DEPTH over the search's alphabet on
    Cantor space; a seeded sample of them on Baire space.  The words are
    in the space's word type, as the pieces' cylinder words are."""
    if space == CANTOR:
        return [bytes(w) for w in itertools.product((0, 1), repeat=DECOMP_DEPTH)]
    return [tuple(rng.randrange(DECOMP_DEPTH) for _ in range(DECOMP_DEPTH))
            for _ in range(3000)]


def _misses(closed, word):
    """N(word) misses the set: no cylinder of it is comparable with word,
    and no singleton starts with it (symbol by symbol, not by `hits`)."""
    n = len(word)
    return (all(c[:n] != word and word[:len(c)] != c for c in closed.cylinders)
            and all(s.prefix(n) != tuple(word) for s in closed.singletons))


def _brute_force_sets():
    rng = random.Random(2536)
    sets = list(_BAIRE_SETS) + _seeded_sets(7, 6)
    sets.append(ClosedSet(CANTOR, singletons=(CP("", "0"), CP("1", "0"), CP("", "1"))))
    sets.append(ClosedSet(CANTOR))

    def symbols(k):
        return tuple(rng.randrange(11) for _ in range(k))

    for _ in range(4):
        sets.append(ClosedSet(BAIRE, cylinders=(symbols(rng.randrange(1, 4)),),
                              singletons=(WordPoint(BAIRE, symbols(3), symbols(2)),)))
    return sets


@pytest.mark.parametrize("closed", _brute_force_sets(), ids=str)
def test_complement_pieces_against_brute_force(closed):
    space, rng = closed.space, random.Random(str(closed))
    pieces = gallery._complement_pieces(closed)
    words = [piece.cylinders[0] for piece in pieces]
    assert all(piece.space == space and len(piece.cylinders) == 1 and not piece.singletons
               for piece in pieces)
    # each piece misses the set: no sampled point lies in both.  The points
    # of the set that a wrong piece would hold are among the samples: the
    # singletons, the cylinders' own points and each piece's own points.
    stems = list(closed.cylinders) + words
    samples = list(closed.singletons)
    samples += [WordPoint(space, stem, (a,)) for stem in stems for a in (0, 1)]
    for piece in pieces:
        for x in samples:
            assert not (piece.member(x) and closed.member(x)), (piece, x)
    # no two pieces overlap: no piece's word is a prefix of another's
    for i, a in enumerate(words):
        for b in words[i + 1:]:
            assert a[:len(b)] != b and b[:len(a)] != a, (a, b)
    # with the set, they cover every word of the search depth it misses
    for word in _words_at_depth(space, rng):
        if _misses(closed, word):
            assert any(word[:len(w)] == w for w in words), word


def test_E24_membership():
    a, b0 = CP("0", "01"), CP("", "01")
    assert E24_member(b0, a)  # beta in P_inf
    assert E24_member(CP("1", "0"), CP("", "0"))  # alpha outside N(1)
    assert E24_member(CP("1", "0"), CP("10", "1"))  # alpha in N(10)
    assert not E24_member(CP("1", "0"), CP("11", "0"))  # alpha in N(11)


def test_E24_sections_grow_exactly_on_G():
    inside = CP("", "110")  # in G
    outside = CP("", "10")  # infinitely many 1s but no adjacent pair
    assert in_G(inside) and not in_G(outside)
    assert e24_section_size(inside, 64) > e24_section_size(inside, 32)
    assert e24_section_size(outside, 64) == e24_section_size(outside, 32)


def test_E27_membership(psi_table):
    zero = CP("", "0")
    assert E27_member(CP("01", "10"), zero)  # alpha = 0^inf
    assert psi27(1) == CP("1", "0")
    assert not E27_member(psi27(1), CP("01", "1"))  # p = 1 branch excluded
    assert E27_member(CP("11", "0"), CP("01", "1"))
    assert E27_member(psi27(1), CP("001", "1"))  # p = 2: different psi point


# ---------------------------------------------------------------------------
# the ultrametric space Z
# ---------------------------------------------------------------------------


def test_z_F_membership_cases():
    assert z_F_member(ZPoint((), 1, F(1, 2)))
    assert not z_F_member(ZPoint((F(3, 2),), 1, F(1)))  # q_0 >= 1
    assert not z_F_member(ZPoint((), 2, F(0)))  # slope 2 escapes
    assert not z_F_member(ZPoint((), 1, F(0)))  # boundary b = 0
    assert z_F_member(thm13_target())


def test_prop12_distances_exact_and_decreasing():
    prev = None
    for n in range(21):
        d = prop12_distance(n)
        assert d == prop12_expected(n)
        if prev is not None:
            assert d < prev
        assert Dist_half_lt(d)
        prev = d


def Dist_half_lt(d):
    from firstreturn.space import Dist

    return Dist.pow2(1) < d  # 2^-1 < d, infimum not attained


def test_thm13_dense_is_probed_dense():
    dense = thm13_dense()
    target = thm13_target()
    rep = density_report(dense, [target], scales=(1, 2, 3))
    assert all(r["index"] is not None for r in rep)


def test_density_report_records_a_budget_stop():
    # the first two ladder points lie within 2^-2 of the target but not
    # within 2^-3: that scale's search stops, and the report records no index
    short = DenseSequence(list(thm13_dense())[:2])
    rep = density_report(short, [thm13_target()], scales=(1, 2, 3))
    assert [(r["scale"], r["index"]) for r in rep] == [(1, 0), (2, 0), (3, None)]


def test_thm13_demo_small_horizon_still_flips():
    rep = thm13_demo(horizon=150)
    assert isinstance(rep, dict)
    assert rep["found"] and rep["flips_after"] >= 5
    assert any(c.get("skipped") == "x in D" for c in rep["candidates"])
    assert rep["positive_control"]["verdict"].startswith("converged")


def test_thm13_ladder_membership_alternates():
    dense = thm13_dense()
    flags = [z_F_member(dense[k]) for k in range(10)]
    assert flags == [True, False] * 5
