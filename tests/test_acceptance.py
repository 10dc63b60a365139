"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from firstreturn import cli as fr_cli
from firstreturn.dense_builder import ClosedSet, build_dense, whole_space
from firstreturn.ebc1 import ebc1_check
from firstreturn.gallery import (
    I25,
    ebc1_cover,
    first_one_scale,
    in_G,
    indicator_of,
    prop12_distance,
    prop12_expected,
    thm13_demo,
    z_F_member,
)
from firstreturn.path import DenseSequence, path_trace, witness_violations
from firstreturn.recover import gdelta_witness, recover_at
from firstreturn.rank import (
    DiffForm,
    FiniteAlgebra,
    chain_from_diff,
    d_xi_eval,
    diff_from_chain,
    is_valid_chain,
    rank_LAB,
    rank_Lf,
)
from firstreturn.space import (
    BAIRE,
    CANTOR,
    UNIT,
    Dist,
    UnitPoint,
    WordPoint,
    ZPoint,
    cantor_point,
    dist,
    good_basis,
)

from oracles import ZBall, all_min_chains, brute_force_min_chain


def crit(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert ok, f"criterion {number}: {detail}"


# ---------------------------------------------------------------------------
# criteria 1 + 2: path convergence engine and witness soundness
# ---------------------------------------------------------------------------


def _baire_dense():
    pts = []
    for length in range(5):
        for head in itertools.product(range(4), repeat=length):
            pts.append(WordPoint(BAIRE, head, (0,)))
    return DenseSequence(pts)


def _word_samples(space, dense, count):
    on = []
    for pt in dense:
        if pt not in on:
            on.append(pt)
        if len(on) >= count:
            break
    cycles = [(0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0, 0), (2, 1), (0, 3)]
    cycles = [c for c in cycles if space == BAIRE or max(c) <= 1]
    off = []
    for length in range(6):
        alphabet = range(4) if space == BAIRE else range(2)
        for head in itertools.product(alphabet, repeat=length):
            for cyc in cycles:
                pt = WordPoint(space, head, cyc)
                if not dense.contains(pt) and pt not in off:
                    off.append(pt)
                if len(off) >= count:
                    return on, off
    return on, off


def _unit_samples(dense, count):
    on = []
    for pt in dense:
        if pt not in on:
            on.append(pt)
        if len(on) >= count:
            break
    off = []
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 29, 31, 37):
        for k in range(1, q):
            off.append(UnitPoint(F(k, q)))
            if len(off) >= count:
                return on, off
    return on, off


def _check_word_trace(x, tr):
    if tr.steps[-1].point == x:
        hit = next(n for n, s in enumerate(tr.steps) if s.point == x)
        assert all(s.point == x for s in tr.steps[hit:])
        return "fixed"
    lens = [x.first_difference(s.point) for s in tr.steps]
    assert all(a < b for a, b in zip(lens, lens[1:])), "prefix growth broken"
    assert tr.terminated in ("horizon", "budget")
    if tr.terminated == "budget":
        assert tr.budget is not None
    return "growing"


def _check_unit_trace(x, tr):
    if tr.steps[-1].point == x:
        return "fixed"
    wits = [s.witness for s in tr.steps if s.witness is not None]
    assert len(set(wits)) == len(wits), "witnesses repeat"
    lengths = [w.length() for w in wits]
    for scale in set(lengths):
        assert lengths.count(scale) <= 2, "more than two witnesses per scale"
    for n, s in enumerate(tr.steps[:-1]):
        if s.witness is not None:
            nxt = tr.steps[n + 1]
            assert nxt.dist_to_x < Dist.rational(s.witness.length())
    # distinct witnesses through x, at most 2 per scale: the distance bound
    # halves every two non-fixed steps
    c = len(wits)
    if c >= 3:
        bound = Dist.rational(F(1, 2 ** ((c - 1) // 2 - 1)))
        assert tr.steps[len(tr.steps) - 1].dist_to_x < bound
    return "growing"


def test_criterion_1_and_2_path_convergence_and_witnesses(dense25, dyadics):
    t0 = time.monotonic()
    horizon = 128
    total = fixed = growing = 0
    all_traces = []

    for space, dense in ((CANTOR, dense25), (BAIRE, _baire_dense())):
        basis = good_basis(space)
        on, off = _word_samples(space, dense, 100)
        for x in on + off:
            tr = path_trace(x, dense, basis, horizon)
            kind = _check_word_trace(x, tr)
            fixed += kind == "fixed"
            growing += kind == "growing"
            total += 1
            all_traces.append(tr)

    basis = good_basis(UNIT)
    on, off = _unit_samples(dyadics, 100)
    for x in on + off:
        tr = path_trace(x, dyadics, basis, horizon)
        kind = _check_unit_trace(x, tr)
        fixed += kind == "fixed"
        growing += kind == "growing"
        total += 1
        all_traces.append(tr)

    elapsed = time.monotonic() - t0
    crit(1, total == 600 and elapsed < 10.0,
         f"600 traces over 3 spaces ({fixed} fixed, {growing} strictly "
         f"progressing) in {elapsed:.2f}s (< 10s)")

    bad = sum(len(witness_violations(tr)) for tr in all_traces)
    crit(2, bad == 0,
         f"witness soundness exact on all {total} traces ({bad} violations)")


# ---------------------------------------------------------------------------
# criterion 3: builder approximation with tail windows
# ---------------------------------------------------------------------------


_F_N1 = ClosedSet(CANTOR, cylinders=((1,),), name="N(1)")
_F_B1 = ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="{b1=1}")
_F_B1Z = ClosedSet(CANTOR, cylinders=((0, 0), (1, 0)), name="{b1=0}")
_F_DIAG = ClosedSet(CANTOR, cylinders=((0, 0), (1, 1)), name="N(00)+N(11)")
_F_SING = ClosedSet(CANTOR, cylinders=((1, 1),),
                    singletons=(WordPoint(CANTOR, (), (0,)),),
                    name="{0^inf}+N(11)")


def _acceptance_families():
    # (families, [(target head, cycle, designated family index)])
    heads1 = [(1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    famA = ([_F_N1], [(h, (0, 1), 0) for h in heads1]
            + [(h, (1, 0, 0), 0) for h in heads1]
            + [((1, 0, 0, 1), (0, 1), 0), ((1, 1, 0, 0), (0, 1), 0),
               ((1, 0, 1, 1), (0, 1), 0), ((1, 1, 1, 0), (0, 1), 0),
               ((1, 0, 0, 0), (0, 1), 0)])
    famB = ([_F_N1, _F_B1],
            [(h, (0, 1), 0) for h in heads1]
            + [(h, (1, 1, 0), 0) for h in heads1[:3]]
            + [((0, 1, 0), (0, 1), 1), ((0, 1, 1), (0, 1), 1),
               ((1, 1, 0), (1, 0, 0), 1), ((0, 1, 0, 0), (0, 1), 1),
               ((0, 1, 1, 1), (0, 1), 1), ((1, 1, 1, 0), (1, 0, 0), 1)])
    famC = ([_F_N1, _F_B1Z, _F_DIAG],
            [((1, 0, 0), (0, 1), 0), ((1, 1, 0), (0, 1), 0),
             ((1, 0, 1), (1, 0, 0), 0), ((1, 1, 1), (0, 1), 0),
             ((0, 0, 1), (0, 1), 1), ((0, 0, 0), (0, 1), 1),
             ((1, 0, 0, 1), (0, 1), 1), ((1, 0, 1, 0), (0, 1), 1),
             ((0, 0, 1, 1), (0, 1), 2), ((0, 0, 0, 1), (0, 1), 2),
             ((1, 1, 0, 1), (0, 1), 2), ((1, 1, 1, 0, 0), (0, 1), 2)])
    famD = ([_F_SING, _F_N1],
            [((1, 1, 0), (0, 1), 0), ((1, 1, 1), (0, 1), 0),
             ((1, 1, 0, 0), (0, 1), 0), ((1, 1, 0, 1), (0, 1), 0),
             ((1, 1, 1, 0), (1, 0, 0), 0), ((1, 1, 1, 1, 0), (0, 1), 0),
             ((1, 0, 0), (0, 1), 1), ((1, 0, 1), (0, 1), 1),
             ((1, 0, 0, 0), (0, 1), 1), ((1, 0, 1, 1), (0, 1), 1),
             ((1, 0, 0, 1, 1), (0, 1), 1), ((1, 0, 1, 0, 0), (0, 1), 1)])
    return [famA, famB, famC, famD]


def _base_enum():
    pts = []
    for length in range(6):
        for head in itertools.product((0, 1), repeat=length):
            for cyc in ((0,), (1,)):
                pt = WordPoint(CANTOR, head, cyc)
                if pt not in pts:
                    pts.append(pt)
    return pts


def test_criterion_3_builder_approximation(cantor_basis):
    t0 = time.monotonic()
    ladder_depth = 140
    passed = failed = 0
    truncation_notes = []
    for families, specs in _acceptance_families():
        targets = [(WordPoint(CANTOR, head, cyc), fi) for head, cyc, fi in specs]
        q = list(_base_enum())
        for k in range(3, ladder_depth + 1):
            for x, _ in targets:
                flip = 1 - x.at(k)
                q.append(WordPoint(CANTOR, x.prefix(k) + (flip,), (0,)))
        staged = build_dense(families, q, cantor_basis, m_budget=14)
        for x, fi in targets:
            Fi = families[fi]
            assert Fi.member(x)
            assert not staged.dense.contains(x)
            tr = path_trace(x, staged.dense, cantor_basis, 128)
            window = [s for s in tr.steps if 96 <= s.step <= 128]
            if tr.terminated != "horizon" or not window:
                failed += 1
                truncation_notes.append(
                    f"{x}: truncated at {len(tr.steps)} steps")
                continue
            if all(Fi.member(s.point) for s in window):
                passed += 1
            else:
                failed += 1
    elapsed = time.monotonic() - t0
    total = passed + failed
    rate = passed / total
    detail = (f"{passed}/{total} samples with tail window [96,128] inside "
              f"their closed set in {elapsed:.1f}s (< 60s)")
    if truncation_notes:
        detail += f"; truncations: {truncation_notes}"
    crit(3, total == 50 and rate >= 0.95 and elapsed < 60.0, detail)


# ---------------------------------------------------------------------------
# criterion 4: Lemma-5 sandwich
# ---------------------------------------------------------------------------


def test_criterion_4_gdelta_sandwich(dense25, cantor_basis):
    t0 = time.monotonic()
    zero = cantor_point("", "0")
    f1 = indicator_of(ClosedSet(CANTOR, singletons=(zero,), name="{0^inf}"))
    f2 = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    f3 = first_one_scale()
    cases = [
        (f1, (1,), [zero],
         [cantor_point("", "1"), cantor_point("1", "0"),
          cantor_point("", "10"), cantor_point("0", "10"),
          cantor_point("0011", "1")]),
        (f2, (1,), [cantor_point("", "1"), cantor_point("1", "0"),
                    cantor_point("11", "0"), cantor_point("1", "01")],
         [zero, cantor_point("0", "10"), cantor_point("0", "1")]),
        (f3, (F(0),), [zero], None),  # rational-valued; OUT depends on k
    ]
    checks = ok = 0
    for f, F_y, inside, outside in cases:
        for k in (1, 2, 3, 4):
            wit = gdelta_witness(f, F_y, dense25, cantor_basis, k=k, i_max=8,
                                 horizon=48, j_budget=4000)
            if outside is None:
                outs = [WordPoint(CANTOR, (0,) * m + (1,), (0, 1))
                        for m in range(k)]
            else:
                outs = outside
            for x in inside:
                checks += 1
                ok += wit.in_O(f(x)) and wit.contains(x)
            for x in outs:
                checks += 1
                ok += (not wit.in_closure_O(f(x))) and not wit.contains(x)
    elapsed = time.monotonic() - t0
    crit(4, checks and ok == checks,
         f"inclusion chain exact on {ok}/{checks} probes across 3 functions, "
         f"k <= 4, i_max 8 ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: the explicit Cantor suite
# ---------------------------------------------------------------------------


def _linear_scan_extension(dense, word):
    for p, pt in enumerate(dense.points):
        if pt.starts_with(word):
            return p
    return None


def test_criterion_5_prop25_suite(psi_table, dense25, seq25, cantor_basis):
    t0 = time.monotonic()
    # (a) psi-table monotone under strict extension, all materialized pairs
    assert psi_table.size >= 64
    mono_checked = 0
    for n, t in enumerate(psi_table.words):
        for cut in range(len(t)):
            s = t[:cut]
            if s == () or s[-1] == 1:
                assert psi_table.psi_inv(s) < n
                mono_checked += 1

    # (b) step identity: the next path term is the first enumerated point
    # extending x|( |x /\ s_n| + 1 ), checked against a raw linear scan
    alphas = []
    heads = [(), (1,), (0,), (1, 1), (0, 1), (0, 0), (1, 0)]
    cycles = [(0, 1), (1, 0, 0), (0, 1, 1), (1, 1, 0, 0), (1, 0)]
    for head in heads:
        for cyc in cycles:
            pt = WordPoint(CANTOR, head, cyc)
            if pt not in alphas and not dense25.contains(pt):
                alphas.append(pt)
            if len(alphas) == 20:
                break
        if len(alphas) == 20:
            break
    assert len(alphas) == 20
    identity_steps = 0
    truncated = []
    for alpha in alphas:
        tr = path_trace(alpha, dense25, cantor_basis, 32)
        for n in range(len(tr.steps) - 1):
            s_n, s_next = tr.steps[n], tr.steps[n + 1]
            if s_n.point == alpha:
                break
            M = alpha.first_difference(s_n.point)
            p = _linear_scan_extension(dense25, alpha.prefix(M + 1))
            assert p is not None and dense25[p] == s_next.point
            assert p == s_next.index
            identity_steps += 1
        assert len(tr.steps) >= 5, f"{alpha}: only {len(tr.steps)} steps"
        if tr.terminated == "budget":
            truncated.append(str(alpha))
    assert identity_steps >= 150  # aggregate depth actually exercised

    # (c) I25 recovery over the unbounded Prop-25 sequence for alphas inside
    # G; the path may need terms past the materialized table, which the
    # finite list dense25 could only answer with a budget stop
    g_alphas = []
    g_heads = [(), (0,), (1,), (0, 0), (1, 0), (0, 1), (1, 1), (0, 1, 0)]
    g_cycles = [(1, 1, 0), (0, 1, 1, 0), (1, 1, 0, 0), (1, 1, 1, 0),
                (1, 1, 0, 1, 0)]
    for head in g_heads:
        for cyc in g_cycles:
            pt = WordPoint(CANTOR, head, cyc)
            if in_G(pt) and pt not in g_alphas and not dense25.contains(pt):
                g_alphas.append(pt)
            if len(g_alphas) == 20:
                break
        if len(g_alphas) == 20:
            break
    assert len(g_alphas) == 20
    eval_extra = [cantor_point("", "01"), cantor_point("0", "01"),
                  cantor_point("", "001"), cantor_point("00", "01"),
                  cantor_point("1", "001")]
    recoveries = converged = 0
    misses = []
    for alpha in g_alphas:
        f = I25(alpha)
        points = [alpha]
        for pt in dense25:
            if pt not in points:
                points.append(pt)
            if len(points) >= 45:
                break
        points += [b for b in eval_extra if b != alpha][:5]
        for x in points[:50]:
            res = recover_at(f, x, seq25, "path", 40, cantor_basis, window=6)
            recoveries += 1
            if res.verdict.kind == "converged" and res.correct:
                converged += 1
            else:
                misses.append(f"alpha={alpha} x={x}: {res.verdict}, "
                              f"{len(res.trace.steps)} steps, "
                              f"terminated={res.trace.terminated}")
    elapsed = time.monotonic() - t0
    print("criterion 5 ledger, budget-truncated in (b): "
          + (", ".join(truncated) or "none"))
    detail = (f"psi monotone on {mono_checked} pairs; step identity exact on "
              f"{identity_steps} steps over 20 alphas (horizon 32; "
              f"{len(truncated)} budget-truncated, see ledger); recovery "
              f"{converged}/{recoveries} in {elapsed:.1f}s (< 30s)")
    if misses:
        detail += "; misses: " + "; ".join(misses)
    crit(5, converged == recoveries == 1000 and elapsed < 30.0, detail)


# ---------------------------------------------------------------------------
# criterion 6: rank module
# ---------------------------------------------------------------------------


def _disjoint_pairs(n):
    atoms = 2 ** n
    for code in range(3 ** atoms):
        A = B = 0
        for atom in range(atoms):
            tag = (code // 3 ** atom) % 3
            if tag == 1:
                A |= 1 << atom
            elif tag == 2:
                B |= 1 << atom
        yield A, B


def test_criterion_6_rank_module():
    t0 = time.monotonic()
    agree = total = 0
    for n in (1, 2):
        algebra = FiniteAlgebra(n)
        for A, B in _disjoint_pairs(n):
            res = rank_LAB(algebra, A, B)
            beta, chain = brute_force_min_chain(algebra, A, B)
            assert is_valid_chain(res) and is_valid_chain(chain)
            agree += res.beta == beta
            total += 1
    rng = random.Random(42)
    algebra3 = FiniteAlgebra(3)
    for _ in range(500):
        A = B = 0
        for atom in range(8):
            tag = rng.randrange(3)
            if tag == 1:
                A |= 1 << atom
            elif tag == 2:
                B |= 1 << atom
        res = rank_LAB(algebra3, A, B)
        beta, _ = brute_force_min_chain(algebra3, A, B)
        agree += res.beta == beta
        total += 1

    # round trip: every difference form yields a valid chain, the pair rank
    # is at most xi + 1 and the indicator rank at most xi + 2
    round_trip_ok = True
    forms_checked = 0
    rank_cache = {}
    for n in (1, 2, 3):
        algebra = FiniteAlgebra(n)
        atoms = 2 ** n
        for xi in (1, 2, 3):
            for levels in itertools.product(range(xi + 1), repeat=atoms):
                opens = []
                for a_idx in range(xi):
                    opens.append(sum(1 << i for i, lv in enumerate(levels)
                                     if lv <= a_idx))
                form = DiffForm(algebra, tuple(opens))
                D = d_xi_eval(form)
                chain = chain_from_diff(form)
                key = (n, algebra.full & ~D, D)
                if key not in rank_cache:
                    rank_cache[key] = rank_LAB(algebra, key[1], key[2]).beta
                indicator = [F(1) if D & (1 << i) else F(0)
                             for i in range(atoms)]
                lkey = (n, D, "Lf")
                if lkey not in rank_cache:
                    rank_cache[lkey] = rank_Lf(algebra, indicator)["L"]
                forms_checked += 1
                if not (is_valid_chain(chain) and rank_cache[key] <= form.xi + 1
                        and rank_cache[lkey] <= form.xi + 2):
                    round_trip_ok = False

    # diff_from_chain separates on every exhaustive depth-2 instance
    sep_ok = True
    algebra2 = FiniteAlgebra(2)
    for A in range(algebra2.full + 1):
        P = algebra2.full & ~A
        for chain in all_min_chains(algebra2, P, A):
            form = diff_from_chain(chain)
            D = d_xi_eval(form)
            if P & ~D or D & A:
                sep_ok = False
    elapsed = time.monotonic() - t0
    crit(6, agree == total and round_trip_ok and sep_ok and elapsed < 120.0,
         f"search agrees with brute force on {agree}/{total} pairs; "
         f"xi+2 bound on {forms_checked} difference forms; separation exact "
         f"on all depth-2 minimal chains ({elapsed:.1f}s < 120s)")


# ---------------------------------------------------------------------------
# criterion 7: EBC1
# ---------------------------------------------------------------------------


def test_criterion_7_ebc1():
    t0 = time.monotonic()
    rng = random.Random(2024)
    reports = []
    for name, n_pairs in (("unit-halves", 334), ("unit-step", 333),
                          ("cantor-bits", 333)):
        cover, family = ebc1_cover(name)
        if cover.space == UNIT:
            def rand_point():
                return UnitPoint(F(rng.randrange(0, 257), 256))
        else:
            def rand_point():
                head = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 6)))
                cycle = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 4)))
                return WordPoint(CANTOR, head, cycle)
        probes = [rand_point() for _ in range(64)]
        assert cover.uncovered(probes) == []
        pairs = [(rand_point(), rand_point()) for _ in range(n_pairs)]
        rep = ebc1_check(family, cover, pairs)
        reports.append((name, rep))
    elapsed = time.monotonic() - t0
    all_ok = all(rep["ok"] for _, rep in reports)
    constrained = sum(rep["constrained"] for _, rep in reports)
    crit(7, all_ok and constrained > 100,
         f"1000 pairs over 3 covers: {constrained} distance-constrained, "
         f"0 violations ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 8: the ultrametric space Z
# ---------------------------------------------------------------------------


def _z_pool():
    pool = [
        ZPoint((), 1, F(1, 2)), ZPoint((), 1, F(1, 4)), ZPoint((), 1, F(3, 4)),
        ZPoint((), 2, F(1, 3)), ZPoint((F(1, 8),), 1, F(1, 2)),
        ZPoint((F(1, 2), F(7, 4)), 1, F(1, 2)),
        ZPoint((F(0), F(3, 4)), 1, F(0)),
        ZPoint((F(1, 3), F(2, 3)), F(1, 2), F(5, 6)),
        ZPoint((F(1, 2), F(3, 2), F(9, 4)), 1, F(1, 2)),
        ZPoint((F(1, 2), F(3, 2), F(17, 8)), 1, F(1, 2)),
        ZPoint((F(2),), 1, F(3, 2)), ZPoint((), 1, F(5, 2)),
    ]
    return pool


def test_criterion_8_z_suite():
    t0 = time.monotonic()
    pool = _z_pool()
    rng = random.Random(99)
    triples = [(rng.choice(pool), rng.choice(pool), rng.choice(pool))
               for _ in range(500)]
    metric_ok = 0
    for x, y, z in triples:
        dxy, dyx = dist(x, y), dist(y, x)
        ok = dxy == dyx
        ok = ok and (dxy.is_zero() == (x == y))
        ok = ok and dist(x, z) <= max(dxy, dist(y, z))  # ultrametric
        dxz, dyz = dist(x, z), dist(y, z)
        le = (lambda a, b: not b < a)
        ok = ok and le(dxz, max(dxy, dyz))
        metric_ok += ok

    nondiscrete_ok = all(
        prop12_distance(n) == prop12_expected(n)
        and Dist.pow2(1) < prop12_distance(n)
        and prop12_distance(n + 1) < prop12_distance(n)
        for n in range(21))

    balls_ok = 0
    probes = pool + [ZPoint((), 1, F(7, 8)), ZPoint((F(1, 4),), 1, F(2, 3))]
    samples = 0
    while samples < 200:
        t, x, y = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        if x == t or y == t:
            continue
        samples += 1
        bx = ZBall(x, dist(x, t).value)
        by = ZBall(y, dist(y, t).value)
        in_x = [bx.member(p) for p in probes]
        in_y = [by.member(p) for p in probes]
        both = any(a and b for a, b in zip(in_x, in_y))
        if not both or in_x == in_y:
            balls_ok += 1
    elapsed = time.monotonic() - t0
    crit(8, metric_ok == 500 and nondiscrete_ok and balls_ok == 200,
         f"metric axioms on 500 triples, closed-form distances for n <= 20, "
         f"equal-or-disjoint on 200 ball pairs ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 9: the divergence demonstration
# ---------------------------------------------------------------------------


def test_criterion_9_thm13_demo():
    t0 = time.monotonic()
    rep = thm13_demo(horizon=400)
    elapsed = time.monotonic() - t0
    detail = (f"witness {rep['witness']} with {rep['flips_after']} flips after "
              f"step 50 at horizon 400 ({elapsed:.1f}s < 120s)")
    if not rep["found"]:
        detail = f"no witness; search log: {rep['candidates']}"
    crit(9, rep["found"] and rep["flips_after"] >= 5 and elapsed < 120.0, detail)


# ---------------------------------------------------------------------------
# criterion 10: determinism of the artifact suite
# ---------------------------------------------------------------------------


_SUITE = [
    {"command": "rank", "n": 2, "A": "1000", "B": "0011", "diff": "true"},
    {"command": "recover", "fn": "I25", "alpha": "cantor:|110",
     "horizon": 48, "max_points": 6},
    {"command": "build-dense", "family": "two-bits"},
    {"command": "ebc1", "cover": "cantor-bits", "pairs": 100, "seed": 5},
    {"command": "gallery", "action": "demo-z", "horizon": 200},
    {"command": "gallery", "action": "eval", "fn": "I16",
     "alpha": "cantor:|1", "beta": "cantor:1|0"},
]


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    roots = [tmp_path / "run1", tmp_path / "run2"]
    for root in roots:
        for i, cfg in enumerate(_SUITE):
            fr_cli.run_config(dict(cfg), root / f"job{i}")
    compared = mismatched = 0
    for pa in sorted(roots[0].rglob("*")):
        if not pa.is_file() or pa.name == "run.meta":
            continue
        pb = roots[1] / pa.relative_to(roots[0])
        compared += 1
        if not pb.exists() or pa.read_bytes() != pb.read_bytes():
            mismatched += 1
    elapsed = time.monotonic() - t0
    crit(10, compared > 0 and mismatched == 0,
         f"two consecutive suite runs byte-identical on {compared} artifacts "
         f"({elapsed:.1f}s)")
