from fractions import Fraction as F
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from firstreturn import recover
from firstreturn.dense_builder import ClosedSet
from firstreturn.gallery import I25, first_one_scale, indicator_of
from firstreturn.path import PathTrace
from firstreturn.recover import (
    DISCRETE,
    RATIONAL,
    TOL,
    FunctionOracle,
    GdeltaWitness,
    classify_values,
    evaluation_map,
    gdelta_witness,
    recover_at,
    recovery_report,
    y_distance,
)
from firstreturn.space import CANTOR, WordPoint, cantor_point


def test_constant_function_converges_everywhere(dense25, cantor_basis):
    f = FunctionOracle("const7", lambda p: 7, DISCRETE, space=CANTOR)
    for x in (cantor_point("", "10"), dense25[0], cantor_point("01", "1")):
        res = recover_at(f, x, dense25, "path", 24, cantor_basis, window=8)
        assert res.verdict.kind == "converged"
        assert res.verdict.value == 7 and res.verdict.since == 0
        assert res.correct


def test_clopen_indicator_recovers_at_one_tail(dense25, cantor_basis):
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    res = recover_at(f, cantor_point("", "1"), dense25, "path", 24,
                     cantor_basis, window=8)
    assert res.verdict.kind == "converged" and res.verdict.value == 1
    assert res.expected == 1 and res.correct


def test_oracle_blindness_audit(dense25, cantor_basis):
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    x = cantor_point("1", "01")
    assert not dense25.contains(x)
    res = recover_at(f, x, dense25, "path", 16, cantor_basis, window=4)
    assert res.audit["off_dense"] == 0
    assert res.audit["ground_truth"] == 1
    assert res.audit["on_dense"] == len(res.trace.steps)


def test_audit_reads_no_membership(dense25, seq25, cantor_basis, monkeypatch):
    # every trace point is a term of the sequence, so the audit asks none
    def refuse(self, point):
        raise AssertionError(f"contains({point}) called")

    f = I25(cantor_point("", "110"))
    for dense in (dense25, seq25):
        monkeypatch.setattr(type(dense), "contains", refuse)
        for mode in ("path", "route"):
            for x in (cantor_point("1", "01"), cantor_point("0", "001"), dense[3]):
                res = recover_at(f, x, dense, mode, 24, cantor_basis, window=8)
                assert res.audit == {"on_dense": len(res.trace.steps), "off_dense": 0,
                                     "ground_truth": 1}


def counting(f):
    """f with an evaluator that records each point it is called on."""
    calls = []

    def evaluator(p):
        calls.append(p)
        return f(p)

    return FunctionOracle(f.fid, evaluator, f.y_kind, space=f.space), calls


def runs_of(trace):
    steps = trace.steps
    return 1 + sum(a.point != b.point for a, b in zip(steps, steps[1:]))


def every_position(self, fn):
    return [fn(s.point) for s in self.steps]


def assert_same_as_every_position(res, f, x, dense, mode, cantor_basis, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(PathTrace, "values_under", every_position)
        assert res == recover_at(f, x, dense, mode, 40, cantor_basis, window=16), str(x)
    # an evaluator that tells every point apart sees each position's own point
    assert res.trace.values_under(str) == [str(s.point) for s in res.trace.steps]


@pytest.mark.parametrize("mode", ["path", "route"])
def test_settled_trace_costs_one_call_per_run(view25, cantor_basis, monkeypatch, mode):
    f = I25(cantor_point("", "110"))
    for p in (0, 1, 3, 5, 9, 20, 47, 300):
        x = view25[p]
        g, calls = counting(f)
        res = recover_at(g, x, view25, mode, 40, cantor_basis, window=16)
        assert res.trace.steps[-1].point == x and len(res.trace.steps) == 40
        assert len(calls) == runs_of(res.trace) + 1 <= 6, str(x)
        assert_same_as_every_position(res, f, x, view25, mode, cantor_basis, monkeypatch)


@pytest.mark.parametrize("mode", ["path", "route"])
def test_trace_without_repeats_calls_at_every_position(view25, seq25, cantor_basis,
                                                       monkeypatch, mode):
    f = I25(cantor_point("", "110"))
    stops = set()
    for dense in (view25, seq25):
        for x in (cantor_point("1", "01"), cantor_point("0", "001"), cantor_point("", "10")):
            assert not dense.contains(x)
            g, calls = counting(f)
            res = recover_at(g, x, dense, mode, 40, cantor_basis, window=16)
            assert len(calls) == len(res.trace.steps) + 1, str(x)
            stops.add((res.trace.terminated, len(res.trace.steps) == 40))
            assert_same_as_every_position(res, f, x, dense, mode, cantor_basis, monkeypatch)
    assert stops == {("budget", False), ("horizon", True)}


def test_report_empty_points(dense25, cantor_basis):
    f = FunctionOracle("c", lambda p: 0, DISCRETE, space=CANTOR)
    rep = recovery_report(f, dense25, "path", [], 8, cantor_basis)
    assert rep["per_point"] == [] and rep["converged_rate"] is None


def test_classify_discrete_verdicts():
    assert classify_values([1] * 20, DISCRETE, window=8).kind == "converged"
    v = classify_values([0, 1] * 10, DISCRETE, window=8)
    assert v.kind == "diverged-evidence" and v.flips >= 2
    assert classify_values([0] * 18 + [1, 1], DISCRETE,
                           window=8).kind == "not-converged-at-horizon"


def test_classify_rejects_an_empty_window():
    with pytest.raises(ValueError, match="window must be >= 1"):
        classify_values([0, 1, 0], DISCRETE, window=0)


def test_classify_rational_verdicts():
    vals = [F(1, 2 ** n) for n in range(24)]
    assert classify_values(vals, RATIONAL, window=8).kind == "converged"
    wob = [F(n % 2, 2) for n in range(24)]
    assert classify_values(wob, RATIONAL, window=8).kind == "diverged-evidence"


def _flips(values):
    return sum(1 for i in range(len(values) - 1) if values[i + 1] != values[i])


def _run(values):
    n = 1 if values else 0
    while n < len(values) and values[-n - 1] == values[-n]:
        n += 1
    return n


def _classify_by_range_kind(values, y_kind, window):
    """The verdict as it was computed with one branch per range kind."""
    if len(values) < window:
        flips = _flips(values)
        return ("diverged-evidence", None, None, flips) if flips >= 2 else \
            ("not-converged-at-horizon", None, None, 0)
    tail = values[-window:]
    run = _run(values)
    if y_kind == DISCRETE:
        if run >= window:
            return ("converged", values[-1], len(values) - run, 0)
    elif max(tail) - min(tail) < F(1, 2 ** 10):
        return ("converged", values[-1], len(values) - run, 0)
    flips = _flips(tail)
    return ("diverged-evidence", None, None, flips) if flips >= 2 else \
        ("not-converged-at-horizon", None, None, 0)


def _correct_by_range_kind(value, expected, y_kind):
    if y_kind == DISCRETE:
        return value == expected
    return abs(value - expected) <= F(1, 2 ** 10)


# rationals a multiple of 2^-11 apart, so tails meet the tolerance 2^-10 exactly
_NEAR = st.sampled_from([F(0), F(1, 2048), F(1, 1024), F(3, 2048), F(1, 512), F(-1, 1024),
                         F(1, 2), F(1)])


@given(st.one_of(
    st.tuples(st.lists(st.integers(0, 2), max_size=40), st.sampled_from([DISCRETE, RATIONAL])),
    st.tuples(st.lists(_NEAR, max_size=40), st.just(RATIONAL))),
    st.integers(1, 16), st.integers(0, 2) | _NEAR)
@settings(max_examples=400, deadline=None)
def test_one_metric_matches_the_per_kind_branches(case, window, expected):
    values, y_kind = case
    v = classify_values(values, y_kind, window)
    assert (v.kind, v.value, v.since, v.flips) == _classify_by_range_kind(values, y_kind,
                                                                          window)
    if values:
        assert (y_distance(y_kind, values[-1], expected) <= TOL) == \
            _correct_by_range_kind(values[-1], expected, y_kind)


@pytest.mark.parametrize("gap,correct", [(TOL, True), (2 * TOL, False)])
def test_converged_value_is_correct_within_tol(dense25, cantor_basis, gap, correct):
    x = cantor_point("", "10")  # off the dense sequence
    f = FunctionOracle("gap", lambda p: F(0) if p == x else gap, RATIONAL, space=CANTOR)
    res = recover_at(f, x, dense25, "path", 16, cantor_basis, window=4)
    assert res.verdict.kind == "converged" and res.correct is correct


def test_function_oracle_needs_its_space():
    with pytest.raises(TypeError):
        FunctionOracle("c", lambda p: 0, DISCRETE)


# ---------------------------------------------------------------------------
# G-delta witnesses
# ---------------------------------------------------------------------------


def test_gdelta_level_zero_rejected(dense25, cantor_basis):
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    with pytest.raises(ValueError, match="k must be >= 1"):
        gdelta_witness(f, (1,), dense25, cantor_basis, k=0, i_max=4, horizon=8)


def test_gdelta_notes_the_end_of_the_terms(dense25, seq25, cantor_basis):
    # no term takes the value 7: the enumeration ends, and a note says so;
    # the unbounded sequence's note says that only its table ended
    f = I25(cantor_point("", "110"))
    counts = f"{len(set(dense25))} distinct terms with 0 of 64 p_j"
    for dense, note in ((dense25, f"enumeration ended at {counts}"),
                        (seq25, f"the sequence's table ended after {counts}; "
                                "the sequence goes on")):
        wit = gdelta_witness(f, (7,), dense, cantor_basis, k=1, i_max=4, horizon=16)
        assert wit.p_list == []
        assert wit.notes == [note]


def test_gdelta_over_the_unbounded_sequence_notes_its_table(dense25, seq25, cantor_basis):
    # infinitely many terms lie in N(1^12), but only one of the terms the
    # table counts: the note says the table ended, not the sequence
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,) * 12,), name="N(1^12)"))
    wit = gdelta_witness(f, (1,), seq25, cantor_basis, 1, 4, 12, j_budget=5000)
    assert len(wit.p_list) == 1
    assert wit.notes == [f"the sequence's table ended after {len(set(dense25))} distinct "
                         "terms with 1 of 5000 p_j; the sequence goes on"]


def test_gdelta_singleton_indicator(dense25, cantor_basis):
    zero = cantor_point("", "0")
    f = indicator_of(ClosedSet(CANTOR, singletons=(zero,), name="{0^inf}"))
    wit = gdelta_witness(f, (1,), dense25, cantor_basis, k=1, i_max=8,
                         horizon=24)
    # the only preimage point is 0^inf = x_1
    assert wit.p_list == [1]
    assert wit.contains(zero)
    assert not wit.contains(cantor_point("", "1"))
    assert not wit.contains(cantor_point("10", "1"))


def test_gdelta_exception_branch_for_dense_points(dense25, cantor_basis):
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    wit = gdelta_witness(f, (1,), dense25, cantor_basis, k=2, i_max=6,
                         horizon=24)
    # a dense-sequence point in the preimage is some x_{p_q}: exception
    # branch plus the self-hit keep it inside H_k
    x = cantor_point("1", "0")  # x_3
    detail = wit.membership(x)
    assert detail["member"] and detail["exceptional"]


def failed_at_by_levels(hits, exceptional, i_max):
    """The first level i < i_max at which x is in no U_j with j >= i and is
    no x_{p_m} with m < i, checked level by level; None if none fails."""
    for i in range(i_max):
        if not (any(j >= i for j in hits) or any(m < i for m in exceptional)):
            return i
    return None


@given(st.lists(st.sampled_from("-ux"), max_size=12), st.booleans(), st.integers(0, 14))
@settings(max_examples=400, deadline=None)
def test_gdelta_membership_matches_the_level_loop(tags, x_visited, i_max):
    # x_{p_j} is x itself ("x"), a point the path visits ("u") or neither
    # ("-"); a stub trace visits the "u" points, and x when x_visited
    x = cantor_point("", "0")
    terms = [x if t == "x" else cantor_point("1" * j + "0", "1") for j, t in enumerate(tags)]
    visited = {pt for pt, t in zip(terms, tags) if t == "u"} | ({x} if x_visited else set())
    trace = SimpleNamespace(visited=lambda: visited, terminated="horizon")
    wit = GdeltaWitness(None, (), 1, i_max, 0, list(range(len(terms))), terms, None)
    with mock.patch.object(recover, "path_trace", lambda *args, **kwargs: trace):
        detail = wit.membership(x)
    hits = [j for j, t in enumerate(tags) if t == "u" or (t == "x" and x_visited)]
    exceptional = [m for m, t in enumerate(tags) if t == "x"]
    assert (detail["hits"], detail["exceptional"]) == (hits, exceptional)
    failed = failed_at_by_levels(hits, exceptional, i_max)
    assert detail["failed_at"] == failed and detail["member"] == (failed is None)


def test_gdelta_sandwich_for_clopen_indicator(dense25, cantor_basis):
    f = indicator_of(ClosedSet(CANTOR, cylinders=((1,),), name="N(1)"))
    for k in (1, 2, 3, 4):
        wit = gdelta_witness(f, (1,), dense25, cantor_basis, k=k, i_max=8,
                             horizon=48)
        inside = [cantor_point("", "1"), cantor_point("1", "0"),
                  cantor_point("1", "01")]
        outside = [cantor_point("", "0"), cantor_point("0", "10")]
        for x in inside:
            assert f(x) in wit.F_y
            assert wit.contains(x), x
        for x in outside:
            assert not wit.in_closure_O(f(x))
            assert not wit.contains(x), x


def test_gdelta_rational_levels_differ(dense25, cantor_basis):
    f = first_one_scale()
    # k = 4: O_4 = (-1/16, 1/16); a point with value 1/8 is outside the
    # closure, hence outside H_4; its own level set keeps it in H_2's frame
    probe = cantor_point("0001", "01")
    assert f(probe) == F(1, 8)
    wit4 = gdelta_witness(f, (F(0),), dense25, cantor_basis, k=4, i_max=8,
                          horizon=48)
    assert not wit4.in_closure_O(f(probe))
    assert not wit4.contains(probe)
    zero = cantor_point("", "0")
    assert wit4.contains(zero)


# ---------------------------------------------------------------------------
# evaluation map
# ---------------------------------------------------------------------------


def test_evaluation_map_distinguishes_distinct_functions(dense25):
    a1 = cantor_point("", "110")
    a2 = cantor_point("", "101")
    rep = evaluation_map([I25(a1), I25(a2)], dense25, P=64)
    assert rep["injective_at_width"]


def test_evaluation_map_identical_functions_collide(dense25):
    a = cantor_point("", "110")
    rep = evaluation_map([I25(a), I25(a)], dense25, P=32)
    assert not rep["injective_at_width"]
    assert rep["collisions"]


def test_evaluation_map_over_the_unbounded_sequence(dense25, seq25):
    fam = [I25(cantor_point("", "110")), I25(cantor_point("", "101"))]
    assert evaluation_map(fam, seq25, P=64) == evaluation_map(fam, dense25, P=64)


def test_evaluation_map_width_artifact(dense25):
    f = FunctionOracle("f", lambda p: 0, DISCRETE, space=CANTOR)
    marked = dense25[40]
    g = FunctionOracle("g", lambda p: 1 if p == marked else 0, DISCRETE, space=CANTOR)
    small = evaluation_map([f, g], dense25, P=5)
    assert not small["injective_at_width"]  # undistinguished at width 5
    wide = evaluation_map([f, g], dense25, P=64)
    assert wide["injective_at_width"]
