from fractions import Fraction as F

import pytest

from firstreturn.dense_builder import ClosedSet
from firstreturn.gallery import I25, first_one_scale, indicator_of
from firstreturn.recover import (
    DISCRETE,
    RATIONAL,
    FunctionOracle,
    classify_values,
    evaluation_map,
    gdelta_witness,
    recover_at,
    recovery_report,
)
from firstreturn.space import CANTOR, WordPoint, cantor_point


def test_constant_function_converges_everywhere(dense25, cantor_basis):
    f = FunctionOracle("const7", lambda p: 7, DISCRETE)
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


def test_report_empty_points(dense25, cantor_basis):
    f = FunctionOracle("c", lambda p: 0, DISCRETE)
    rep = recovery_report(f, dense25, "path", [], 8, cantor_basis)
    assert rep["per_point"] == [] and rep["converged_rate"] is None


def test_classify_discrete_verdicts():
    assert classify_values([1] * 20, DISCRETE, window=8).kind == "converged"
    v = classify_values([0, 1] * 10, DISCRETE, window=8)
    assert v.kind == "diverged-evidence" and v.flips >= 2
    assert classify_values([0] * 18 + [1, 1], DISCRETE,
                           window=8).kind == "not-converged-at-horizon"


def test_classify_rational_verdicts():
    vals = [F(1, 2 ** n) for n in range(24)]
    assert classify_values(vals, RATIONAL, window=8).kind == "converged"
    wob = [F(n % 2, 2) for n in range(24)]
    assert classify_values(wob, RATIONAL, window=8).kind == "diverged-evidence"


# ---------------------------------------------------------------------------
# G-delta witnesses
# ---------------------------------------------------------------------------


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


def test_evaluation_map_width_artifact(dense25):
    f = FunctionOracle("f", lambda p: 0, DISCRETE)
    marked = dense25[40]
    g = FunctionOracle("g", lambda p: 1 if p == marked else 0, DISCRETE)
    small = evaluation_map([f, g], dense25, P=5)
    assert not small["injective_at_width"]  # undistinguished at width 5
    wide = evaluation_map([f, g], dense25, P=64)
    assert wide["injective_at_width"]
