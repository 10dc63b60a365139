"""The package's record classes behave as the dataclasses they replace:
`repr` prints the dataclass text, equal fields give equal objects and equal
hashes (the hash of the tuple of fields), an object of another class never
compares equal, and records that callers change are unhashable."""

import re
from fractions import Fraction as F

import pytest

from firstreturn import Record
from firstreturn.dense_builder import ClosedSet, StagedDense
from firstreturn.ebc1 import ClosedCover
from firstreturn.path import DenseSequence, PastTableIndex, PathTrace, TraceStep
from firstreturn.rank import DiffForm, FiniteAlgebra, RankChain
from firstreturn.recover import (DISCRETE, RATIONAL, FunctionOracle, GdeltaWitness,
                                 RecoveryResult, Verdict)
from firstreturn.space import (CANTOR, UNIT, Cylinder, Dist, RationalInterval, UnitPoint,
                               WordPoint, ZPoint, cantor_point, good_basis)

X = cantor_point("1", "0")
DENSE = DenseSequence([cantor_point("", "0"), X])
BASIS = good_basis(CANTOR)
HALF = FunctionOracle("half", abs, RATIONAL, space=UNIT)
A2 = FiniteAlgebra(2)


def _trace():
    return PathTrace(X, "path", 2, [TraceStep(0, 1, X, Dist.zero())])


# (class, a builder of two equal records from different inputs where the
# class canonicalizes them, the dataclass repr with object addresses cut)
CASES = [
    (Dist, lambda: (Dist.pow2(3), Dist("pow2", F(3))), "Dist(kind='pow2', value=3)"),
    (WordPoint, lambda: (cantor_point("10", "0"), WordPoint(CANTOR, (1, 0, 0), (0, 0))),
     "WordPoint(space='cantor', head=b'\\x01', cycle=b'\\x00')"),
    (UnitPoint, lambda: (UnitPoint(F(1, 3)), UnitPoint("1/3")),
     "UnitPoint(value=Fraction(1, 3))"),
    (ZPoint, lambda: (ZPoint((F(1, 2),), 1, F(1, 2)), ZPoint((), 1, F(1, 2))),
     "ZPoint(prefix=(), a=Fraction(1, 1), b=Fraction(1, 2))"),
    (Cylinder, lambda: (Cylinder(CANTOR, (1, 0)), Cylinder(CANTOR, b"\x01\x00")),
     "Cylinder(space='cantor', word=b'\\x01\\x00')"),
    (RationalInterval, lambda: (RationalInterval(F(1, 4), F(1, 2)),
                                RationalInterval(F(2, 8), F(1, 2))),
     "RationalInterval(lo=Fraction(1, 4), hi=Fraction(1, 2))"),
    (PastTableIndex, lambda: (PastTableIndex(5), PastTableIndex(5)), "PastTableIndex(size=5)"),
    (TraceStep, lambda: (TraceStep(1, 0, X, Dist.pow2(2), Cylinder(CANTOR, (1,))),
                         TraceStep(1, 0, cantor_point("1", "00"), Dist.pow2(2),
                                   Cylinder(CANTOR, (1,)))),
     "TraceStep(step=1, index=0, point=WordPoint(space='cantor', head=b'\\x01', "
     "cycle=b'\\x00'), dist_to_x=Dist(kind='pow2', value=2), "
     "witness=Cylinder(space='cantor', word=b'\\x01'))"),
    (PathTrace, lambda: (PathTrace(X, "route", 3), PathTrace(X, "route", 3, [])),
     "PathTrace(x=WordPoint(space='cantor', head=b'\\x01', cycle=b'\\x00'), mode='route', "
     "horizon=3, steps=[], terminated='horizon', budget=None)"),
    (ClosedSet, lambda: (ClosedSet(CANTOR, cylinders=((1,), (0, 1)), name="F"),
                         ClosedSet(CANTOR, cylinders=[[0, 1], [1]], name="F")),
     "ClosedSet(space='cantor', cylinders=(b'\\x00\\x01', b'\\x01'), singletons=(), "
     "intervals=(), name='F')"),
    (StagedDense, lambda: (StagedDense([[X]], DENSE), StagedDense([[X]], DENSE, [], [])),
     "StagedDense(blocks=[[WordPoint(space='cantor', head=b'\\x01', cycle=b'\\x00')]], "
     "dense=<firstreturn.path.DenseSequence object>, records=[], truncations=[])"),
    (FunctionOracle, lambda: (FunctionOracle("abs", abs, space=UNIT),
                              FunctionOracle("abs", abs, DISCRETE, None, space=UNIT)),
     "FunctionOracle(fid='abs', evaluator=<built-in function abs>, y_kind='discrete', "
     "decomposition=None, space='unit')"),
    (Verdict, lambda: (Verdict("converged", 1, since=3), Verdict("converged", 1, 3, 0)),
     "Verdict(kind='converged', value=1, since=3, flips=0)"),
    (RecoveryResult, lambda: (RecoveryResult(Verdict("x"), 0, None, _trace(), {"f": 2}),
                              RecoveryResult(Verdict("x"), 0, None, _trace(), {"f": 2})),
     "RecoveryResult(verdict=Verdict(kind='x', value=None, since=None, flips=0), "
     "expected=0, correct=None, trace=PathTrace(x=WordPoint(space='cantor', "
     "head=b'\\x01', cycle=b'\\x00'), mode='path', horizon=2, steps=[TraceStep(step=0, "
     "index=1, point=WordPoint(space='cantor', head=b'\\x01', cycle=b'\\x00'), "
     "dist_to_x=Dist(kind='zero', value=None), witness=None)], terminated='horizon', "
     "budget=None), audit={'f': 2})"),
    (GdeltaWitness, lambda: (GdeltaWitness(HALF, (0,), 2, 3, 4, [1], DENSE, BASIS),
                             GdeltaWitness(HALF, (0,), 2, 3, 4, [1], DENSE, BASIS, [])),
     "GdeltaWitness(f=FunctionOracle(fid='half', evaluator=<built-in function abs>, "
     "y_kind='rational', decomposition=None, space='unit'), F_y=(0,), k=2, i_max=3, "
     "horizon=4, p_list=[1], dense=<firstreturn.path.DenseSequence object>, "
     "basis=<firstreturn.space.CylinderGoodBasis object>, notes=[])"),
    (ClosedCover, lambda: (ClosedCover(F(1, 2), [ClosedSet(UNIT, intervals=((0, 1),))]),
                           ClosedCover(F(1, 2), [ClosedSet(UNIT, intervals=((F(0), F(1)),))])),
     "ClosedCover(eps=Fraction(1, 2), pieces=[ClosedSet(space='unit', cylinders=(), "
     "singletons=(), intervals=((Fraction(0, 1), Fraction(1, 1)),), name='')])"),
    (FiniteAlgebra, lambda: (FiniteAlgebra(2), FiniteAlgebra(2)), "FiniteAlgebra(n=2)"),
    (RankChain, lambda: (RankChain(A2, (0, 15), 1, 2), RankChain(FiniteAlgebra(2), (0, 15), 1, 2)),
     "RankChain(algebra=FiniteAlgebra(n=2), sets=(0, 15), A=1, B=2)"),
    (DiffForm, lambda: (DiffForm(A2, (1, 3)), DiffForm(A2, (1, 3))),
     "DiffForm(algebra=FiniteAlgebra(n=2), opens=(1, 3))"),
]

# the classes that were plain (not frozen) dataclasses: callers fill or
# change them after construction
MUTABLE = {TraceStep, PathTrace, StagedDense, FunctionOracle, Verdict, RecoveryResult,
           GdeltaWitness, ClosedCover}


@pytest.mark.parametrize("cls,pair,text", CASES, ids=[c[0].__name__ for c in CASES])
def test_record_behaves_as_its_dataclass(cls, pair, text):
    a, b = pair()
    assert type(a) is type(b) is cls
    assert re.sub(r" at 0x[0-9a-f]+", "", repr(a)) == text
    assert a == b and b == a and not a != b
    values = tuple(getattr(a, name) for name in cls._fields)
    # an object of another class never equals a record: its field tuple, or
    # an object of a subclass that holds the same fields
    twin = object.__new__(type("Other", (cls,), {}))
    twin.__dict__.update(vars(a))
    assert a != values and values != a
    assert a != twin and twin != a
    if cls in MUTABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(values)
        assert len({a, b}) == 1


def test_every_record_class_is_covered():
    assert {c[0] for c in CASES} == set(Record.__subclasses__()) >= MUTABLE
    assert len(CASES) == 19


def test_function_oracle_space_is_keyword_only():
    with pytest.raises(TypeError):
        FunctionOracle("abs", abs)
    with pytest.raises(TypeError):
        FunctionOracle("abs", abs, RATIONAL, None, UNIT)
    assert FunctionOracle("abs", abs, space=UNIT).space == UNIT
