import pytest

from firstreturn.dense_builder import ClosedSet, build_dense
from firstreturn.gallery import Prop25Sequence, default_table, prop25_dense, x_seq_point
from firstreturn.path import DenseSequence
from firstreturn.space import CANTOR, UNIT, good_basis
from firstreturn.cli import dyadic_dense


@pytest.fixture(scope="session")
def psi_table():
    return default_table()


@pytest.fixture(scope="session")
def dense25():
    """The materialized Prop-25 list: the oracle for the view `view25`."""
    return DenseSequence([x_seq_point(p) for p in range(2 * default_table().size)])


@pytest.fixture(scope="session")
def view25():
    return prop25_dense()


@pytest.fixture(scope="session")
def seq25():
    return Prop25Sequence()


@pytest.fixture(scope="session")
def cantor_basis():
    return good_basis(CANTOR)


@pytest.fixture(scope="session")
def unit_basis():
    return good_basis(UNIT)


@pytest.fixture(scope="session")
def dyadics():
    return dyadic_dense(depth=10)


@pytest.fixture(scope="session")
def builder_dense(cantor_basis):
    """A builder list for N(1) and N(01) u N(11) over the first 512 Prop-25 terms."""
    families = [ClosedSet(CANTOR, cylinders=((1,),), name="F0"),
                ClosedSet(CANTOR, cylinders=((0, 1), (1, 1)), name="F1")]
    return build_dense(families, [x_seq_point(p) for p in range(512)], cantor_basis).dense
