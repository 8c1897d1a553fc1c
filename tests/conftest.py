import pathlib

import pytest

import orbitsep as O

INSTANCE_DIR = pathlib.Path(__file__).resolve().parent.parent / "instances"


@pytest.fixture
def z1_action():
    return O.GeneratedAction(O.ZdSpace(1, "l1"), [O.Translation((1,))])


@pytest.fixture
def zd2_action():
    return O.GeneratedAction(
        O.ZdSpace(2, "linf"), [O.Translation((1, 0)), O.Translation((0, 1))]
    )


@pytest.fixture
def shift_action():
    return O.GeneratedAction(O.DiscreteShiftSpace(), [O.Shift()])


@pytest.fixture
def free2_action():
    return O.GeneratedAction(
        O.FreeSpace(2), [O.LeftMultiplication((1,)), O.LeftMultiplication((2,))]
    )


@pytest.fixture
def c4_action():
    space = O.FiniteGraphSpace(4, [[0, 1, 1], [1, 2, 1], [2, 3, 1], [3, 0, 1]])
    return O.GeneratedAction(space, [O.VertexPermutation((1, 2, 3, 0))])


def instance_path(name):
    return str(INSTANCE_DIR / name)
