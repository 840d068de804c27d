import pytest

from cubeforge import CubicPoint, CurveConfig

# rank-1 curves with a known small generator, one per m0
KNOWN_GENERATORS = {
    6: CubicPoint(17, 37, 21),
    7: CubicPoint(2, -1, 1),
    9: CubicPoint(1, 2, 1),
}


def pool_draws(pair):
    """The four draws perfbench/run.py's blocks() makes of a generator pair:
    both orders, each as given and with every (x, y, z) negated to (y, x, z)."""
    for ordered in (list(pair), list(pair)[::-1]):
        yield ordered
        yield [(y, x, z) for x, y, z in ordered]


@pytest.fixture(scope="session")
def cfg6():
    return CurveConfig(6)


@pytest.fixture(scope="session")
def cfg7():
    return CurveConfig(7)


@pytest.fixture(scope="session")
def cfg9():
    return CurveConfig(9)


@pytest.fixture(scope="session")
def cfg1():
    return CurveConfig(1)


@pytest.fixture(scope="session")
def gen6():
    return KNOWN_GENERATORS[6]


@pytest.fixture(scope="session")
def gen7():
    return KNOWN_GENERATORS[7]
