import pytest

from gl2diamond.core import Params


@pytest.fixture(scope="session")
def par52():
    return Params(5, 2)


@pytest.fixture(scope="session")
def par72():
    return Params(7, 2)


@pytest.fixture(scope="session")
def par51():
    return Params(5, 1)
