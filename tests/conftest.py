import pytest

from graphck import corpus


@pytest.fixture(scope="session")
def graphs():
    return {name: corpus.load(name) for name in corpus.GRAPH_NAMES}
